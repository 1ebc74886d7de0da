import hashlib
import importlib.util
import json
import random
import time
from pathlib import Path

import pytest

from ribbonlab import cli, suites
from ribbonlab.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out) if out else None
    return code, doc


def test_limit_quadric_degenerate_example(capsys):
    code, doc = run_cli(capsys, "limit-quadric", "--g", "4", "--q", "[[1,0],[0,0]]")
    assert code == 0
    assert doc["status"] == "ok"
    p = doc["payload"]
    assert p["degenerate"] is True
    assert p["det"] == "0"
    assert p["witness_lambda"] == ["0", "1"]


def test_limit_quadric_nondegenerate_examples(capsys):
    code, doc = run_cli(capsys, "limit-quadric", "--g", "3", "--q", "[[1]]")
    assert code == 0 and doc["payload"]["degenerate"] is False

    code, doc = run_cli(capsys, "limit-quadric", "--g", "4", "--q", "[[1,0],[0,1]]")
    assert code == 0
    assert doc["payload"]["degenerate"] is False
    assert doc["payload"]["det"] == "1"
    assert doc["payload"]["witness_lambda"] is None


def test_limit_quadric_header_object_and_mismatch(capsys):
    q = json.dumps({"g": 4, "matrix": [["1", "1/2"], ["1/2", "1"]]})
    code, doc = run_cli(capsys, "limit-quadric", "--q", q)
    assert code == 0 and doc["payload"]["det"] == "3/4"

    code, doc = run_cli(capsys, "limit-quadric", "--g", "5", "--q", q)
    assert code == 1 and doc["status"] == "error"


def test_limit_quadric_malformed_matrix(capsys):
    code, doc = run_cli(capsys, "limit-quadric", "--g", "4", "--q", "[[1,2],[3,4]]")
    assert code == 1
    assert doc["status"] == "error"
    assert "symmetric" in doc["payload"]["message"]


def test_exponent_notation_is_refused_at_once(capsys):
    # Fraction would build 10**10000000 in full before any check (~12 s)
    started = time.perf_counter()
    code, doc = run_cli(capsys, "limit-quadric", "--g", "3", "--q", '[["1e10000000"]]')
    assert time.perf_counter() - started < 1.0
    assert code == 1 and doc["status"] == "error"
    assert "1e10000000" in doc["payload"]["message"]


def test_limit_quadric_from_file(tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text(json.dumps([[1, 0], [0, 0]]))
    code, doc = run_cli(capsys, "limit-quadric", "--g", "4", "--q", str(path))
    assert code == 0 and doc["payload"]["degenerate"] is True


def test_limit_relation_ideal_square_element(capsys):
    # (u0 u2 - u1^2)^2 lies in the ideal square, so phi_4 kills it
    sq = [{"u": [2, 0, 2], "v": [0], "c": "1"},
          {"u": [1, 2, 1], "v": [0], "c": "-2"},
          {"u": [0, 4, 0], "v": [0], "c": "1"}]
    code, doc = run_cli(capsys, "limit-relation", "--g", "3", "--d", "4",
                        "--poly", json.dumps(sq))
    assert code == 0
    p = doc["payload"]
    assert p["limit"] is True and p["rank"] == 0
    assert p["witness_lambda"] is not None


def test_limit_relation_multiple_of_nondegenerate_quadric(capsys):
    # u_0 * (u0u2 - u1^2 + u1u3 - u2^2) at g=4: both quadric summands come
    # from the identity q, which is nondegenerate, so the cubic is no limit
    cubic = [{"u": [2, 0, 1, 0], "v": [0, 0], "c": "1"},
             {"u": [1, 2, 0, 0], "v": [0, 0], "c": "-1"},
             {"u": [1, 1, 0, 1], "v": [0, 0], "c": "1"},
             {"u": [1, 0, 2, 0], "v": [0, 0], "c": "-1"}]
    code, doc = run_cli(capsys, "limit-relation", "--g", "4", "--d", "3",
                        "--poly", json.dumps(cubic))
    assert code == 0
    assert doc["payload"]["limit"] is False
    assert doc["payload"]["rank"] == 2


def test_limit_relation_rejects_outside_ideal(capsys):
    code, doc = run_cli(capsys, "limit-relation", "--g", "4", "--d", "2",
                        "--poly", '[{"u":[2,0,0,0],"v":[0,0],"c":"1"}]')
    assert code == 1
    assert doc["payload"]["message"] == "not a canonical relation"

    # v-terms are outside the coordinate ring of the ambient space
    code, doc = run_cli(capsys, "limit-relation", "--g", "4", "--d", "2",
                        "--poly", '[{"u":[0,0,0,0],"v":[1,0],"c":"1"}]')
    assert code == 1
    assert doc["payload"]["message"] == "not a canonical relation"


def test_unhandled_input_errors_end_in_one_error_document(capsys):
    # a bare number list is no term list
    code, doc = run_cli(capsys, "limit-relation", "--g", "3", "--poly", "[1,2]")
    assert code == 1
    assert doc["status"] == "error"
    assert doc["payload"]["message"].startswith("TypeError: ")
    code, doc = run_cli(capsys, "limit-quadric", "--g", "4", "--q", "[[1,0],[0,1e400]]")
    assert code == 1
    assert doc["status"] == "error"
    assert doc["payload"]["message"].startswith("JSON number 1e400 is not exact")


def test_argument_errors_end_in_one_error_document(capsys):
    for argv, words in (((), "required"),
                        (("verify", "--suite", "nope"), "invalid choice"),
                        (("limit-quadric", "--g", "x", "--q", "[[1]]"), "invalid int value")):
        code = main(list(argv))
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 1, argv
        assert doc["status"] == "error" and words in doc["payload"]["message"], argv
        assert "usage:" not in captured.err


def test_help_still_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ribbonlab verify")


def test_unwritable_json_out_ends_in_an_error_document(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code, doc = run_cli(capsys, "limit-quadric", "--g", "3", "--q", "[[1]]",
                        "--json-out", str(path))
    assert code == 1
    assert doc["status"] == "error"
    assert doc["payload"]["message"].startswith("cannot write --json-out")
    assert not path.exists()


def test_json_floats_are_rejected_by_name(tmp_path, capsys):
    poly = '[{"u":[1,1,0,0],"v":[0,0],"c":0.5}]'
    path = tmp_path / "q.json"
    path.write_text("[[1,0],[0,-Infinity]]")
    for argv, literal in (
            (["limit-relation", "--g", "4", "--d", "2", "--poly", poly], "0.5"),
            (["limit-quadric", "--g", "4", "--q", "[[1,0],[0,1.5]]"], "1.5"),
            (["limit-quadric", "--g", "4", "--q", "[[1,0],[0,NaN]]"], "NaN"),
            (["limit-quadric", "--g", "4", "--q", str(path)], "-Infinity")):
        code, doc = run_cli(capsys, *argv)
        assert code == 1
        assert doc["status"] == "error"
        assert doc["payload"]["message"] == (
            'JSON number %s is not exact; write it as an integer or a "p/q" string'
            % literal)
    # exact spellings of the same numbers still work
    code, doc = run_cli(capsys, "limit-quadric", "--g", "4", "--q", '[[1,0],[0,"3/2"]]')
    assert code == 0 and doc["payload"]["det"] == "3/2"


def test_discriminant_item_passes_at_former_failing_seeds():
    # at these seeds a random "generic" form used to have a repeated factor
    items = [item for item in suites.families_items(5, 2)
             if item[0] is suites.discriminant_zero_iff_square_factor]
    assert [params["g"] for _, params in items] == [3, 4, 5]
    for seed in (10, 25, 44):
        results = suites.run_items("families", items, seed)
        assert all(r["pass"] for r in results), (seed, results)


def test_verify_small_suites_pass(capsys):
    for suite in ("rnc", "fitting"):
        code, doc = run_cli(capsys, "verify", "--suite", suite,
                            "--gmax", "4", "--dmax", "4", "--seed", "5")
        assert code == 0
        p = doc["payload"]
        assert p["all_pass"] is True
        assert p["seed"] == 5
        assert p["total"] == p["passed"] > 0
        for item in p["suites"][suite]:
            assert item["counterexample"] is None


def test_verify_families_suite_passes(capsys):
    code, doc = run_cli(capsys, "verify", "--suite", "families",
                        "--gmax", "4", "--dmax", "3", "--seed", "11")
    assert code == 0
    assert doc["payload"]["all_pass"] is True
    found = [i for i in doc["payload"]["suites"]["families"]
             if i["property"] == "order_doubling" and i["params"]["d"] == 3]
    assert found and all(i["detail"]["ribbon_order"] == 6 for i in found)


def test_verify_rerun_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suite", "xg", "--gmax", "3", "--dmax", "3",
            "--seed", "7", "--quiet"]
    assert main(args + ["--json-out", str(a)]) == 0
    assert main(args + ["--json-out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert capsys.readouterr().out == ""  # --quiet keeps stdout empty


def test_verify_rejects_bad_ranges(capsys):
    code, doc = run_cli(capsys, "verify", "--suite", "rnc", "--gmax", "2")
    assert code == 1 and doc["status"] == "error"


def test_cost_guard_refuses_large_slices_before_building(capsys, monkeypatch):
    def built(*args):
        raise AssertionError("work started before the cost guard")

    monkeypatch.setattr(cli, "run_items", built)
    monkeypatch.setattr(cli, "_load_json_arg", built)
    for argv in (["verify", "--gmax", "40"],
                 ["verify", "--suite", "rnc", "--gmax", "5", "--dmax", "17"],
                 ["limit-relation", "--g", "13", "--d", "5", "--poly", "[]"],
                 ["limit-relation", "--g", "10000000000", "--d", "10000000000",
                  "--poly", "[]"]):
        code, doc = run_cli(capsys, *argv)
        assert code == 1 and doc["status"] == "error"
        assert "cost guard allows at most %d" % cli.MAX_SLICE_MONOMIALS in doc["payload"]["message"]
    # without --d the degree is the polynomial's, checked once it is read
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_SLICE_MONOMIALS", 5)
    poly = json.dumps([{"u": [1, 0, 1], "v": [0], "c": "1"},
                       {"u": [0, 2, 0], "v": [0], "c": "-1"}])
    code, doc = run_cli(capsys, "limit-relation", "--g", "3", "--poly", poly)
    assert code == 1 and "g=3, d=2" in doc["payload"]["message"]


def test_family_cost_guard_refuses_before_building(capsys, monkeypatch):
    def built(*args):
        raise AssertionError("work started before the cost guard")

    for name in ("constant_family", "perturb_hyperelliptic", "split_ribbon_ideal",
                 "hyperelliptic_model", "_load_json_arg"):
        monkeypatch.setattr(cli, name, built)
    degree_12 = json.dumps([1] * 13)
    for argv in (["--g", "5", "--d", "1000000", "--h", degree_12],
                 ["--g", "5", "--model", "split", "--order-bound", "100000000"],
                 ["--g", "3000", "--model", "split"]):
        started = time.perf_counter()
        code, doc = run_cli(capsys, "family", "build", *argv)
        assert time.perf_counter() - started < 1.0, argv
        assert code == 1 and doc["status"] == "error"
        assert "cost guard allows at most %d" % cli.MAX_FAMILY_SLOTS in doc["payload"]["message"]


def _bench_module(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cost_guard_admits_defaults_and_benchmark_sizes(capsys, tmp_path):
    # the benchmark's verify job runs verify's defaults, gmax 5 and dmax 4,
    # and its relations jobs every size in RELATION_SIZES
    workloads = _bench_module("workloads")
    rng = random.Random(1)
    jobs = (workloads.verify_cycle(rng, str(tmp_path), 0, 1)
            + workloads.relations_cycle(rng, str(tmp_path), 0, 1))
    for job in jobs:
        main(list(job.args))
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["status"] == "ok" and job.check(doc["payload"]) is None
        if job.args[0] == "verify":
            # the verify bytes at seed 1 are the ones the benchmark pins
            digests = json.loads((BENCH / "digests.json").read_text())
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digests["verify"][0]
    poly = json.dumps([{"u": [1, 0, 1], "v": [0], "c": "1"},
                       {"u": [0, 2, 0], "v": [0], "c": "-1"}])
    code, doc = run_cli(capsys, "limit-relation", "--g", "3", "--poly", poly)
    assert code == 0 and doc["payload"]["d"] == 2


def test_family_pipeline_round_trip(tmp_path, capsys):
    octic = json.dumps([1, 0, 0, 0, 0, 0, 0, 0, 1])
    code, doc = run_cli(capsys, "family", "build", "--g", "3", "--d", "1",
                        "--h", octic, "--seed", "3")
    assert code == 0
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(doc["payload"]["family"]))

    code, doc = run_cli(capsys, "family", "rescale", "--family", str(fam),
                        "--k", "1")
    assert code == 0
    scaled = tmp_path / "scaled.json"
    scaled.write_text(json.dumps(doc["payload"]["family"]))

    code, doc = run_cli(capsys, "family", "order", "--family", str(scaled))
    assert code == 0
    assert doc["payload"]["ribbon_order"] == 2
    assert doc["payload"]["ribbon_order_display"] == "2"

    code, doc = run_cli(capsys, "family", "discriminant", "--family", str(scaled))
    assert code == 0
    assert doc["payload"]["section"]["s"]["coeffs"] == \
        ["1", "0", "0", "0", "0", "0", "0", "0", "1"]
    assert doc["payload"]["binary_discriminant"] != "0"


def test_family_constant_split_order_display(tmp_path, capsys):
    code, doc = run_cli(capsys, "family", "build", "--g", "3",
                        "--model", "split", "--order-bound", "6")
    assert code == 0
    fam = tmp_path / "split.json"
    fam.write_text(json.dumps(doc["payload"]["family"]))
    code, doc = run_cli(capsys, "family", "order", "--family", str(fam))
    assert code == 0
    assert doc["payload"]["ribbon_order_display"] == ">= 6"
    assert doc["payload"]["hyperelliptic_order_display"] == ">= 6"


def test_family_rescale_reports_inexact_division(tmp_path, capsys):
    octic = json.dumps([1, 0, 0, 0, 0, 0, 0, 0, 1])
    code, doc = run_cli(capsys, "family", "build", "--g", "3", "--d", "1",
                        "--h", octic)
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(doc["payload"]["family"]))
    code, doc = run_cli(capsys, "family", "rescale", "--family", str(fam),
                        "--k", "2")
    assert code == 1
    assert "does not admit the rescaling" in doc["payload"]["message"]


def test_family_build_refuses_order_bound_zero_and_genus_two(capsys):
    octic = json.dumps([1, 0, 0, 0, 0, 0, 0, 0, 1])
    for model in ("split", "hyperelliptic", "perturbed"):
        code, doc = run_cli(capsys, "family", "build", "--g", "3", "--model", model,
                            "--h", octic, "--order-bound", "0")
        assert code == 1 and doc["status"] == "error", model
    # below g = 3 no nonzero ribbon direction exists to draw
    code, doc = run_cli(capsys, "family", "build", "--g", "2", "--h", "[1,0,0,0,0,0,1]")
    assert code == 1 and doc["payload"]["message"] == "g must be at least 3"


def test_family_document_with_a_huge_or_small_genus_is_refused(capsys):
    # the UU count is checked before the key lists of the claimed genus are built
    for g, message in ((10 ** 9, "UU keys must be the standard list for g=%d" % 10 ** 9),
                       (2, "genus must be at least 3")):
        family = json.dumps({"g": g, "order_bound": 1, "UU": [], "UV": [], "VV": []})
        code, doc = run_cli(capsys, "family", "order", "--family", family)
        assert code == 1 and doc["payload"]["message"] == message


def test_family_build_requires_h(capsys):
    code, doc = run_cli(capsys, "family", "build", "--g", "3")
    assert code == 1
    assert "--h" in doc["payload"]["message"]


def test_build_is_deterministic_per_seed(capsys):
    decic = json.dumps([1] + [0] * 9 + [1])  # degree 2g+2 = 10 at g=4
    _, doc1 = run_cli(capsys, "family", "build", "--g", "4", "--d", "1",
                      "--h", decic, "--seed", "9")
    _, doc2 = run_cli(capsys, "family", "build", "--g", "4", "--d", "1",
                      "--h", decic, "--seed", "9")
    assert doc1 == doc2
    _, doc3 = run_cli(capsys, "family", "build", "--g", "4", "--d", "1",
                      "--h", decic, "--seed", "10")
    assert doc1["payload"]["family"] != doc3["payload"]["family"]


def _mutated(doc, steps, value):
    """A copy of doc with the node that steps lead to replaced by value."""
    if not steps or not isinstance(doc, (list, dict)) or not doc:
        return value
    keys = list(doc) if isinstance(doc, dict) else list(range(len(doc)))
    key = keys[steps[0] % len(keys)]
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[key] = _mutated(doc[key], steps[1:], value)
    return out


def test_fuzzed_json_arguments_end_in_one_document(tmp_path, monkeypatch, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.chdir(tmp_path)  # a malformed argument read as a path finds nothing
    octic = json.dumps([1, 0, 0, 0, 0, 0, 0, 0, 1])
    _, doc = run_cli(capsys, "family", "build", "--g", "3", "--h", octic, "--seed", "3")
    family = doc["payload"]["family"]
    (tmp_path / "fam.json").write_text(json.dumps(family))
    _, doc = run_cli(capsys, "family", "rescale", "--family", "fam.json", "--k", "1")
    seeds = {
        "limit-quadric": [[[1, 0], [0, 0]], {"g": 4, "matrix": [["1", "1/2"], ["1/2", "1"]]}],
        "limit-relation": [[{"u": [1, 0, 1, 0], "v": [0, 0], "c": "1"},
                            {"u": [0, 2, 0, 0], "v": [0, 0], "c": "-1"}]],
        "family": [family, doc["payload"]["family"]],
    }
    names = ["g", "matrix", "u", "v", "c", "order_bound", "UU", "UV", "VV",
             "key", "poly", "degree", "coeffs", "s"]
    scalars = st.one_of(
        st.integers(),
        st.builds("{}/{}".format, st.integers(-50, 50), st.integers(-5, 5)),
        st.floats(),
        st.booleans(),
        st.none(),
        st.text(max_size=4))
    values = st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.one_of(st.sampled_from(names), st.text(max_size=3)),
                        inner, max_size=5)), max_leaves=16)

    def argument(command):
        mutated = st.builds(_mutated, st.sampled_from(seeds[command]),
                            st.lists(st.integers(0, 40), max_size=6),
                            st.one_of(scalars, values))
        return st.one_of(
            st.sampled_from(seeds[command]).map(json.dumps),
            values.map(json.dumps),
            mutated.map(json.dumps),
            st.tuples(mutated.map(json.dumps), st.integers(0, 200)).map(
                lambda pair: pair[0][:pair[1]]),
            st.text(max_size=12))

    g = st.integers(3, 8).map(str)
    argvs = st.one_of(
        st.tuples(st.just("limit-quadric"), st.just("--g"), g,
                  argument("limit-quadric").map("--q={}".format)),
        st.tuples(st.just("limit-relation"), st.just("--g"), g,
                  argument("limit-relation").map("--poly={}".format)),
        st.tuples(st.just("family"), st.sampled_from(["order", "discriminant"]),
                  argument("family").map("--family={}".format)),
        st.tuples(st.just("family"), st.just("rescale"), st.just("--k"), st.just("1"),
                  argument("family").map("--family={}".format)))

    @hypothesis.settings(derandomize=True, database=None, deadline=None,
                         max_examples=150)
    @hypothesis.given(argvs)
    def check(argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code in (0, 1), argv
        assert doc["status"] in ("ok", "error"), argv
        assert (code == 0) == (doc["status"] == "ok"), argv

    check()
