import hashlib
import importlib.util
import json
import random
import re
import time
from pathlib import Path

import pytest

from ribbonlab import cli, families, suites, xg
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


def test_a_file_whose_name_starts_like_json_is_read(tmp_path, monkeypatch, capsys):
    # an argument that names an existing file is read from it, whatever its
    # first character; one that names none keeps the inline rule and message
    monkeypatch.chdir(tmp_path)
    octic = json.dumps([1, 0, 0, 0, 0, 0, 0, 0, 1])
    _, doc = run_cli(capsys, "family", "build", "--g", "3", "--h", octic, "--seed", "3")
    names = ("1.json", "-fam.json", '"fam".json')
    for name in names:
        (tmp_path / name).write_text(json.dumps(doc["payload"]["family"]))
    want = run_cli(capsys, "family", "order", "--family", "./1.json")
    assert want[0] == 0
    for name in names:
        assert run_cli(capsys, "family", "order", "--family=" + name) == want, name
    (tmp_path / "1.json").write_text(json.dumps([[1, 0], [0, 0]]))
    code, doc = run_cli(capsys, "limit-quadric", "--g", "4", "--q", "1.json")
    assert code == 0 and doc["payload"]["degenerate"] is True
    code, doc = run_cli(capsys, "family", "order", "--family", "3fam.json")
    assert code == 1
    assert doc["payload"]["message"].startswith("inline JSON is malformed: Extra data")


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

    # an inhomogeneous relation is refused alike, whether or not --d is given
    inhomogeneous = '[{"u":[2,0,0,0],"v":[0,0],"c":"1"},{"u":[1,0,0,0],"v":[0,0],"c":"1"}]'
    for d in (["--d", "2"], []):
        code, doc = run_cli(capsys, "limit-relation", "--g", "4", *d, "--poly", inhomogeneous)
        assert code == 1
        assert doc["payload"]["message"] == "not a canonical relation"


def test_unhandled_input_errors_end_in_one_error_document(capsys):
    # a bare number list is no term list: the parser names the bad term
    code = main(["limit-relation", "--g", "3", "--poly", "[1,2]"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 1
    assert doc["status"] == "error"
    assert doc["payload"]["message"].startswith("bad term 1: expected an object")
    assert "Traceback" not in captured.err
    code, doc = run_cli(capsys, "limit-quadric", "--g", "4", "--q", "[[1,0],[0,1e400]]")
    assert code == 1
    assert doc["status"] == "error"
    assert doc["payload"]["message"].startswith("JSON number 1e400 is not exact")


def test_malformed_header_objects_are_refused_by_name_without_a_traceback(capsys):
    cases = [
        (["limit-quadric", "--q", '{"g":3,"matrix":5}'], "the quadric matrix must be a list"),
        (["limit-quadric", "--q", '{"g":3,"matrix":[1]}'], "a matrix row must be a list"),
        (["limit-quadric", "--q", '{"matrix":[[1]]}'], "a quadric object has no key 'g'"),
        (["limit-quadric", "--q", '{"g":3}'], "a quadric object has no key 'matrix'"),
        (["limit-quadric", "--q", '{"g":[3],"matrix":[["1"]]}'], "the genus g must be an integer"),
        (["family", "build", "--g", "3", "--h", '{"degree":8}'],
         "a binary form object has no key 'coeffs'"),
        (["family", "build", "--g", "3", "--h", '{"coeffs":["1"]}'],
         "a binary form object has no key 'degree'"),
        (["family", "build", "--g", "3", "--h", '{"degree":8,"coeffs":"1"}'],
         "the coeffs must be a list"),
        (["family", "build", "--g", "3", "--h", '{"degree":null,"coeffs":[]}'],
         "the degree must be an integer"),
    ]
    for argv, message in cases:
        code = main(argv)
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 1 and doc["status"] == "error", argv
        assert doc["payload"]["message"].startswith(message), argv
        assert "Traceback" not in captured.err, argv


def test_malformed_terms_are_refused_by_name_without_a_traceback(capsys):
    good = {"u": [1, 0, 1], "v": [0], "c": "1"}
    for term in ({"u": [1, 0, 1], "v": [0]}, {"u": [1, 0, 1], "v": [True], "c": "1"},
                 {"u": "101", "v": [0], "c": "1"}, [1, 0, 1], None):
        code = main(["limit-relation", "--g", "3", "--poly", json.dumps([good, term])])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 1 and doc["status"] == "error", term
        assert doc["payload"]["message"].startswith("bad term %r" % (term,)), term
        assert "Traceback" not in captured.err


def test_truncated_coefficients_are_refused_in_a_relation(capsys):
    # the coefficient c of a relation over Q is read as a rational, so a digit
    # list is refused by name before phi_d is built
    term = {"u": [1, 0, 1], "v": [0], "c": ["1", "2"]}
    poly = json.dumps([term, {"u": [0, 2, 0], "v": [0], "c": ["-1", "-2"]}])
    code = main(["limit-relation", "--g", "3", "--poly", poly])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 1 and doc["status"] == "error"
    assert doc["payload"]["message"] == \
        'c must be an integer or a rational string such as "p/q", got %r' % (term["c"],)
    assert re.fullmatch(r"elapsed \d+\.\d ms\n", captured.err)


def test_repeated_monomials_are_summed(capsys):
    # u0 u2 - u1^2 with its u0 u2 term split in two reads as the merged relation
    def stdout(poly):
        main(["limit-relation", "--g", "3", "--d", "2", "--poly", poly])
        return capsys.readouterr().out

    merged = _terms(([1, 0, 1], "1"), ([0, 2, 0], "-1"))
    split = _terms(([1, 0, 1], "2"), ([0, 2, 0], "-1"), ([1, 0, 1], "-1"))
    assert json.loads(stdout(merged))["status"] == "ok"
    assert stdout(split) == stdout(merged)
    cancelled = _terms(([1, 0, 1], "1"), ([1, 0, 1], "-1"))
    assert json.loads(stdout(cancelled))["payload"]["message"] == \
        "the zero polynomial is not a canonical relation"


def test_booleans_and_zero_denominators_are_refused(capsys):
    code, doc = run_cli(capsys, "limit-quadric", "--g", "4", "--q", "[[1,0],[0,true]]")
    assert code == 1 and doc["status"] == "error"
    assert doc["payload"]["message"] == \
        'a matrix entry must be an integer or a rational string such as "p/q", got True'
    poly = json.dumps([{"u": [1, 0, 1], "v": [0], "c": "1/0"}])
    code, doc = run_cli(capsys, "limit-relation", "--g", "3", "--poly", poly)
    assert code == 1 and doc["status"] == "error"
    assert doc["payload"]["message"] == "c: zero denominator in '1/0'"
    code, doc = run_cli(capsys, "limit-quadric", "--g", "4", "--q", '[[1,0],[0,"2/0"]]')
    assert code == 1 and doc["payload"]["message"] == "a matrix entry: zero denominator in '2/0'"


# SHA-256 of the `verify --suite all --gmax 5 --dmax 4` stdout at seeds 1-5;
# seed 1 is also pinned by bench/digests.json
VERIFY_DIGESTS = {
    1: "e93479bbe0585f6c11508ebf4301ac2c1f4dbeca0c99f80d41eee27924dbf59f",
    2: "9e613db90a40c50b046779a7daf68cbb3f4f7ce41fefe9275c41ce04e4b4bbd8",
    3: "55e0df8e5c1b4d4d38c231f8cb55b1775cdcdab8bb93b0d6ddbea111fd959f7e",
    4: "b24f2bdb5d7d32a4f75970688e984a2ba91aa7ecb62960bab42baa05d3e9633a",
    5: "aea116f517d8bc9766fffae6595823fec46dd338d32f60f42d73b72164aec269",
}


def test_verify_bytes_are_pinned_at_seeds_1_to_5(capsys):
    for seed, digest in VERIFY_DIGESTS.items():
        main(["verify", "--suite", "all", "--gmax", "5", "--dmax", "4", "--seed", str(seed)])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, seed


# SHA-256 of the stdout of `family build --g 4 --d 1 --h FAMILY_H --seed 3` and
# of rescale --k 1, order and discriminant on the family it builds
FAMILY_H = json.dumps([1, -2, 0, 3, 0, 0, 1, 0, -1, 2, 1])
FAMILY_DIGESTS = {
    "build": "b2b828269582e1d15940ea6b1c1f048b78c4fd05b15eb90a2db55807f08a447c",
    "rescale": "3f85f2501ce2a7b8b52d95a5901bf12ffa58f8daee46872918e0ae24c49e8c39",
    "order": "bfe406978179ef64a0bd3e3273bc129af621dd7cf28d29c27fe62cba0b7b64b5",
    "discriminant": "3e2ce4d92da04ec5d94cea10c043460a89130139204700387ccd44e16273ea84",
}


def test_family_bytes_are_pinned(tmp_path, capsys):
    def digest(*argv):
        assert main(list(argv)) == 0, argv
        out = capsys.readouterr().out
        return json.loads(out), hashlib.sha256(out.encode("utf-8")).hexdigest()

    doc, got = digest("family", "build", "--g", "4", "--d", "1", "--h", FAMILY_H,
                      "--seed", "3")
    assert got == FAMILY_DIGESTS["build"]
    built = tmp_path / "built.json"
    built.write_text(json.dumps(doc["payload"]["family"]))
    for action, extra in (("rescale", ["--k", "1"]), ("order", []), ("discriminant", [])):
        _, got = digest("family", action, "--family", str(built), *extra)
        assert got == FAMILY_DIGESTS[action], action


def _terms(*terms):
    return json.dumps([{"u": u, "v": [0] * (len(u) - 2), "c": c} for u, c in terms])


# SHA-256 of the stdout of limit-quadric on a degenerate and a nondegenerate
# quadric, and of limit-relation at d = 2 (d inferred, with a witness), d = 3
# and d = 4 (both with --d)
LIMIT_DIGESTS = (
    (("limit-quadric", "--g", "4", "--q", "[[1,0],[0,0]]"),
     "ad4617f109c9b3834c0b2744cecedd9d85391ffedc5fca6a2889afb27f2f5082"),
    (("limit-quadric", "--g", "4", "--q", '[["1","1/2"],["1/2","1"]]'),
     "e583298766642958c243dce4944217f1e0e320553412d8483890c3c182bcebb3"),
    (("limit-relation", "--g", "5", "--poly",
      _terms(([1, 0, 1, 0, 0], "1"), ([0, 2, 0, 0, 0], "-1"))),
     "c764b2f89ec4659dbc07504eb63b656e07de98aa9edfa2e527ce4f5e31ac042f"),
    (("limit-relation", "--g", "4", "--d", "3", "--poly",
      _terms(([2, 0, 1, 0], "1"), ([1, 2, 0, 0], "-1"), ([1, 1, 0, 1], "1"),
             ([1, 0, 2, 0], "-1"))),
     "a854753f0e9291dc6fcdca4abf2f1b7a9fa59f1f183436472b7ce51e620ef5c5"),
    # u0 u3 (u0 u2 - u1^2) + u1 u4 (u1 u3 - u2^2) / 2 - 2 u0 u4 (u0 u2 - u1^2) / 3
    (("limit-relation", "--g", "5", "--d", "4", "--poly",
      _terms(([0, 2, 0, 1, 1], "1/2"), ([0, 1, 2, 0, 1], "-1/2"), ([2, 0, 1, 0, 1], "-2/3"),
             ([1, 2, 0, 0, 1], "2/3"), ([2, 0, 1, 1, 0], "1"), ([1, 2, 0, 1, 0], "-1"))),
     "6a3a358a812521e8cc9c6b8b6239234529c23957ccaad9d3fc26b6438fc6f997"),
)


def test_limit_command_bytes_are_pinned(capsys):
    for argv, digest in LIMIT_DIGESTS:
        assert main(list(argv)) == 0, argv
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, argv


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


def test_suite_choices_come_from_the_suite_names(capsys):
    # the parser lists the suites from a constant, without importing them
    assert cli.SUITE_NAMES == tuple(sorted(suites.SUITES))
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    usage = capsys.readouterr().out
    assert "[--suite {%s}]" % ",".join(sorted(suites.SUITES) + ["all"]) in usage
    code, doc = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 1 and doc["status"] == "error"
    assert "argument --suite: invalid choice: 'nope'" in doc["payload"]["message"]


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

    # the handlers import what they run when called, so a patch on the
    # defining module is what they would call
    monkeypatch.setattr(suites, "run_items", built)
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

    for module, name in ((families, "constant_family"), (families, "perturb_hyperelliptic"),
                         (xg, "split_ribbon_ideal"), (xg, "hyperelliptic_model"),
                         (cli, "_load_json_arg")):
        monkeypatch.setattr(module, name, built)
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


def test_family_rescale_refuses_a_generator_it_empties(tmp_path, capsys):
    # VV (0, 0) is the pure-u quartic u0^4 with only a constant digit: k = 1
    # shifts that digit to pi^2, past the new bound 2, and leaves VV (0, 0) zero
    doc = families.constant_family(xg.split_ribbon_ideal(3), 3).to_json()
    doc["VV"][0]["poly"] = [{"u": [4, 0, 0], "v": [0], "c": ["1", "0", "0"]}]
    assert families.TruncatedFamily.from_json(doc).VV[0][1]
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "family", "rescale", "--family", str(fam), "--k", "1")
    assert code == 1 and out["status"] == "error"
    assert out["payload"]["message"] == \
        "VV generator (0, 0) must be weighted-homogeneous of degree 4"


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


def test_family_build_refuses_a_coefficient_entry_by_name(capsys):
    for entry, shown in (("true", "True"), ("null", "None"), ("[2]", "[2]"), ("{}", "{}")):
        h = "[1,0,0,%s,0,0,0,0,1]" % entry
        code = main(["family", "build", "--g", "3", "--model", "hyperelliptic", "--h", h])
        out, err = capsys.readouterr()
        assert code == 1 and "Traceback" not in err, entry
        assert json.loads(out) == {"status": "error", "payload": {
            "message": 'a coefficient must be an integer or a rational string such as '
                       '"p/q", got %s' % shown}}


def test_family_documents_are_read_by_the_named_readers(capsys):
    base = {"g": 3, "order_bound": 1, "UU": [], "UV": [], "VV": []}
    for change, message in (({"g": True}, "the genus g must be an integer, got True"),
                            ({"g": "x"}, "the genus g must be an integer, got 'x'"),
                            ({"UU": [5]}, "a UU generator must be a JSON object"),
                            ({"UU": [{"key": [0, 0]}]}, "a UU generator has no key 'poly'"),
                            ({"UU": [{"key": 0, "poly": []}]}, "a key must be a list, got 0"),
                            ({"UU": [{"key": [0, 0], "poly": 1}]},
                             "a poly must be a list, got 1")):
        family = json.dumps({**base, **change})
        code = main(["family", "order", "--family", family])
        out, err = capsys.readouterr()
        assert code == 1 and "Traceback" not in err, change
        assert json.loads(out)["payload"]["message"] == message
    code, doc = run_cli(capsys, "family", "order", "--family", "[]")
    assert doc["payload"]["message"] == "a family object must be a JSON object"


def test_family_document_mixing_a_series_and_a_rational_is_refused(tmp_path, capsys):
    # one monomial listed with a digit list and with a rational string: every
    # coefficient of a family is a truncated series, so every family command
    # refuses the rational by name
    doc = families.constant_family(xg.split_ribbon_ideal(3), 3).to_json()
    term = doc["VV"][0]["poly"][0]
    doc["VV"][0]["poly"][0:1] = [term, dict(term, c="1")]
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(doc))
    for command in (["order"], ["rescale", "--k", "1"], ["discriminant"]):
        code = main(["family"] + command + ["--family", str(fam)])
        out, err = capsys.readouterr()
        assert code == 1 and "Traceback" not in err, command
        assert json.loads(out) == {"status": "error", "payload": {
            "message": "a truncated series must be a list, got '1'"}}, command


def test_family_generator_of_the_wrong_degree_is_refused_by_name(capsys):
    # a homogeneous generator of the wrong weighted degree and an
    # inhomogeneous one end in the same named refusal, with no traceback
    doc = families.constant_family(xg.split_ribbon_ideal(3), 2).to_json()
    v0_squared = doc["VV"][0]["poly"][0]
    for poly in ([{"u": [3, 0, 0], "v": [0], "c": ["1", "0"]}],
                 [v0_squared, {"u": [1, 0, 0], "v": [0], "c": ["1", "0"]}]):
        doc["VV"][0]["poly"] = poly
        code = main(["family", "order", "--family", json.dumps(doc)])
        out, err = capsys.readouterr()
        assert code == 1 and "Traceback" not in err, poly
        assert json.loads(out) == {"status": "error", "payload": {
            "message": "VV generator (0, 0) must be weighted-homogeneous of degree 4"}}, poly


def test_json_documents_take_integer_rationals(tmp_path, capsys):
    # an integer is as exact as its string: a term coefficient, a matrix
    # entry, a form coefficient and a family digit all read either spelling
    def stdout(*argv):
        assert main(list(argv)) == 0, argv
        return capsys.readouterr().out

    relation = [{"u": [1, 0, 1], "v": [0], "c": 1}, {"u": [0, 2, 0], "v": [0], "c": -1}]
    quadric = {"g": 3, "matrix": [[1]]}
    h = {"degree": 8, "coeffs": [1, 0, 0, 0, 0, 0, 0, 0, 1]}
    for argv, as_ints, as_strings in (
            (["limit-relation", "--g", "3", "--poly"], relation,
             [dict(t, c=str(t["c"])) for t in relation]),
            (["limit-quadric", "--q"], quadric, {"g": 3, "matrix": [["1"]]}),
            (["family", "build", "--g", "3", "--model", "hyperelliptic", "--h"], h,
             {"degree": 8, "coeffs": [str(c) for c in h["coeffs"]]})):
        assert stdout(*argv, json.dumps(as_ints)) == stdout(*argv, json.dumps(as_strings))
    family = json.loads(stdout("family", "build", "--g", "3", "--d", "1", "--h",
                               json.dumps(h)))["payload"]["family"]
    with_ints = json.loads(json.dumps(family))
    for group in ("UU", "UV", "VV"):
        for generator in with_ints[group]:
            for term in generator["poly"]:
                term["c"] = [int(x) if "/" not in x else x for x in term["c"]]
    assert with_ints != family
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(family))
    fam_ints = tmp_path / "fam_ints.json"
    fam_ints.write_text(json.dumps(with_ints))
    assert stdout("family", "order", "--family", str(fam_ints)) == \
        stdout("family", "order", "--family", str(fam))


def test_json_rationals_refuse_booleans_and_floats_by_name(capsys):
    for argv, message in (
            (["limit-relation", "--g", "3", "--poly", '[{"u":[2,0,0],"v":[0],"c":true}]'],
             'c must be an integer or a rational string such as "p/q", got True'),
            (["limit-quadric", "--q", '{"g":3,"matrix":[[false]]}'],
             'a matrix entry must be an integer or a rational string such as "p/q", got False'),
            (["family", "build", "--g", "3", "--h",
              '{"degree":8,"coeffs":[true,0,0,0,0,0,0,0,1]}'],
             'a coefficient must be an integer or a rational string such as "p/q", got True'),
            (["family", "order", "--family", json.dumps(
                {"g": 3, "order_bound": 1, "UU": [], "UV": [], "VV": [
                    {"key": [0, 0], "poly": [{"u": [0, 0, 0], "v": [2], "c": [True]}]}]})],
             'a truncated series digit must be an integer or a rational string such as '
             '"p/q", got True'),
            (["limit-quadric", "--q", '{"g":3,"matrix":[[1.5]]}'],
             'JSON number 1.5 is not exact; write it as an integer or a "p/q" string')):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and "Traceback" not in err, argv
        assert json.loads(out) == {"status": "error", "payload": {"message": message}}, argv


# Each rational-bearing field of the CLI documents, as (argv with the entry
# at %s, the name its refusals carry); the bare and the object form of --q
# and --h go through the same from_json reader.
RATIONAL_FIELDS = {
    "bare --q": (["limit-quadric", "--g", "4", "--q", "[[1,0],[0,%s]]"], "a matrix entry"),
    "object --q": (["limit-quadric", "--q", '{"g":4,"matrix":[[1,0],[0,%s]]}'],
                   "a matrix entry"),
    "bare --h": (["family", "build", "--g", "3", "--model", "hyperelliptic",
                  "--h", "[1,0,0,%s,0,0,0,0,1]"], "a coefficient"),
    "object --h": (["family", "build", "--g", "3", "--model", "hyperelliptic",
                    "--h", '{"degree":8,"coeffs":[1,0,0,%s,0,0,0,0,1]}'], "a coefficient"),
    "--poly c": (["limit-relation", "--g", "3", "--poly",
                  '[{"u":[1,0,1],"v":[0],"c":%s},{"u":[0,2,0],"v":[0],"c":"-1"}]'], "c"),
    "family digit": (["family", "order", "--family", json.dumps(
        {"g": 3, "order_bound": 2, "UU": [], "UV": [], "VV": [
            {"key": [0, 0], "poly": [{"u": [0, 0, 0], "v": [2], "c": ["1", "%s"]}]}]}
    ).replace('"%s"', "%s")], "a truncated series digit"),
}


@pytest.mark.parametrize("entry", ["true", "null", "[2]", "{}", '"1_0"'])
@pytest.mark.parametrize("field", sorted(RATIONAL_FIELDS))
def test_every_rational_field_refuses_a_bad_entry_by_name(capsys, field, entry):
    template, name = RATIONAL_FIELDS[field]
    code = main([arg.replace("%s", entry) for arg in template])
    out, err = capsys.readouterr()
    assert code == 1 and "Traceback" not in err
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert re.match(re.escape(name) + "( must be |: )", doc["payload"]["message"]), doc


# Each integer field of the CLI documents, as (argv with the entry at %s, the
# name its refusals carry); strings are held to the rational fields' literal
# rule, so "1_0" and Arabic-Indic digits are refused by name, not read as 10
# and 3.
def _family_document(g="3", bound="2", key_entry="0"):
    """The g=3 split family of order bound 2, with g, order_bound and the
    second entry of the VV key spelled as given (JSON text)."""
    doc = families.constant_family(xg.split_ribbon_ideal(3), 2).to_json()
    doc.update(g="G", order_bound="B")
    doc["VV"][0]["key"][1] = "K"
    return (json.dumps(doc).replace('"G"', g).replace('"B"', bound)
            .replace('"K"', key_entry))


INTEGER_FIELDS = {
    "quadric g": (["limit-quadric", "--q", '{"g":%s,"matrix":[[1]]}'], "the genus g"),
    "binary form degree": (["family", "build", "--g", "3", "--model", "hyperelliptic",
                            "--h", '{"degree":%s,"coeffs":[1,0,0,0,0,0,0,0,1]}'],
                           "the degree"),
    "family g": (["family", "order", "--family", _family_document(g="%s")],
                 "the genus g"),
    "family order bound": (["family", "order", "--family", _family_document(bound="%s")],
                           "the order bound"),
    "family key entry": (["family", "order", "--family", _family_document(key_entry="%s")],
                         "a key entry"),
}


@pytest.mark.parametrize("entry", ["true", "null", "[2]", "{}", '"x"', '"1_0"',
                                   '"\u0663"', '"3e0"'])
@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_every_integer_field_refuses_a_bad_entry_by_name(capsys, field, entry):
    template, name = INTEGER_FIELDS[field]
    code = main([arg.replace("%s", entry) for arg in template])
    out, err = capsys.readouterr()
    assert code == 1 and "Traceback" not in err
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert re.match(re.escape(name) + "( must be an integer, got |: )",
                    doc["payload"]["message"]), doc


def test_integer_fields_read_plain_integer_strings(capsys):
    # the valid spellings of the documents above: an int, or an ASCII integer string
    for entry in ("3", '"3"', '" +3 "'):
        code, doc = run_cli(capsys, "family", "order", "--family", _family_document(g=entry))
        assert code == 0 and doc["payload"]["g"] == 3, entry
        code, doc = run_cli(capsys, "limit-quadric", "--q",
                            '{"g":%s,"matrix":[[1]]}' % entry)
        assert code == 0 and doc["payload"]["g"] == 3, entry


def test_bad_bare_documents_name_their_argument_and_accepted_forms(capsys):
    cases = [
        (["family", "build", "--g", "3", "--model", "hyperelliptic", "--h", "[]"],
         "--h must be a nonempty coefficient list or a {degree, coeffs} object, got []"),
        (["family", "build", "--g", "3", "--model", "hyperelliptic", "--h", "5"],
         "--h must be a nonempty coefficient list or a {degree, coeffs} object, got 5"),
        (["limit-quadric", "--q", "5"],
         "--q must be a bare matrix (a list of rows, with --g) or a {g, matrix} object, "
         "got 5"),
    ]
    for argv, message in cases:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1 and "Traceback" not in err, argv
        assert json.loads(out) == {"status": "error", "payload": {"message": message}}, argv


def test_an_unforeseen_exception_ends_in_one_error_document(tmp_path, monkeypatch, capsys):
    # the last-resort branch: exit 1 and one document naming the exception
    # type; the traceback goes to stderr unless --quiet
    def boom(args):
        raise RuntimeError("handler failed")

    monkeypatch.setattr(cli, "cmd_limit_quadric", boom)
    code = main(["limit-quadric", "--g", "3", "--q", "[[1]]"])
    out, err = capsys.readouterr()
    assert code == 1
    assert json.loads(out) == {"status": "error",
                               "payload": {"message": "RuntimeError: handler failed"}}
    assert "Traceback" in err and "RuntimeError: handler failed" in err
    path = tmp_path / "out.json"
    code = main(["limit-quadric", "--g", "3", "--q", "[[1]]", "--quiet",
                 "--json-out", str(path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and err == ""
    doc = json.loads(path.read_text())
    assert doc["status"] == "error"
    assert doc["payload"]["message"].startswith("RuntimeError: ")


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
        "binary form": [[1, 0, 0, 0, 0, 0, 0, 0, 1],
                        {"degree": 8, "coeffs": ["1", "0", "0", "0", "0", "0", "0", "0", "1"]}],
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
                  argument("family").map("--family={}".format)),
        st.tuples(st.just("family"), st.just("build"), st.just("--g"), st.just("3"),
                  st.sampled_from(["--model=hyperelliptic", "--model=perturbed"]),
                  argument("binary form").map("--h={}".format)))

    @hypothesis.settings(derandomize=True, database=None, deadline=None,
                         max_examples=150)
    @hypothesis.given(argvs)
    def check(argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        doc = json.loads(out)
        assert "Traceback" not in err, argv
        assert code in (0, 1), argv
        assert doc["status"] in ("ok", "error"), argv
        assert (code == 0) == (doc["status"] == "ok"), argv

    check()
