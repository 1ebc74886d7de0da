"""Acceptance gate: one test per shipped guarantee of the package.

Run with `pytest -v tests/test_acceptance.py` to get a single pass/fail
line per criterion.  Every check is exact; there is no tolerance anywhere.

Criterion 05 asserts the conormal-kernel identity ker phi_d = H^0(I_C^2(d))
on the range it visits: the polynomial square (I^2)_4 in degree 4, and in
degree 3, where (I^2)_3 = 0, the span of the 3x3 catalecticant minors.  It
also asserts that the polynomial-square claim is false at (g, d) = (5, 3).

One criterion is expected to fail on the current mathematics and is left
red on purpose rather than weakened:

* criterion 08: at g = 3 both weighted models are complete intersections
  (the conic and one weighted quartic), so the only minimal split-ribbon
  syzygy is the Koszul one in degree 6, which does not fit the advertised
  schematic shapes, and the hyperelliptic model has no degree-5 minimal
  syzygy at all (the kernel is zero there).
"""

import json
from fractions import Fraction
from random import Random

from ribbonlab import (
    IdealSlice,
    WPoly,
    canonical_ribbon_ideal,
    certify_groebner,
    eliminate_v_degree,
    hilbert_function,
    hyperelliptic_model,
    ideal_slice,
    ideal_square_slice,
    is_limit_quadric,
    is_limit_relation,
    order_doubling_experiment,
    phi_d,
    phi_kernel_slice,
    psi_d,
    q_to_quadric,
    random_ribbon_ell,
    split_ribbon_ideal,
    syzygies_by_degree,
    verify_power_ideal,
)
from conormal_oracle import phi_map_matrix
from ribbonlab.cli import main
from ribbonlab.suites import (
    catalecticant_3x3_minors,
    random_degenerate_quad,
    random_quad,
    random_squarefree_form,
)


def test_criterion_01_quadric_space_dimension():
    dims = {g: ideal_slice(g, 2).dim for g in range(3, 9)}
    print("criterion 01: quadric slice dims", dims)
    assert dims == {g: (g - 1) * (g - 2) // 2 for g in range(3, 9)}


def test_criterion_02_phi2_inverts_quadric_map():
    rng = Random(201)
    for g in (3, 4, 5, 6):
        for _ in range(50):
            q = random_quad(g, rng)
            assert phi_d(q_to_quadric(q), 2) == q.mat, (g, q.to_json())
    print("criterion 02: phi_2 recovered 50 random coefficient matrices "
          "per g in 3..6")


def test_criterion_03_limit_criterion_three_way():
    rng = Random(303)
    checked = 0
    for g in (3, 4, 5, 6):
        for t in range(100):
            q = random_quad(g, rng) if t % 2 else random_degenerate_quad(g, rng)
            degenerate, witness = is_limit_quadric(q)
            assert degenerate == (q.det() == 0), (g, q.to_json())
            if q.is_zero():
                continue
            x = q_to_quadric(q)
            flag, _ = is_limit_relation(x, 2)
            assert flag == degenerate, (g, q.to_json())
            if degenerate:
                assert psi_d(witness, x, 2).is_zero(), (g, q.to_json())
            checked += 1
    print("criterion 03: det / rank / witness legs agree on %d quadrics"
          % checked)


def test_criterion_04_phi_d_surjective():
    ranks = {}
    for d in (3, 4):
        for g in (4, 5, 6):
            got = phi_map_matrix(ideal_slice(g, d)).rank()
            ranks[(g, d)] = got
            assert got == (g - 2) * ((d - 1) * (g - 1) - 1), (g, d, got)
    print("criterion 04: conormal map ranks", ranks)


def test_criterion_05_phi_kernel_is_ideal_square():
    # The conormal sequence 0 -> I_C^2 -> I_C -> N*_C -> 0 makes ker phi_d
    # the degree-d sections of the sheaf square.  In degree 4 these are the
    # polynomial square; in degree 3 the polynomial square is zero (products
    # of quadrics start in degree 4) and the sections are the secant cubics.
    mismatches = []
    for d in (3, 4):
        for g in (3, 4, 5):
            kernel = phi_kernel_slice(g, d)
            if d >= 4:
                square = ideal_square_slice(g, d)
            else:
                square = IdealSlice.from_polys(g, d, catalecticant_3x3_minors(g))
            status = "ok" if kernel == square else "MISMATCH"
            print("criterion 05: g=%d d=%d kernel dim %d, expected dim %d [%s]"
                  % (g, d, kernel.dim, square.dim, status))
            if kernel != square:
                mismatches.append((g, d, kernel.dim, square.dim))
            if (g, d) == (5, 3):
                # the refuted claim ker phi_3 = (I^2)_3 = 0 stays false
                assert kernel != IdealSlice.from_polys(g, d, []), kernel
    assert not mismatches, mismatches


def test_criterion_06_ribbon_hilbert_function():
    rng = Random(606)
    degrees = list(range(2, 7))
    for g in (3, 4, 5, 6):
        want = [(2 * d - 1) * (g - 1) for d in degrees]
        models = {
            "split": split_ribbon_ideal(g),
            "hyperelliptic": hyperelliptic_model(
                g, random_squarefree_form(2 * g + 2, rng)),
            "ribbon": canonical_ribbon_ideal(
                g, random_ribbon_ell(g, rng)),
        }
        for name, ideal in models.items():
            got = hilbert_function(ideal, "weighted", degrees)
            assert got == want, (g, name, got, want)
        print("criterion 06: g=%d all three models give %s" % (g, want))


def test_criterion_07_groebner_certificate_and_series():
    degrees = list(range(0, 8))
    for g in (3, 4, 5, 6):
        ideal = split_ribbon_ideal(g)
        result = certify_groebner(ideal)
        assert result is not None and result.input_is_groebner, g
        assert result.order in ("grlex", "grevlex")
        computed = hilbert_function(ideal, "weighted", degrees)
        normal = [result.normal_monomial_count(d) for d in degrees]
        assert normal == computed, (g, normal, computed)
        displayed = [1, g] + [(g - 2) * (2 * n - 1) for n in degrees[2:]]
        corrected = [1, g] + [(g - 1) * (2 * n - 1) for n in degrees[2:]]
        print("criterion 07: g=%d order=%s computed=%s" % (g, result.order, computed))
        print("criterion 07: g=%d (g-2) series=%s (g-1) series=%s"
              % (g, displayed, corrected))
        # computed series settles the coefficient: (g-1), not (g-2)
        assert computed == corrected, (g, computed)
        assert computed != displayed, g


def test_criterion_08_syzygy_shapes():
    # Expected red: the lone g=3 split syzygy (degree 6) misses the
    # schematic shapes, and the g=3 hyperelliptic kernel in degree 5 is 0.
    rng = Random(808)
    failures = []
    for g in (3, 4):
        records = syzygies_by_degree(split_ribbon_ideal(g), 6, "ribbon")
        minimal = {d: r.minimal_count for d, r in records.items()
                   if r.minimal_count}
        print("criterion 08: g=%d split minimal counts %s shapes %s"
              % (g, minimal, {d: records[d].shape_matched for d in minimal}))
        if not set(minimal) <= {3, 4, 5, 6}:
            failures.append((g, "degrees", sorted(minimal)))
        for d in minimal:
            if not records[d].shape_matched:
                failures.append((g, "shape", d))
    h = random_squarefree_form(8, rng)
    records = syzygies_by_degree(hyperelliptic_model(3, h), 5, "hyperelliptic")
    count = records[5].minimal_count
    print("criterion 08: g=3 hyperelliptic degree-5 minimal count %d "
          "(kernel dim %d)" % (count, records[5].kernel_dim))
    if count < 1:
        failures.append((3, "hyperelliptic degree-5 syzygy missing", 5))
    assert not failures, failures


def test_criterion_09_fitting_minors():
    for m in range(1, 6):
        report = verify_power_ideal(m, m, "phi2")
        assert report["all_realized"], report
        print("criterion 09: phi2 m=r=%d realized %d monomials"
              % (m, report["monomials_checked"]))
    for m, r in ((2, 5), (3, 5), (2, 7)):
        report = verify_power_ideal(m, r, "blocks")
        assert report["all_realized"], report
        print("criterion 09: blocks m=%d r=%d realized %d monomials"
              % (m, r, report["monomials_checked"]))


def test_criterion_10_order_doubling():
    rng = Random(1010)
    for g in (3, 4, 5):
        for d in (1, 2, 3):
            h = random_squarefree_form(2 * g + 2, rng)
            ell = random_ribbon_ell(g, rng)
            report = order_doubling_experiment(g, h, d, ell)
            assert report["hyperell_order"] == d
            assert report["ribbon_order"] == 2 * d
            assert report["section_matches_input"] is True
            print("criterion 10: g=%d d=%d orders (%d, %d), section recovered"
                  % (g, d, d, 2 * d))


def test_criterion_11_g3_elimination_is_square():
    ideal = canonical_ribbon_ideal(3, [WPoly.v_var(3, 0)])
    got = eliminate_v_degree(ideal, 4)
    conic = WPoly(3, {(1, 0, 1, 0): Fraction(1), (0, 2, 0, 0): Fraction(-1)})
    want = IdealSlice.from_polys(3, 4, [conic * conic])
    print("criterion 11: eliminated degree-4 slice dim %d" % got.dim)
    assert got.dim == 1
    assert got == want


def test_criterion_12_cli_determinism(tmp_path):
    sq = json.dumps([{"u": [2, 0, 2], "v": [0], "c": "1"},
                     {"u": [1, 2, 1], "v": [0], "c": "-2"},
                     {"u": [0, 4, 0], "v": [0], "c": "1"}])
    h = json.dumps([1, 0, 0, 0, 0, 0, 0, 0, 1])
    commands = {
        "limit-quadric": ["limit-quadric", "--g", "4", "--q", "[[1,0],[0,0]]"],
        "limit-relation": ["limit-relation", "--g", "3", "--d", "4",
                           "--poly", sq],
        "verify": ["verify", "--suite", "rnc", "--gmax", "4", "--dmax", "4",
                   "--seed", "12"],
        "family-build": ["family", "build", "--g", "3", "--d", "1",
                         "--h", h, "--seed", "12"],
    }
    for name, argv in commands.items():
        first = tmp_path / ("%s-1.json" % name)
        second = tmp_path / ("%s-2.json" % name)
        assert main(argv + ["--quiet", "--json-out", str(first)]) == 0
        assert main(argv + ["--quiet", "--json-out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name
        print("criterion 12: %s rerun is byte-identical (%d bytes)"
              % (name, len(first.read_bytes())))
