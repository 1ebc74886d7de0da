from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from ribbonlab.conormal import LambdaFunctional, phi_kernel_slice, ribbon_slice
from ribbonlab.exact import row_space_matrix
from ribbonlab.poly import BinaryForm, WPoly, monomials, quartic_lift, veronese_pullback
from ribbonlab.rnc import (
    IdealSlice,
    QuadForm,
    hankel_generators,
    ideal_slice,
    ideal_square_slice,
    q_to_quadric,
)
from ribbonlab.xg import (
    canonical_ribbon_ideal,
    eliminate_v_degree,
    hyperelliptic_model,
    random_ribbon_ell,
    split_ribbon_ideal,
)

from test_exact import dense_kernel, dense_rref, to_dense


def rand_quadform(rng, g, span=5):
    n = g - 2
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = Fraction(rng.randint(-span, span))
            entries[i][j] = x
            entries[j][i] = x
    return QuadForm(g, entries)


def test_quadform_requires_symmetry():
    with pytest.raises(ValueError):
        QuadForm(4, [[1, 2], [3, 4]])


def test_q_to_quadric_diagonal():
    for g in (3, 4, 5):
        for i in range(g - 2):
            expect = WPoly.u_monomial(g, [i, i + 2]) - WPoly.u_monomial(g, [i + 1, i + 1])
            assert q_to_quadric(QuadForm.basis_element(g, i, i)) == expect


def test_q_to_quadric_off_diagonal():
    # e_0 (.) e_1 at g = 4 gives u_0 u_3 - u_1 u_2
    expect = WPoly.u_monomial(4, [0, 3]) - WPoly.u_monomial(4, [1, 2])
    assert q_to_quadric(QuadForm.basis_element(4, 0, 1)) == expect


def test_q_to_quadric_images_vanish_on_curve():
    rng = random.Random(3)
    for g in (3, 4, 5, 6):
        q = rand_quadform(rng, g)
        x = q_to_quadric(q)
        if x:
            assert veronese_pullback(x).is_zero()


def test_hankel_generators_span_example():
    gens = hankel_generators(4)
    assert len(gens) == 3
    classic = [WPoly.u_monomial(4, [0, 2]) - WPoly.u_monomial(4, [1, 1]),
               WPoly.u_monomial(4, [0, 3]) - WPoly.u_monomial(4, [1, 2]),
               WPoly.u_monomial(4, [1, 3]) - WPoly.u_monomial(4, [2, 2])]
    assert IdealSlice.from_polys(4, 2, gens) == IdealSlice.from_polys(4, 2, classic)


def test_ideal_slice_dimension_formula():
    for g in range(3, 8):
        for d in (1, 2, 3):
            s = ideal_slice(g, d)
            assert s.dim == math.comb(g - 1 + d, d) - (d * (g - 1) + 1)


def test_ideal_slice_examples():
    assert ideal_slice(3, 2).dim == 1
    assert ideal_slice(5, 2).dim == 6
    assert ideal_slice(3, 1).dim == 0


def test_ideal_slice_matches_dense_evaluation_kernel():
    # oracle: the textbook kernel of the evaluation matrix (one row per
    # binary monomial x0^a x1^(d(g-1)-a)), brought to canonical rref
    for g in range(3, 9):
        for d in range(1, 5 if g <= 6 else 4):
            basis = monomials(g, d, u_only=True)
            evaluation = [[Fraction(0)] * len(basis) for _ in range(d * (g - 1) + 1)]
            for col, e in enumerate(basis):
                evaluation[sum(i * k for i, k in enumerate(e[:g]))][col] = Fraction(1)
            kernel = dense_kernel(evaluation, len(basis))
            want = dense_rref(kernel, len(basis))[0]
            assert _dense_rows(ideal_slice(g, d)) == want, (g, d)


def _dense_rows(slice_):
    return [to_dense(row, len(slice_.monomials)) for row in slice_.rows]


def _stacked_rank_contains(slice_, p):
    rows = _dense_rows(slice_) + [to_dense(slice_.vector_of(p), len(slice_.monomials))]
    return len(dense_rref(rows, len(slice_.monomials))[1]) == slice_.dim


def test_contains_matches_rank_oracle():
    rng = random.Random(13)
    slices = [ideal_slice(4, 3), ideal_slice(5, 3), ideal_slice(6, 2),
              ideal_square_slice(4, 4),
              ribbon_slice(LambdaFunctional(5, [1, -2, 3]), 5, 3)]
    for s in slices:
        for _ in range(6):
            member = WPoly.zero(s.g)
            for b in s.basis:
                c = rng.randint(-3, 3)
                member = member + b.map_coeffs(lambda a: c * a)
            assert s.contains(member) and _stacked_rank_contains(s, member)
            m = rng.choice(s.monomials)
            other = member + WPoly(s.g, {m: Fraction(rng.choice([-2, -1, 1, 3]))})
            assert s.contains(other) == _stacked_rank_contains(s, other)
            assert not s.contains(other)


@pytest.mark.parametrize("g, d", [(16, 4), (12, 5)])
def test_largest_guarded_slices(g, d):
    # the largest slices the CLI cost guard admits in degrees 4 and 5
    s = ideal_slice(g, d)
    assert s.dim == math.comb(g - 1 + d, d) - (d * (g - 1) + 1)
    rng = random.Random(g * 10 + d)
    terms = {}
    for b in s.basis:
        c = rng.randint(-3, 3)
        for e, v in b.terms.items():
            terms[e] = terms.get(e, 0) + c * v
    member = WPoly(g, terms)
    assert member and s.contains(member)
    m = rng.choice(s.monomials)
    assert not s.contains(member + WPoly(g, {m: Fraction(rng.choice([-2, 1, 3]))}))
    polys = []
    for b in s.basis:
        c = rng.choice([-3, -1, 2, Fraction(5, 7)])
        polys.append(b.map_coeffs(lambda a: c * a))
    rng.shuffle(polys)
    assert IdealSlice.from_polys(g, d, polys) == s


def _nonzero_lambda(rng, g):
    while True:
        coords = [rng.randint(-3, 3) for _ in range(g - 2)]
        if any(coords):
            return LambdaFunctional(g, coords)


def test_producers_hand_over_canonical_rows():
    # IdealSlice keeps its producer's rows as given, so each producer must
    # already build the canonical rref that row_space_matrix would return
    rng = random.Random(14)
    slices = [ideal_slice(g, d) for g in range(3, 9) for d in range(1, 5)]
    for g in range(3, 8):
        lams = [_nonzero_lambda(rng, g) for _ in range(2)]
        for d in range(2, 5):
            slices += [phi_kernel_slice(g, d)] + [ribbon_slice(lam, g, d) for lam in lams]
    for g in range(3, 7):
        h = BinaryForm(2 * g + 2, [rng.randint(-3, 3) for _ in range(2 * g + 3)])
        for ideal in (split_ribbon_ideal(g), hyperelliptic_model(g, h),
                      canonical_ribbon_ideal(g, random_ribbon_ell(g, rng))):
            slices += [eliminate_v_degree(ideal, d) for d in range(2, 6)]
    assert len(slices) == 117
    for s in slices:
        assert s.rows == row_space_matrix(s.rows, len(s.monomials)), s
        leads = [next(iter(row)) for row in s.rows]
        assert all(a < b for a, b in zip(leads, leads[1:])), s
        assert all(min(row) == lead and row[lead] == 1 for row, lead in zip(s.rows, leads)), s
        assert s.basis == [WPoly(s.g, {s.monomials[c]: v for c, v in row.items()})
                           for row in s.rows], s


def test_ideal_slice_elements_vanish_on_curve():
    for g in (3, 4, 5):
        for d in (2, 3):
            for p in ideal_slice(g, d).basis:
                assert veronese_pullback(p).is_zero()


def test_quadrics_span_degree_two_slice():
    for g in (3, 4, 5):
        assert IdealSlice.from_polys(g, 2, hankel_generators(g)) == ideal_slice(g, 2)


def test_q_to_quadric_injective():
    # dimension of the symmetric space equals the slice dimension
    rng = random.Random(5)
    for g in (3, 4, 5):
        q = rand_quadform(rng, g)
        if not q.is_zero():
            assert bool(q_to_quadric(q))


def test_ideal_square_slice_g3_d4_is_conic_squared():
    s = ideal_square_slice(3, 4)
    conic = WPoly.u_monomial(3, [0, 2]) - WPoly.u_monomial(3, [1, 1])
    assert s.dim == 1
    assert s.contains(conic * conic)


def test_ideal_square_slice_rejects_low_degree():
    with pytest.raises(ValueError):
        ideal_square_slice(4, 3)


def test_ideal_square_inside_ideal():
    for g in (3, 4):
        sq = ideal_square_slice(g, 4)
        full = ideal_slice(g, 4)
        for p in sq.basis:
            assert full.contains(p)
        assert sq.dim <= full.dim


def test_lifts_differ_by_ideal_elements():
    rng = random.Random(7)
    for g in (3, 4):
        exps = [rng.randint(0, g - 1) for _ in range(4)]
        p = (WPoly.u_monomial(g, exps).map_coeffs(lambda one: 3 * one)
             - WPoly.u_monomial(g, [0] * 4).map_coeffs(lambda one: 2 * one))
        f = veronese_pullback(p)
        if f.is_zero():
            continue
        lifted = quartic_lift(f, g)
        assert ideal_slice(g, 4).contains(lifted - p)


def test_quadform_json_round_trip():
    q = QuadForm(4, [[1, Fraction(1, 2)], [Fraction(1, 2), -3]])
    assert QuadForm.from_json(q.to_json()) == q
