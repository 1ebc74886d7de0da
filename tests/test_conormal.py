from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from ribbonlab.conormal import (
    LambdaFunctional,
    is_limit_quadric,
    is_limit_relation,
    phi_d,
    phi_kernel_slice,
    psi_d,
    ribbon_slice,
)
from conormal_oracle import oracle_phi_kernel_slice, oracle_ribbon_slice, phi_map_matrix
from ribbonlab.exact import RatMatrix
from ribbonlab.poly import BinaryForm, WPoly, monomials, veronese_pullback
from ribbonlab.rnc import QuadForm, ideal_slice, ideal_square_slice, q_to_quadric
from ribbonlab.suites import catalecticant_3x3_minors
from test_poly import combine, x0_power


def rand_quadform(rng, g, span=5):
    n = g - 2
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = Fraction(rng.randint(-span, span))
            entries[i][j] = x
            entries[j][i] = x
    return QuadForm(g, entries)


def rank_deficient_quadform(rng, g):
    """Sum of fewer than g-2 rank-one symmetric squares."""
    n = g - 2
    entries = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(n - 1):
        v = [rng.randint(-3, 3) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                entries[i][j] += Fraction(v[i] * v[j])
    return QuadForm(g, entries)


def forward_substitution_phi(x, d):
    """phi_d(x) the long way: solve the conormal system by forward substitution.

    Matching du_j coefficients gives iota*(dx/du_j) = x0^2 c_j - 2 x0 x1 c_{j-1}
    + x1^2 c_{j-2} (c's outside 0..g-3 are zero).  Each c_j comes out of an
    exact division by x0^2, and the two leftover equations are checked.
    Returns the rows of the (g-2) x ((d-1)(g-1)-1) matrix.
    """
    g = x.g
    w_degree = (d - 1) * (g - 1)
    ws = []
    for j in range(g):
        dj = WPoly(g, {e[:j] + (e[j] - 1,) + e[j + 1:]: e[j] * c
                       for e, c in x.terms.items() if e[j]})
        ws.append(veronese_pullback(dj) if dj else BinaryForm(w_degree))
    x0x1 = x0_power(2, 1)
    x1sq = x0_power(2, 0)
    cs = []
    for j in range(g - 2):
        rhs = ws[j]
        if j >= 1:
            rhs = combine((1, rhs), (2, x0x1 * cs[j - 1]))
        if j >= 2:
            rhs = combine((1, rhs), (-1, x1sq * cs[j - 2]))
        cs.append(rhs.divide_exact(2, 0))
    tail = combine((-2, x0x1 * cs[g - 3]), *([(1, x1sq * cs[g - 4])] if g >= 4 else []))
    assert ws[g - 2] == tail, "conormal system inconsistent at row %d" % (g - 2)
    assert ws[g - 1] == x1sq * cs[g - 3], "conormal system inconsistent at row %d" % (g - 1)
    return tuple(c.coeffs for c in cs)


# (g, d) pairs whose every basis row goes through the oracle; the largest
# slices are left out to keep the test near one second.
ORACLE_SIZES = [(g, d) for g in range(3, 9) for d in range(2, 6)
                if (g, d) not in {(7, 4), (7, 5), (8, 4), (8, 5)}]


def test_closed_form_phi_matches_forward_substitution_oracle():
    rng = random.Random(11)
    relations = []
    for g, d in ORACLE_SIZES:
        basis = ideal_slice(g, d).basis
        relations += [(p, d) for p in basis]
        for _ in range(3):
            combo = WPoly.zero(g)
            for p in rng.sample(basis, min(len(basis), 6)):
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                combo = combo + p.map_coeffs(lambda a: c * a)
            relations.append((combo, d))
    for g in range(3, 9):
        for _ in range(4):
            relations.append((q_to_quadric(rand_quadform(rng, g)), 2))
        relations += [(x, 3) for x in catalecticant_3x3_minors(g)]
        for d in (2, 3, 4):
            relations.append((WPoly.zero(g), d))
    for x, d in relations:
        assert phi_d(x, d).rows == forward_substitution_phi(x, d)


def test_phi_d_shape_and_membership_check():
    g, d = 4, 3
    x = WPoly.u_var(g, 0) * (WPoly.u_monomial(g, [0, 2]) - WPoly.u_monomial(g, [1, 1]))
    m = phi_d(x, d)
    assert isinstance(m, RatMatrix)
    assert (m.nrows, m.ncols) == (g - 2, (d - 1) * (g - 1) - 1)
    with pytest.raises(ValueError):
        phi_d(x, d + 1)  # not of the degree asked for
    with pytest.raises(ValueError, match="x not in the ideal of the curve"):
        phi_d(WPoly.u_monomial(4, [0, 0]), 2)
    with pytest.raises(ValueError):
        phi_d(WPoly.v_var(4, 0) * WPoly.v_var(4, 0), 4)  # not u-only


def test_phi_2_inverts_q_to_quadric():
    rng = random.Random(1)
    for g in (3, 4, 5, 6):
        for _ in range(8):
            q = rand_quadform(rng, g)
            if q.is_zero():
                continue
            assert phi_d(q_to_quadric(q), 2) == q.mat


def test_phi_d_multiplicative_row_property():
    # phi_{d+1}(u_j * x) has rows equal to iota*(u_j) times the rows of phi_d(x)
    rng = random.Random(2)
    for g in (3, 4, 5):
        q = rand_quadform(rng, g)
        if q.is_zero():
            continue
        x = q_to_quadric(q)
        m2 = phi_d(x, 2)
        for j in range(g):
            m3 = phi_d(WPoly.u_var(g, j) * x, 3)
            factor = veronese_pullback(WPoly.u_var(g, j))
            for i in range(g - 2):
                assert (BinaryForm(m3.ncols - 1, m3.rows[i])
                        == factor * BinaryForm(m2.ncols - 1, m2.rows[i]))


def test_psi_2_is_lambda_contraction():
    rng = random.Random(3)
    for g in (4, 5):
        q = rand_quadform(rng, g)
        if q.is_zero():
            continue
        lam = LambdaFunctional(g, [rng.randint(-3, 3) for _ in range(g - 2)])
        if lam.is_zero():
            lam = LambdaFunctional.basis_vector(g, 0)
        expect = combine(*((lam.coords[i], BinaryForm(g - 3, q.mat.rows[i]))
                           for i in range(g - 2)))
        assert psi_d(lam, q_to_quadric(q), 2) == expect


def test_is_limit_quadric_scalar_case():
    flag, witness = is_limit_quadric(QuadForm(3, [[1]]))
    assert not flag and witness is None
    flag, witness = is_limit_quadric(QuadForm(3, [[0]]))
    assert flag and witness == LambdaFunctional.basis_vector(3, 0)


def test_is_limit_quadric_witness_annihilates():
    rng = random.Random(4)
    for g in (4, 5, 6):
        for _ in range(6):
            q = rank_deficient_quadform(rng, g)
            flag, witness = is_limit_quadric(q)
            assert flag
            assert all(sum(a * b for a, b in zip(row, witness.coords)) == 0
                       for row in q.mat.rows)
            if not q.is_zero():
                first = next(c for c in witness.coords if c)
                assert first == 1


def test_is_limit_relation_examples():
    rng = random.Random(5)
    g = 4
    # nondegenerate q: multiplying by u_0 keeps full rank
    q = QuadForm(g, [[1, 0], [0, 1]])
    x = WPoly.u_var(g, 0) * q_to_quadric(q)
    flag, witness = is_limit_relation(x, 3)
    assert not flag and witness is None
    # rank-one q: the relation degenerates and the witness spans the left kernel
    q1 = QuadForm(g, [[1, 0], [0, 0]])
    x1 = WPoly.u_var(g, 1) * q_to_quadric(q1)
    flag, witness = is_limit_relation(x1, 3)
    assert flag
    m = phi_d(x1, 3)
    contracted = [sum(witness.coords[i] * m.rows[i][j] for i in range(g - 2))
                  for j in range(m.ncols)]
    assert all(x == 0 for x in contracted)


def test_three_way_agreement_on_quadrics():
    # det(q) = 0 iff rank phi_2(x_q) < g-2 iff some lambda kills psi_2; and
    # phi_2(x_q) = q, so both verdicts read the same witness
    rng = random.Random(6)
    for g in (3, 4, 5):
        for _ in range(10):
            for q in (rand_quadform(rng, g), rank_deficient_quadform(rng, g)):
                degenerate, witness = is_limit_quadric(q)
                rel_flag, rel_witness = is_limit_relation(q_to_quadric(q), 2)
                assert degenerate == rel_flag
                assert witness == rel_witness
                if degenerate:
                    assert psi_d(rel_witness, q_to_quadric(q), 2).is_zero()


def test_phi_3_bijective_at_g4():
    s = ideal_slice(4, 3)
    stacked = phi_map_matrix(s)
    assert s.dim == 10
    assert stacked.rank() == 10
    assert phi_kernel_slice(4, 3).dim == 0


def test_phi_4_kernel_is_ideal_square_at_g3():
    kernel = phi_kernel_slice(3, 4)
    assert kernel.dim == 1
    assert kernel == ideal_square_slice(3, 4)


def test_ribbon_slice_dimensions():
    lam = LambdaFunctional.basis_vector(4, 0)
    s = ribbon_slice(lam, 4, 2)
    assert s.dim == 1
    # the surviving quadric is u_1 u_3 - u_2^2, i.e. q = e_1 (.) e_1
    expect = q_to_quadric(QuadForm.basis_element(4, 1, 1))
    assert s.contains(expect)
    assert ribbon_slice(LambdaFunctional.basis_vector(3, 0), 3, 2).dim == 0
    s43 = ribbon_slice(lam, 4, 3)
    assert s43.dim == ideal_slice(4, 3).dim - ((3 - 1) * (4 - 1) - 1)


def test_ribbon_slice_members_killed_by_lambda():
    rng = random.Random(7)
    g, d = 5, 3
    lam = LambdaFunctional(g, [1, rng.randint(-3, 3), rng.randint(-3, 3)])
    s = ribbon_slice(lam, g, d)
    assert s.dim == ideal_slice(g, d).dim - ((d - 1) * (g - 1) - 1)
    for p in s.basis:
        assert psi_d(lam, p, d).is_zero()


def test_slices_match_per_row_oracle():
    # the one kernel over S_d against phi_d / psi_d evaluated per basis row;
    # every unit functional and a seeded random one at each ribbon size
    rng = random.Random(13)
    for g, d in [(4, 2), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3), (8, 3)]:
        lams = [LambdaFunctional.basis_vector(g, t) for t in range(g - 2)]
        lams.append(LambdaFunctional(g, [rng.randint(-5, 5) or 1 for _ in range(g - 2)]))
        for lam in lams:
            assert ribbon_slice(lam, g, d) == oracle_ribbon_slice(lam, g, d), (g, d, lam)
    for g, d in [(3, 4), (4, 3), (5, 3), (5, 4), (6, 4), (8, 4), (10, 3), (12, 3)]:
        assert phi_kernel_slice(g, d) == oracle_phi_kernel_slice(g, d), (g, d)


def test_large_ribbon_slices_match_per_row_oracle():
    # At (10, 4) the oracle takes seconds.  The slice has the oracle's
    # dimension (psi_d is onto for d >= 2, criterion 04) and lies in the
    # oracle's set if psi_d kills it, which, psi_d being linear, random
    # combinations of its rows show: one killed by chance has probability
    # at most 1/1000 (Schwartz-Zippel).
    rng = random.Random(17)
    lam = LambdaFunctional(12, [rng.randint(-5, 5) or 1 for _ in range(10)])
    assert ribbon_slice(lam, 12, 3) == oracle_ribbon_slice(lam, 12, 3)
    g, d = 10, 4
    lam = LambdaFunctional(g, [rng.randint(-5, 5) or 1 for _ in range(g - 2)])
    s = ribbon_slice(lam, g, d)
    assert s.dim == ideal_slice(g, d).dim - ((d - 1) * (g - 1) - 1)
    for _ in range(3):
        combo = {}
        for row in s.rows:
            r = rng.randint(1, 1000)
            for c, v in row.items():
                combo[s.monomials[c]] = combo.get(s.monomials[c], 0) + r * v
        assert psi_d(lam, WPoly(g, combo), d).is_zero()


def test_slice_reach_at_g12():
    # a ribbon's degree-d part has the Hilbert function of a canonical curve,
    # codimension (2d-1)(g-1) in S_d; ker phi_3 is spanned by the C(g-2, 3)
    # catalecticant 3x3 minors
    g, d = 12, 3
    lam = LambdaFunctional(g, [(-1) ** i * (i + 1) for i in range(g - 2)])
    s = ribbon_slice(lam, g, d)
    assert len(monomials(g, d, u_only=True)) - s.dim == (2 * d - 1) * (g - 1)
    assert phi_kernel_slice(g, d).dim == comb(g - 2, 3)


def test_lambda_normalization():
    lam = LambdaFunctional(4, [0, Fraction(3, 2)])
    assert lam.normalized().coords == (Fraction(0), Fraction(1))
    with pytest.raises(ValueError):
        LambdaFunctional(4, [0, 0]).normalized()
