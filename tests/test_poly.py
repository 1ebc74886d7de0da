from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from ribbonlab.exact import RatMatrix, TruncatedScalar
from ribbonlab.families import _bezout_resultant
from ribbonlab.poly import (
    BinaryForm,
    WPoly,
    grevlex_key,
    grlex_key,
    monomials,
    quartic_lift,
    veronese_pullback,
)
from ribbonlab.xg import split_ribbon_evaluation


def rand_form(rng, degree, span=5):
    return BinaryForm(degree, [Fraction(rng.randint(-span, span)) for _ in range(degree + 1)])


def rand_wpoly(rng, g, nterms=4, span=5):
    terms = {}
    n = 2 * g - 2
    for _ in range(nterms):
        e = tuple(rng.randint(0, 2) for _ in range(n))
        terms[e] = terms.get(e, Fraction(0)) + rng.randint(-span, span)
    return WPoly(g, terms)


def combine(*terms):
    """The form sum of c * f over the (c, f) pairs, all of one degree."""
    degree = terms[0][1].degree
    return BinaryForm(degree, [sum(c * f.coeffs[k] for c, f in terms) for k in range(degree + 1)])


def x0_power(degree, a):
    """x0^a * x1^(degree - a)."""
    return BinaryForm(degree, [int(k == a) for k in range(degree + 1)])


def test_binary_form_basics():
    f = BinaryForm(2, [-1, 0, 1])  # x0^2 - x1^2
    geom = BinaryForm(1, [1, 1])  # x0 + x1
    assert f.coeffs == (Fraction(-1), Fraction(0), Fraction(1))
    prod = f * geom
    assert prod.degree == 3
    assert prod == BinaryForm(3, [-1, -1, 1, 1])  # x0^3 + x0^2 x1 - x0 x1^2 - x1^3
    assert (f * BinaryForm(0)).is_zero()
    with pytest.raises(ValueError):
        BinaryForm(3, [1, 0, 1])


def test_divide_exact():
    f = BinaryForm(5, [0, 0, -7, 0, 3, 0])  # 3 x0^4 x1 - 7 x0^2 x1^3
    q = f.divide_exact(2, 1)
    assert q == BinaryForm(2, [-7, 0, 3])
    with pytest.raises(ValueError):
        f.divide_exact(3, 0)


def test_derivative_product_rule():
    rng = random.Random(2)
    for _ in range(6):
        f = rand_form(rng, 3)
        g = rand_form(rng, 2)
        for var in (0, 1):
            assert (f * g).derivative(var) == combine((1, f.derivative(var) * g),
                                                      (1, f * g.derivative(var)))


def test_derivative_euler_identity():
    rng = random.Random(4)
    for d in (1, 3, 5):
        f = rand_form(rng, d)
        x0, x1 = x0_power(1, 1), x0_power(1, 0)
        assert combine((1, x0 * f.derivative(0)), (1, x1 * f.derivative(1))) == combine((d, f))


def test_resultant_detects_common_roots():
    x0x1 = BinaryForm(2, [0, 1, 0])
    f = BinaryForm(2, [0, 1, 1])  # x0*x1 + x0^2 = x0(x0 + x1)
    assert _bezout_resultant(x0x1, f) == 0
    g = BinaryForm(2, [0, 0, 1])  # x0^2
    h = BinaryForm(2, [1, 0, 0])  # x1^2
    assert _bezout_resultant(g, h) != 0


def test_resultant_multiplicative():
    # a check of the Sylvester oracle itself, on forms of different degrees
    rng = random.Random(6)
    for _ in range(5):
        f1 = rand_form(rng, 2)
        f2 = rand_form(rng, 1)
        g = rand_form(rng, 2)
        assert sylvester_det(f1 * f2, g) == sylvester_det(f1, g) * sylvester_det(f2, g)


def test_resultant_handles_vanishing_leading_coefficient():
    # f has a root at [1:0]; g shares it iff g's x0-leading coefficient vanishes
    f = BinaryForm(2, [0, 1, 0])  # x0*x1
    g = BinaryForm(2, [1, 0, 0])  # x1^2 -> shares the root [1:0]
    assert _bezout_resultant(f, g) == 0
    g2 = BinaryForm(2, [1, 0, 1])  # x0^2 + x1^2, no common root with x0*x1
    assert _bezout_resultant(f, g2) != 0


def test_monomial_order_classic_examples():
    # three variables with significance x > y > z maps to tuple (z, y, x)
    x2z = (1, 0, 2)
    xy2 = (0, 2, 1)
    assert grlex_key(x2z) > grlex_key(xy2)
    assert grevlex_key(xy2) > grevlex_key(x2z)


def test_monomials_counts_and_order():
    for g in (3, 4, 5):
        for d in (0, 1, 2, 3, 4):
            ms = monomials(g, d)
            expect = sum(math.comb(g - 1 + (d - 2 * b), d - 2 * b) * math.comb(g - 3 + b, b)
                         for b in range(d // 2 + 1))
            assert len(ms) == expect
            keys = [grlex_key(e) for e in ms]
            assert keys == sorted(keys, reverse=True)
            assert len(set(ms)) == len(ms)
            mu = monomials(g, d, u_only=True)
            assert len(mu) == math.comb(g - 1 + d, d)
            assert all(len(e) == 2 * g - 2 for e in mu)
            assert all(not any(e[g:]) for e in mu)


def sorted_monomials(g, degree, u_only=False):
    """The old enumeration, kept as the oracle: recurse over u then v, then sort."""
    nv = 0 if u_only else g - 2
    results = []
    u_parts = []

    def u_rec(prefix, remaining, slots):
        if slots == 0:
            u_parts.append((prefix, remaining))
            return
        for k in range(remaining, -1, -1):
            u_rec(prefix + (k,), remaining - k, slots - 1)

    u_rec((), degree, g)
    pad = (0,) * (g - 2)
    for up, rest in u_parts:
        if nv == 0:
            if rest == 0:
                results.append(up + pad)
            continue
        v_parts = []

        def v_rec(prefix, remaining, slots):
            if slots == 0:
                if remaining == 0:
                    v_parts.append(prefix)
                return
            for k in range(remaining // 2, -1, -1):
                v_rec(prefix + (k,), remaining - 2 * k, slots - 1)

        v_rec((), rest, nv)
        for vp in v_parts:
            results.append(up + vp)
    results.sort(key=grlex_key, reverse=True)
    return results


def test_monomials_match_sorted_oracle():
    for g in range(3, 9):
        for d in range(-2, 8):
            for u_only in (False, True):
                assert (monomials(g, d, u_only=u_only)
                        == sorted_monomials(g, d, u_only)), (g, d, u_only)


def test_monomials_take_no_grading():
    # u_only is keyword-only, so a stale grading argument is not read as u_only=True
    with pytest.raises(TypeError):
        monomials(4, 3, "weighted")


def test_monomials_returns_a_fresh_list_each_call():
    first = monomials(4, 3)
    want = list(first)
    first.clear()
    again = monomials(4, 3)
    assert again == want and again is not first
    again.append((9,) * 6)
    again.reverse()
    assert monomials(4, 3) == want


def test_wpoly_ring_axioms():
    rng = random.Random(8)
    for g in (3, 4):
        a, b, c = (rand_wpoly(rng, g) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + WPoly.zero(g) == a
        assert a - a == WPoly.zero(g)


def test_wpoly_degrees_and_splits():
    g = 4
    p = WPoly.u_var(g, 0) * WPoly.u_var(g, 3) + WPoly.v_var(g, 1)
    assert p.degree() == 2
    with pytest.raises(ValueError, match="inhomogeneous"):
        (p + WPoly.u_var(g, 1)).degree()
    assert not p.is_u_only()


def u_term(g, indices, c):
    """c times the product of u_i over the indices."""
    return WPoly.u_monomial(g, indices).map_coeffs(lambda one: c * one)


def test_veronese_pullback_examples():
    # single variable: u_1 -> x0 * x1 at g = 3
    assert veronese_pullback(WPoly.u_var(3, 1)) == BinaryForm(2, [0, 1, 0])
    # the conic relation dies on the curve
    conic = WPoly.u_monomial(3, [0, 2]) - WPoly.u_monomial(3, [1, 1])
    out = veronese_pullback(conic)
    assert out.degree == 4 and out.is_zero()
    # g = 4 Hankel relation dies as well
    rel = WPoly.u_monomial(4, [0, 3]) - WPoly.u_monomial(4, [1, 2])
    assert veronese_pullback(rel).is_zero()


def test_veronese_pullback_is_multiplicative():
    rng = random.Random(12)
    g = 4
    for _ in range(6):
        p = u_term(g, [rng.randint(0, 3)], rng.randint(1, 5)) + \
            u_term(g, [rng.randint(0, 3)], rng.randint(-5, -1))
        q = u_term(g, [rng.randint(0, 3), rng.randint(0, 3)], rng.randint(1, 4))
        if not (p * q):
            continue
        assert veronese_pullback(p * q) == veronese_pullback(p) * veronese_pullback(q)


def test_veronese_pullback_rejects_bad_input():
    with pytest.raises(ValueError):
        veronese_pullback(WPoly.v_var(4, 0))
    with pytest.raises(ValueError):
        veronese_pullback(WPoly.zero(3))


def test_quartic_lift_greedy_rule():
    # x0^5 * x1^3 at g = 3 lifts along indices (2, 2, 1, 0)
    f = BinaryForm(8, [0, 0, 0, 0, 0, 7, 0, 0, 0])
    assert quartic_lift(f, 3) == u_term(3, [2, 2, 1, 0], 7)


def test_quartic_lift_is_right_inverse_of_pullback():
    rng = random.Random(14)
    for g in (3, 4, 5):
        for _ in range(4):
            f = rand_form(rng, 4 * (g - 1))
            if f.is_zero():
                continue
            assert veronese_pullback(quartic_lift(f, g)) == f


def test_quartic_lift_rejects_wrong_degree():
    with pytest.raises(ValueError):
        quartic_lift(BinaryForm(7), 3)


def test_json_round_trips():
    f = BinaryForm(3, [1, Fraction(-2, 3), 0, 5])
    assert BinaryForm.from_json(f.to_json()) == f
    g = 4
    p = u_term(g, [0, 3], Fraction(1, 2)) - WPoly.v_var(g, 1)
    assert WPoly.from_json(g, p.to_json()) == p


def assert_as_public(x):
    """x equals, field by field, what its class's public constructor builds from it."""
    if isinstance(x, WPoly):
        public = WPoly(x.g, x.terms)
        assert x == public and x.terms == public.terms
        assert all(type(e) is tuple and len(e) == 2 * x.g - 2 for e in x.terms)
        # never an int at rest, which `/` would turn into a float
        assert all(type(c) is Fraction or type(c) is TruncatedScalar
                   for c in x.terms.values())
        return
    public = BinaryForm(x.degree, x.coeffs)
    assert x == public and type(x.coeffs) is tuple
    assert all(type(c) is Fraction for c in x.coeffs)


def test_form_arithmetic_matches_public_constructor():
    rng = random.Random(43)
    for _ in range(30):
        d = rng.randint(0, 5)
        f, g = rand_form(rng, d), rand_form(rng, d)
        h = rand_form(rng, rng.randint(0, 4))
        results = [f * g, f * h, f * BinaryForm(0), f.derivative(0), f.derivative(1)]
        a0 = rng.randint(0, 2)
        results.append((f * x0_power(a0 + 1, a0)).divide_exact(a0, 1))
        for x in results:
            assert_as_public(x)


def sylvester_det(f, g):
    """The resultant's Sylvester determinant through the public RatMatrix constructor."""
    m, n = f.degree, g.degree
    if m == 0 or n == 0:  # a constant c against a form of degree k: c^k
        return f.coeffs[0] ** n if m == 0 else g.coeffs[0] ** m
    fc, gc = list(reversed(f.coeffs)), list(reversed(g.coeffs))
    rows = ([[0] * k + fc + [0] * (n - 1 - k) for k in range(n)]
            + [[0] * k + gc + [0] * (m - 1 - k) for k in range(m)])
    return RatMatrix(rows, m + n).det()


def test_wpoly_arithmetic_matches_public_constructor():
    rng = random.Random(47)
    for g in (3, 4, 5):
        for _ in range(10):
            a, b = rand_wpoly(rng, g), rand_wpoly(rng, g)
            for x in (a + b, a - b, a - a, -a, a * b, a * WPoly.zero(g)):
                assert_as_public(x)
    # truncated coefficients, where a shift can vanish: pi^2 * pi = 0
    p = rand_wpoly(rng, 4).map_coeffs(lambda c: TruncatedScalar([0, c, 1]))
    shifted = p.map_coeffs(lambda c: c.shift(1))
    for x in (shifted, shifted.map_coeffs(lambda c: c.shift(1)), -p, p + shifted, p - p):
        assert_as_public(x)
    assert not shifted.map_coeffs(lambda c: c.shift(1)) and not p - p


def test_map_coeffs_matches_public_constructor():
    # the images are stored as the public constructor stores them: zeros dropped
    rng = random.Random(59)
    maps = [lambda c: c * 2, lambda c: c if c > 0 else Fraction(0), lambda c: Fraction(0),
            lambda c: TruncatedScalar.from_rational(c, 3).shift(1)]
    for g in (3, 4, 5):
        for _ in range(10):
            p = rand_wpoly(rng, g)
            # truncated coefficients, some of which vanish mod pi or mod pi^2
            q = p.map_coeffs(lambda c: TruncatedScalar([0, c, 0]) if c > 0
                             else TruncatedScalar([c, 0, c]))
            for x, fn in [(p, fn) for fn in maps] + [
                    (q, TruncatedScalar.constant_term), (q, lambda c: c.truncate(2)),
                    (q, lambda c: c.shift(1))]:
                mapped = x.map_coeffs(fn)
                assert_as_public(mapped)
                assert mapped.terms == WPoly(g, {e: fn(c) for e, c in x.terms.items()}).terms


def test_pullback_and_evaluation_match_public_constructor():
    rng = random.Random(53)
    for g in (3, 4, 5):
        for d in (1, 2, 3):
            ms = monomials(g, d)
            p = WPoly(g, {e: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                          for e in rng.sample(ms, min(4, len(ms)))})
            if not p:
                continue
            for x in split_ribbon_evaluation(p):
                assert_as_public(x)
            u = WPoly(g, {e: c for e, c in p.terms.items() if not any(e[g:])})
            if u:
                assert_as_public(veronese_pullback(u))
