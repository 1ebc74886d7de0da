"""The fraction-free kernels against their Fraction-arithmetic oracles.

Inputs carry denominators 2, 3 and 7, mixed within one input, as well as
integral, zero and empty inputs; every output must also be what the public
constructors build (`assert_as_public`), so its coefficients stay Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import kernel_oracle as oracle
from ribbonlab import families
from ribbonlab.conormal import phi_d
from ribbonlab.exact import (_ZERO, RatMatrix, RowEliminator, TruncatedScalar, from_integers,
                             sparse_rank, to_integers)
from ribbonlab.families import (
    base_change_pi_squared,
    constant_family,
    even_odd_split,
    negate_v,
    perturb_hyperelliptic,
    reduction_hilbert_function,
    rescale_v,
)
from ribbonlab.poly import BinaryForm, WPoly, monomials, quartic_lift, veronese_pullback
from ribbonlab.rnc import IdealSlice, QuadForm, ideal_slice, ideal_square_slice, q_to_quadric
from ribbonlab.xg import (
    _split_groups,
    buchberger,
    canonical_ribbon_ideal,
    generator_multiples,
    hyperelliptic_model,
    random_ribbon_ell,
    split_ribbon_evaluation,
    split_ribbon_ideal,
)
from test_families import random_squarefree
from test_poly import assert_as_public

DENOMINATORS = (1, 2, 3, 7)


def rand_rat(rng, span=6, zero_share=0.2):
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.randint(-span, span) or 1, rng.choice(DENOMINATORS))


def rand_form(rng, degree):
    return BinaryForm(degree, [rand_rat(rng) for _ in range(degree + 1)])


def rand_poly(rng, g, d, nterms, u_only=False):
    mons = monomials(g, d, u_only=u_only)
    return WPoly(g, {e: rand_rat(rng, zero_share=0) for e in rng.sample(mons, min(nterms, len(mons)))})


def rand_relation(rng, g, d):
    """A rational combination of the canonical rows of the degree-d curve slice."""
    s = ideal_slice(g, d)
    total = WPoly.zero(g)
    for b in rng.sample(s.basis, min(4, s.dim)):
        total = total + scaled(b, rand_rat(rng))
    return total


def scaled(p, q):
    """The rational multiple q * p."""
    return p.map_coeffs(lambda c: q * c)


def test_helpers_scale_by_the_lcm_and_share_one_zero():
    values = [Fraction(1, 2), 3, Fraction(-2, 7), Fraction(0), Fraction(5, 3)]
    scale, ints = to_integers(values)
    assert scale == 42 and ints == [21, 126, -12, 0, 70]
    assert all(type(n) is int for n in ints)
    back = from_integers(ints, scale)
    assert type(back) is tuple and back == tuple(Fraction(v) for v in values)
    assert all(type(c) is Fraction for c in back) and back[3] is _ZERO
    assert to_integers([Fraction(4), 5]) == (1, [4, 5])
    assert to_integers([]) == (1, [])
    assert from_integers([], 3) == ()
    assert from_integers([0, 0], 5) == (_ZERO, _ZERO)


def test_form_products_and_derivatives_match_fraction_oracle():
    rng = random.Random(2201)
    forms = [rand_form(rng, rng.randint(0, 6)) for _ in range(30)]
    forms += [BinaryForm(0), BinaryForm(4), BinaryForm(3, [Fraction(1, 7), 0, 0, Fraction(-2, 3)])]
    for f in forms:
        h = rng.choice(forms)
        for got, want in [(f * h, oracle.form_product(f, h)),
                          (f.derivative(0), oracle.form_derivative(f, 0)),
                          (f.derivative(1), oracle.form_derivative(f, 1))]:
            assert got == want
            assert_as_public(got)
    with pytest.raises(ValueError):
        forms[0].derivative(2)


@pytest.mark.parametrize("g", [3, 4, 5])
def test_wpoly_product_matches_fraction_oracle(g):
    rng = random.Random(2205 + g)
    polys = [rand_poly(rng, g, rng.randint(0, 4), rng.randint(1, 6)) for _ in range(12)]
    polys += [WPoly.zero(g), WPoly(g, {(0,) * (2 * g - 2): Fraction(-3, 7)})]
    for p in polys:
        for q in rng.sample(polys, 4) + [p, -p]:
            got = p * q
            assert got == oracle.wpoly_product(p, q)
            assert_as_public(got)
    # a product that cancels: (a + b)(a - b) = a^2 - b^2
    a, b = polys[0], polys[1]
    assert (a + b) * (a - b) == a * a - b * b


def test_truncated_product_is_refused_by_name():
    # a product is over Q: a family coefficient is named, on either side
    p = WPoly(4, {(1, 0, 0, 0, 0, 0): Fraction(1, 2)})
    t = p.map_coeffs(lambda c: TruncatedScalar.from_rational(c, 3).shift(1))
    for left, right in ((t, p), (p, t), (t, t), (WPoly.zero(4), t)):
        with pytest.raises(TypeError, match=r"^a WPoly product is over Q, not over the "
                           r"coefficient TruncatedScalar\(\['0', '1/2', '0'\]\)$"):
            left * right


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_pullback_and_evaluation_match_fraction_oracle(g):
    rng = random.Random(2211 + g)
    for d in range(0, 5):
        for nterms in (1, 3, 8):
            p = rand_poly(rng, g, d, nterms)
            got = split_ribbon_evaluation(p)
            assert got == oracle.evaluation(p)
            for x in got:
                assert_as_public(x)
            if d >= 2:  # the zeros are one shared object, which the xg suite relies on
                assert all(c is _ZERO for x in got for c in x.coeffs if not c)
            u = rand_poly(rng, g, d, nterms, u_only=True)
            assert veronese_pullback(u) == oracle.pullback(u)
            assert_as_public(veronese_pullback(u))
    # for d = 1 the second value is the zero form of degree 0
    assert split_ribbon_evaluation(WPoly.u_var(g, 0))[1] == BinaryForm(0)


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_phi_d_matches_fraction_oracle(g):
    rng = random.Random(2221 + g)
    for d in (2, 3, 4):
        for _ in range(4):
            x = rand_relation(rng, g, d)
            m = phi_d(x, d)
            assert m == oracle.phi_matrix(x, d)
            assert m == RatMatrix(m.rows, ncols=m.ncols)
            assert all(type(c) is Fraction for row in m.rows for c in row)
        zero = phi_d(WPoly.zero(g), d)
        assert zero == oracle.phi_matrix(WPoly.zero(g), d)
        assert all(c is _ZERO for row in zero.rows for c in row)


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_phi_d_refuses_exactly_what_pulls_back_to_nonzero(g):
    # phi_d sums the scaled terms per fibre of a(e) instead of pulling back
    rng = random.Random(2227 + g)
    for d in (2, 3, 4):
        for _ in range(4):
            x = rand_relation(rng, g, d)
            noise = rand_poly(rng, g, d, 1, u_only=True)
            for y in (x, x + noise, rand_poly(rng, g, d, 3, u_only=True)):
                if not y:
                    continue
                if veronese_pullback(y).is_zero():
                    assert phi_d(y, d) == oracle.phi_matrix(y, d)
                else:
                    with pytest.raises(ValueError, match="x not in the ideal of the curve"):
                        phi_d(y, d)


@pytest.mark.parametrize("g", [3, 4, 5, 6])
def test_q_to_quadric_matches_fraction_oracle(g):
    rng = random.Random(2231 + g)
    n = g - 2
    for _ in range(8):
        entries = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries[i][j] = entries[j][i] = rand_rat(rng)
        q = QuadForm(g, entries)
        got = q_to_quadric(q)
        assert got == oracle.quadric(q)
        assert_as_public(got)
    assert q_to_quadric(QuadForm(g, [[0] * n for _ in range(n)])) == WPoly.zero(g)


def test_contains_matches_fraction_oracle():
    rng = random.Random(2241)
    # canonical rows with denominators: the span of rational combinations
    spanned = IdealSlice.from_polys(4, 3, [rand_relation(rng, 4, 3) for _ in range(5)])
    assert any(c.denominator > 1 for row in spanned.rows for c in row.values())
    slices = [ideal_slice(4, 3), ideal_slice(5, 2), ideal_square_slice(4, 4), spanned]
    for s in slices:
        for _ in range(8):
            member = WPoly.zero(s.g)
            for b in rng.sample(s.basis, min(3, s.dim)):
                member = member + scaled(b, rand_rat(rng))
            m = rng.choice(s.monomials)
            other = member + WPoly(s.g, {m: rand_rat(rng, zero_share=0)})
            for p in (member, other, WPoly.zero(s.g)):
                assert s.contains(p) == oracle.slice_contains(s, p)
            assert s.contains(member) and s.contains(WPoly.zero(s.g))


@pytest.mark.parametrize("g", [3, 4, 5, 6, 7])
def test_shared_quartic_lifts_match_product_and_lift(g):
    rng = random.Random(2251 + g)
    for _ in range(3):
        h = rand_form(rng, 2 * g + 2)
        model = hyperelliptic_model(g, h)
        assert model.VV == oracle.hyperelliptic_vv(_split_groups(g)[2], g, h)
        for _, p in model.VV:
            assert_as_public(p)
        f = rand_form(rng, 4 * (g - 1))
        lift = quartic_lift(f, g)
        assert lift == oracle.summed_quartic_lift(f, g)
        assert_as_public(lift)
    assert quartic_lift(BinaryForm(4 * (g - 1)), g) == WPoly.zero(g)


def test_integer_coefficients_are_coerced_so_buchberger_stays_exact():
    # the public constructor sends int coefficients through rat, so the
    # S-polynomial below is built with 1 / Fraction, not int division
    ints = [WPoly(3, {(1, 0, 1, 0): 3, (0, 2, 0, 0): -1}),
            WPoly(3, {(1, 1, 0, 0): 7, (0, 0, 2, 0): 1})]
    fracs = [WPoly(3, {e: Fraction(c) for e, c in p.terms.items()}) for p in ints]
    for p in ints:
        assert all(type(c) is Fraction for c in p.terms.values())
        assert_as_public(p)
    s = ints[0] * WPoly(3, {(0, 1, 0, 0): Fraction(1, 3)}) \
        - ints[1] * WPoly(3, {(0, 0, 1, 0): Fraction(1, 7)})
    assert all(type(c) is Fraction for c in s.terms.values())
    assert s.to_json()
    for order in ("grlex", "grevlex"):
        assert (buchberger(ints, order).input_is_groebner
                == buchberger(fracs, order).input_is_groebner)
    split = split_ribbon_ideal(4).generators()
    as_ints = [WPoly(4, {e: int(c) for e, c in p.terms.items()}) for p in split]
    assert (buchberger(as_ints, "grlex").input_is_groebner
            == buchberger(split, "grlex").input_is_groebner)
    with pytest.raises(TypeError):
        WPoly(3, {(1, 0, 0, 0): 0.5})


def flatness_families(rng, g):
    """Constant, perturbed and rescaled families of genus g, bounds 3 to 5."""
    h = random_squarefree(rng, 2 * g + 2)
    out = [constant_family(split_ribbon_ideal(g), 3),
           constant_family(hyperelliptic_model(g, h), 4)]
    for d, bound in ((1, 4), (2, 5)):
        fam = perturb_hyperelliptic(g, h, d, bound, random_ribbon_ell(g, rng))
        out += [fam, rescale_v(fam, d)]
    return out


@pytest.mark.parametrize("g", [3, 4, 5])
def test_flatness_table_matches_the_all_layers_oracle(g):
    rng = random.Random(2271 + g)
    for fam in flatness_families(rng, g):
        for modulus in range(1, fam.order_bound + 1):
            assert (reduction_hilbert_function(fam, modulus, [2, 3, 4])
                    == oracle.layered_reduction_hilbert_function(fam, modulus, [2, 3, 4])), \
                (fam, modulus)


def test_flatness_absorbs_the_multiples_and_shifted_layer_zero_pivots(monkeypatch):
    # the engine is fed each multiple once and each layer-0 pivot row once per
    # higher layer: #multiples + rank * (modulus - 1) rows in all
    fed = []

    class Counting(RowEliminator):
        def __init__(self, ncols, rows=()):
            rows = list(rows)
            fed.append(len(rows))
            super().__init__(ncols, rows)

        def add(self, vec):
            fed[-1] += 1
            return super().add(vec)

    monkeypatch.setattr(families, "RowEliminator", Counting)
    h = random_squarefree(random.Random(2281), 10)
    fam = rescale_v(perturb_hyperelliptic(4, h, 1, 4, random_ribbon_ell(4, random.Random(3))), 1)
    modulus, degree = fam.order_bound, 4
    _, rows, columns = generator_multiples(fam.generators(), degree)
    n = len(columns)
    rank = sparse_rank([{t * n + col: c.coeffs[t] for col, c in row.items()
                         for t in range(modulus) if c.coeffs[t]} for row in rows], n * modulus)
    table = reduction_hilbert_function(fam, modulus, [degree])
    assert fed == [len(rows) + rank * (modulus - 1)]
    assert (len(rows), rank, modulus) == (51, 40, 3)
    assert len(rows) * modulus > fed[0]
    assert table == oracle.layered_reduction_hilbert_function(fam, modulus, [degree])


def assert_family_as_public(fam):
    """fam is what the checking constructor builds from its own items."""
    assert fam == families.TruncatedFamily(fam.g, fam.order_bound, fam.UU, fam.UV, fam.VV)
    for name in ("UU", "UV", "VV"):
        for key, p in fam.group_items(name):
            assert type(key) is tuple
            assert p == WPoly(p.g, p.terms)


@pytest.mark.parametrize("g", [3, 4, 5])
def test_transforms_match_their_public_constructor_builds(g):
    rng = random.Random(2291 + g)
    for d in (1, 2):
        h = random_squarefree(rng, 2 * g + 2)
        ell = random_ribbon_ell(g, rng)
        bound = 3 * d + 2
        fam = perturb_hyperelliptic(g, h, d, bound, ell)
        assert fam == oracle.checked_perturb_hyperelliptic(g, h, d, bound, ell)
        scaled = rescale_v(fam, d)
        outputs = [fam, scaled, negate_v(fam), negate_v(scaled), base_change_pi_squared(fam)]
        assert outputs[1:] == [oracle.checked_rescale_v(fam, d),
                               oracle.checked_negate_v(fam), oracle.checked_negate_v(scaled),
                               oracle.checked_base_change_pi_squared(fam)]
        for source, k in [(fam, k) for k in range(1, d)] + [(scaled, -1), (scaled, -d)]:
            assert rescale_v(source, k) == oracle.checked_rescale_v(source, k)
            outputs.append(rescale_v(source, k))
        for out in outputs:
            assert_family_as_public(out)
        base = hyperelliptic_model(g, h)
        for family in (fam, negate_v(fam)):
            got = even_odd_split(family, base)
            assert got == oracle.checked_even_odd_split(family, base)
            for part in got:
                for items in part.values():
                    for _, p in items:
                        assert p == WPoly(g, p.terms)


def test_packed_builder_matches_the_tuple_keyed_oracle():
    rng = random.Random(2301)
    fam = perturb_hyperelliptic(4, random_squarefree(rng, 10), 1, 3, random_ribbon_ell(4, rng))
    gens_list = [split_ribbon_ideal(5).generators(),
                 hyperelliptic_model(4, random_squarefree(rng, 10)).generators(),
                 canonical_ribbon_ideal(5, random_ribbon_ell(5, rng)).generators(),
                 [rand_poly(rng, 4, 3, 5), rand_poly(rng, 4, 2, 4)],
                 fam.generators()]
    for gens in gens_list:
        g = gens[0].g
        for degree in range(0, 7):
            mons = monomials(g, degree)
            for columns in (None, mons[::-1], rng.sample(mons, len(mons))):
                got = generator_multiples(gens, degree, columns)
                assert got == oracle.tuple_keyed_multiples(gens, degree, columns)
    # TruncatedScalar coefficients reach the rows as they are
    _, rows, _ = generator_multiples(fam.generators(), 4)
    assert any(isinstance(c, TruncatedScalar) and any(c.coeffs[1:])
               for row in rows for c in row.values())
    assert generator_multiples([], 3) == ([], [], [])
