from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from ribbonlab.exact import TruncatedScalar
from ribbonlab.families import (
    TruncatedFamily,
    _bezout_resultant,
    base_change_pi_squared,
    binary_discriminant,
    constant_family,
    discriminant_section,
    even_odd_split,
    hyperell_order,
    negate_v,
    order_doubling_experiment,
    perturb_hyperelliptic,
    reduction_hilbert_function,
    rescale_v,
    ribbon_order,
)
from ribbonlab.poly import BinaryForm, WPoly, monomials
from ribbonlab.xg import (
    XgIdeal,
    canonical_ribbon_ideal,
    hilbert_function,
    hyperelliptic_model,
    random_ribbon_ell,
    split_ribbon_ideal,
    uu_keys,
)

from families_oracle import (
    oracle_hyperell_order,
    oracle_reduction_hilbert_function,
    oracle_ribbon_order,
    oracle_section,
)
from test_poly import sylvester_det


def octic():
    # x0^8 + x1^8, the staple example: distinct roots, small lift
    return BinaryForm(8, [1, 0, 0, 0, 0, 0, 0, 0, 1])


def random_squarefree(rng, degree):
    while True:
        h = BinaryForm(degree, [rng.randint(-5, 5) for _ in range(degree)] + [1])
        if binary_discriminant(h):
            return h


def reduced(fam, order):
    """fam mod pi^order, through the checking constructor."""
    return TruncatedFamily(fam.g, order, *fam.mapped(
        lambda name, key, p: p.map_coeffs(lambda c: c.truncate(order))))


def worked_family(order_bound=4):
    return perturb_hyperelliptic(3, octic(), 1, order_bound,
                                 [WPoly.v_var(3, 0)])


def test_perturbed_family_matches_hand_expansion():
    fam = worked_family()
    one = TruncatedScalar.from_rational(1, 4)
    pi = TruncatedScalar([0, 1, 0, 0])
    assert fam.g == 3 and fam.order_bound == 4
    key, p = fam.UU[0]
    assert key == (0, 2, 1, 1)
    assert p == WPoly(3, {(1, 0, 1, 0): one, (0, 2, 0, 0): -one, (0, 0, 0, 1): pi})
    key, p = fam.VV[0]
    assert key == (0, 0)
    assert p == WPoly(3, {(0, 0, 0, 2): one, (0, 0, 4, 0): -one, (4, 0, 0, 0): -one})
    assert fam.UV == []


def test_perturb_validations():
    h = octic()
    v0 = WPoly.v_var(3, 0)
    with pytest.raises(ValueError):
        perturb_hyperelliptic(3, h, 1, 2, [v0])  # bound must exceed 2d
    with pytest.raises(ValueError):
        perturb_hyperelliptic(3, h, 0, 4, [v0])
    with pytest.raises(ValueError):
        perturb_hyperelliptic(3, h, 1, 4, [v0, v0])
    with pytest.raises(ValueError):
        perturb_hyperelliptic(3, h, 1, 4, [WPoly.u_monomial(3, [0, 0])])
    with pytest.raises(ValueError):
        perturb_hyperelliptic(3, BinaryForm(6, [1, 0, 0, 0, 0, 0, 0]), 1, 4, [v0])


def test_zero_direction_gives_the_constant_family():
    fam = perturb_hyperelliptic(3, octic(), 1, 4, [WPoly.zero(3)])
    assert fam == constant_family(hyperelliptic_model(3, octic()), 4)
    assert hyperell_order(fam) == 4


def test_perturbation_is_invisible_below_its_order():
    fam = perturb_hyperelliptic(3, octic(), 2, 6, [WPoly.v_var(3, 0)])
    const = constant_family(hyperelliptic_model(3, octic()), 6)
    assert reduced(fam, 2) == reduced(const, 2)
    assert reduced(fam, 3) != reduced(const, 3)
    assert hyperell_order(fam) == 2


def test_rescale_worked_example():
    fam = worked_family()
    out = rescale_v(fam, 1)
    # dividing v by pi turns pi*v0 into v0 and pushes the quartics to pi^2;
    # the cleared pi costs one digit of precision
    assert out.order_bound == 3
    one = TruncatedScalar.from_rational(1, 3)
    pi2 = TruncatedScalar([0, 0, 1])
    assert out.UU[0][1] == WPoly(3, {(1, 0, 1, 0): one, (0, 2, 0, 0): -one,
                                     (0, 0, 0, 1): one})
    assert out.VV[0][1] == WPoly(3, {(0, 0, 0, 2): one, (0, 0, 4, 0): -pi2,
                                     (4, 0, 0, 0): -pi2})
    assert ribbon_order(out) == 2
    assert out.order_bound > 2  # the order is exact, not just capped


def test_rescale_identity_and_round_trip():
    fam = worked_family()
    assert rescale_v(fam, 0) is fam
    back = rescale_v(rescale_v(fam, 1), -1)
    assert back == reduced(fam, back.order_bound)
    assert back.order_bound == 1


def test_rescale_rejects_inexact_division():
    fam = worked_family()
    with pytest.raises(ValueError):
        rescale_v(fam, 2)  # the v0 coefficient is only divisible by pi once
    const = constant_family(hyperelliptic_model(3, octic()), 5)
    with pytest.raises(ValueError):
        rescale_v(const, -1)  # undoing a rescale that never happened
    # the split ribbon has no quartic terms, so it rescales both ways
    split = constant_family(split_ribbon_ideal(3), 5)
    assert rescale_v(split, -1).order_bound == 3


def test_shape_orders():
    split = constant_family(split_ribbon_ideal(4), 5)
    assert ribbon_order(split) == 5
    const = constant_family(hyperelliptic_model(4, random_squarefree(random.Random(3), 10)), 5)
    assert hyperell_order(const) == 5
    assert ribbon_order(const) == 0  # the quartics are there at pi^0
    fam = perturb_hyperelliptic(3, octic(), 2, 6, [WPoly.v_var(3, 0)])
    assert hyperell_order(fam) == 2
    assert ribbon_order(fam) == 0
    assert ribbon_order(rescale_v(fam, 2)) == 4


def test_even_odd_split_of_a_perturbation():
    rng = random.Random(11)
    h = random_squarefree(rng, 10)
    ell = random_ribbon_ell(4, rng)
    fam = perturb_hyperelliptic(4, h, 1, 4, ell)
    base = hyperelliptic_model(4, h)
    even, odd = even_odd_split(fam, base)
    for name in ("UU", "UV", "VV"):
        for _, p in even[name]:
            assert not p
    for (key, p), ell_e in zip(odd["UU"], ell):
        lifted = ell_e.map_coeffs(lambda c: TruncatedScalar.from_rational(c, 4).shift(1))
        assert p == lifted
    for name in ("UV", "VV"):
        for _, p in odd[name]:
            assert not p


def test_even_odd_split_sees_even_terms():
    base = hyperelliptic_model(3, octic())
    fam = constant_family(base, 4)
    bump = WPoly.u_monomial(3, [0, 1]).map_coeffs(
        lambda c: TruncatedScalar.from_rational(c, 4).shift(2))
    key, p = fam.UU[0]
    fam = TruncatedFamily(3, 4, [(key, p + bump)], fam.UV, fam.VV)
    even, odd = even_odd_split(fam, base)
    assert even["UU"][0][1] == bump
    assert not odd["UU"][0][1]
    # base + even + odd reassembles the family
    lifted_base = base.UU[0][1].map_coeffs(lambda c: TruncatedScalar.from_rational(c, 4))
    assert lifted_base + even["UU"][0][1] + odd["UU"][0][1] == fam.UU[0][1]


def test_even_odd_split_requires_the_right_base():
    fam = worked_family()
    with pytest.raises(ValueError):
        even_odd_split(fam, split_ribbon_ideal(3))


def test_negate_v_involution():
    rng = random.Random(13)
    h = random_squarefree(rng, 10)
    ell = random_ribbon_ell(4, rng)
    fam = perturb_hyperelliptic(4, h, 1, 4, ell)
    flipped = negate_v(fam)
    assert flipped == perturb_hyperelliptic(4, h, 1, 4, [-e for e in ell])
    assert negate_v(flipped) == fam
    const = constant_family(hyperelliptic_model(4, h), 4)
    assert negate_v(const) == const
    split = constant_family(split_ribbon_ideal(4), 3)
    assert negate_v(split) == split


def test_discriminant_section_round_trip():
    sec = discriminant_section(rescale_v(worked_family(), 1))
    assert sec == octic() and sec.degree == 8
    rng = random.Random(17)
    h = random_squarefree(rng, 10)
    fam = perturb_hyperelliptic(4, h, 1, 5, random_ribbon_ell(4, rng))
    assert discriminant_section(rescale_v(fam, 1)) == h


def test_discriminant_section_needs_an_exact_even_order():
    split = constant_family(split_ribbon_ideal(3), 4)
    with pytest.raises(ValueError):
        discriminant_section(split)  # in ribbon form to the bound
    key, p = split.VV[0]
    bump = WPoly.u_monomial(3, [0] * 4).map_coeffs(
        lambda c: TruncatedScalar.from_rational(c, 4).shift(1))
    odd = TruncatedFamily(3, 4, split.UU, split.UV, [(key, p + bump)])
    with pytest.raises(ValueError):
        discriminant_section(odd)  # leaves ribbon form at an odd order


def test_binary_discriminant_detects_multiple_roots():
    factors = [(1, 0), (0, 1), (1, -1), (1, 1), (1, -2), (1, 2), (1, -3), (1, 3)]
    s = BinaryForm(0, [1])
    for a, b in factors:
        s = s * BinaryForm(1, [b, a])  # a*x0 + b*x1
    assert binary_discriminant(s) != 0
    assert binary_discriminant(octic()) != 0
    double = BinaryForm(2, [0, 0, 1]) * BinaryForm(6, [1] * 7)  # x0^2 factor
    assert binary_discriminant(double) == 0
    with pytest.raises(ValueError):
        binary_discriminant(BinaryForm(8))


def random_form(rng, degree):
    """Rational coefficients, zeros among them, at the ends too."""
    coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.7 else 0
              for _ in range(degree + 1)]
    for end in (0, degree):
        if rng.random() < 0.3:
            coeffs[end] = 0
    return BinaryForm(degree, coeffs)


def test_bezout_discriminant_matches_sylvester_oracle():
    rng = random.Random(61)
    for degree in range(1, 13):
        for _ in range(12):
            s = random_form(rng, degree)
            if not s:
                continue
            d0, d1 = s.derivative(0), s.derivative(1)
            r = sylvester_det(d0, d1)
            assert _bezout_resultant(d0, d1) == r, s
            lead = s.coeff(degree)
            assert binary_discriminant(s) == (r / lead if lead else r), s
        # equal-degree pairs that are no partials of one form, m = degree - 1
        for _ in range(6):
            f, g = random_form(rng, degree - 1), random_form(rng, degree - 1)
            assert _bezout_resultant(f, g) == sylvester_det(f, g), (f, g)
    # a shared root, also at infinity, makes both vanish
    line = BinaryForm(1, [1, -2])
    for root in (line, BinaryForm(1, [0, 1]), BinaryForm(1, [1, 0])):
        f, g = root * random_form(rng, 4), root * random_form(rng, 4)
        assert _bezout_resultant(f, g) == sylvester_det(f, g) == 0


def shape_test_families(rng):
    """Perturbed, rescaled, negated and bumped families of genus 3 to 5."""
    for g in (3, 4, 5):
        h = random_squarefree(rng, 2 * g + 2)
        yield constant_family(split_ribbon_ideal(g), 4)
        yield constant_family(hyperelliptic_model(g, h), 4)
        yield constant_family(canonical_ribbon_ideal(g, random_ribbon_ell(g, rng)), 3)
        for d in (1, 2):
            fam = perturb_hyperelliptic(g, h, d, 3 * d + 2, random_ribbon_ell(g, rng))
            rescaled = rescale_v(fam, d)
            for member in (fam, rescaled, rescale_v(rescaled, -1), negate_v(fam),
                           negate_v(rescaled), base_change_pi_squared(fam)):
                yield member
                yield bumped(rng, member)


def bumped(rng, fam):
    """fam with one random term added at a random pi-digit of one generator.

    At digit 0 the bump may take a base term away, or put back what the
    family already had there.
    """
    g, n = fam.g, fam.order_bound
    groups = [list(fam.UU), list(fam.UV), list(fam.VV)]
    name = rng.choice([i for i, items in enumerate(groups) if items])
    index = rng.randrange(len(groups[name]))
    key, p = groups[name][index]
    if rng.random() < 0.5:
        e, c = rng.choice(list(p.terms.items()))
        c = -c.constant_term()  # cancels the term's constant digit
    else:
        e = rng.choice(monomials(g, (2, 3, 4)[name]))
        c = Fraction(rng.randint(1, 3))
    digit = rng.randrange(n)
    bump = WPoly(g, {e: TruncatedScalar.from_rational(c, n).shift(digit)})
    groups[name][index] = (key, p + bump)
    return TruncatedFamily(g, n, *groups)


def test_shape_orders_match_lift_and_subtract_oracle():
    rng = random.Random(67)
    seen = set()
    for fam in shape_test_families(rng):
        r, h = ribbon_order(fam), hyperell_order(fam)
        assert r == oracle_ribbon_order(fam), fam
        assert h == oracle_hyperell_order(fam), fam
        seen.add((r == 0, r == fam.order_bound, h == 0, h == fam.order_bound))
    # every order was seen at zero, strictly inside and at the bound
    assert {s[:2] for s in seen} >= {(True, False), (False, False), (False, True)}
    assert {s[2:] for s in seen} >= {(True, False), (False, False), (False, True)}


def test_discriminant_section_matches_oracle():
    rng = random.Random(71)
    for g in (3, 4, 5):
        h = random_squarefree(rng, 2 * g + 2)
        # at m = 0 the quartics sit in the constant digit, beside the base terms
        const = constant_family(hyperelliptic_model(g, h), 3)
        assert discriminant_section(const) == oracle_section(const, 0) == h
        for d in (1, 2):
            fam = rescale_v(perturb_hyperelliptic(g, h, d, 3 * d + 2,
                                                  random_ribbon_ell(g, rng)), d)
            assert discriminant_section(fam) == oracle_section(fam, ribbon_order(fam)) == h


def test_order_doubling_experiment():
    rng = random.Random(19)
    for g, d in [(3, 1), (3, 2), (4, 1)]:
        h = random_squarefree(rng, 2 * g + 2)
        ell = random_ribbon_ell(g, rng)
        report = order_doubling_experiment(g, h, d, ell)
        assert report["hyperell_order"] == d
        assert report["ribbon_order"] == 2 * d
        assert report["ribbon_order"] < report["rescaled_order_bound"]
        assert report["section_matches_input"]
        assert report["binary_discriminant"] != "0"
    with pytest.raises(ValueError):
        order_doubling_experiment(3, octic(), 1, [WPoly.zero(3)])


def test_base_change_pi_squared_doubles_orders():
    fam = worked_family()
    stretched = base_change_pi_squared(fam)
    assert stretched.order_bound == 7
    assert hyperell_order(fam) == 1 and hyperell_order(stretched) == 2
    coeff = dict(stretched.UU[0][1].terms)[(0, 0, 0, 1)]
    assert coeff == TruncatedScalar([0, 0, 1, 0, 0, 0, 0])
    rescaled = rescale_v(fam, 1)
    assert ribbon_order(base_change_pi_squared(rescaled)) == 2 * ribbon_order(rescaled)


def free_through(table):
    """The largest m of the table through which the reductions are free."""
    m = 1
    while m + 1 in table and table[m + 1] == [(m + 1) * x for x in table[1]]:
        m += 1
    return m


def test_reduction_numbers_of_constant_families_are_free():
    split = constant_family(split_ribbon_ideal(4), 3)
    fiber = hilbert_function(split_ribbon_ideal(4), "weighted", [2, 3, 4])
    table = reduction_hilbert_function(split, 3, [2, 3, 4])
    assert list(table) == [1, 2, 3]
    for m in (1, 2, 3):
        assert table[m] == [m * x for x in fiber]


def test_reduction_numbers_across_rescaling():
    rng = random.Random(7)
    h = random_squarefree(rng, 10)
    ell = random_ribbon_ell(4, rng)
    fam = perturb_hyperelliptic(4, h, 1, 4, ell)
    out = rescale_v(fam, 1)
    fiber = hilbert_function(hyperelliptic_model(4, h), "weighted", [2, 3, 4])
    table, out_table = (reduction_hilbert_function(fam, 2, [2, 3, 4]),
                        reduction_hilbert_function(out, 3, [2, 3, 4]))
    # mod pi the hyperelliptic fiber and the ribbon fiber agree ...
    assert table[1] == fiber
    assert out_table[1] == fiber
    # ... and the rescaled family stays free exactly up to the doubled order:
    # the family leaves ribbon form at pi^2, and freeness stops there too
    assert out_table[2] == [2 * x for x in fiber]
    assert out_table[3][2] == 60 != 3 * 21
    # the unrescaled perturbation carries only the odd leading term, with no
    # compensating even terms at the next order, so it is not free mod pi^2
    assert table[2][2] == 39 != 2 * 21


def test_rescaling_an_unliftable_direction_changes_the_fiber_numbers():
    # (v1, 0, 0) admits no ribbon structure at g=4; rescaling it produces a
    # smaller degree-3 fiber slice than the hyperelliptic model it came from
    h = random_squarefree(random.Random(23), 10)
    fam = perturb_hyperelliptic(4, h, 1, 4, [WPoly.v_var(4, 1), WPoly.zero(4), WPoly.zero(4)])
    out = rescale_v(fam, 1)
    assert reduction_hilbert_function(fam, 1, [3]) == {1: [15]}
    assert reduction_hilbert_function(out, 1, [3]) == {1: [13]}


def test_reduction_table_rejects_a_modulus_outside_the_bound():
    fam = worked_family()
    for modulus in (0, 5):
        with pytest.raises(ValueError, match="modulus"):
            reduction_hilbert_function(fam, modulus, [2])


def test_reduction_table_matches_the_per_modulus_oracle():
    rng = random.Random(41)
    degrees = [2, 3, 4]
    families = []
    for g in (3, 4, 5):
        for d in (1, 2, 3):
            fam = perturb_hyperelliptic(g, random_squarefree(rng, 2 * g + 2), d,
                                        3 * d + 1, random_ribbon_ell(g, rng))
            families += [fam, rescale_v(fam, d)]
        h = random_squarefree(rng, 2 * g + 2)
        families += [constant_family(split_ribbon_ideal(g), 3),
                     constant_family(hyperelliptic_model(g, h), 3)]
    for fam in families:
        table = reduction_hilbert_function(fam, fam.order_bound, degrees)
        assert list(table) == list(range(1, fam.order_bound + 1))
        for m, dims in table.items():
            assert dims == oracle_reduction_hilbert_function(fam, m, degrees), (fam, m)


def test_flatness_order_doubles_under_rescaling():
    # order doubling stated as flatness: perturbed at pi^d, the family is free
    # through exactly d; rescaled by d, through exactly 2d
    rng = random.Random(43)
    for g in (4, 5):
        for d in (1, 2, 3):
            fam = perturb_hyperelliptic(g, random_squarefree(rng, 2 * g + 2), d,
                                        3 * d + 1, random_ribbon_ell(g, rng))
            scaled = rescale_v(fam, d)
            assert scaled.order_bound == 2 * d + 1
            assert free_through(reduction_hilbert_function(fam, d + 1, [2, 3, 4])) == d
            assert free_through(reduction_hilbert_function(
                scaled, scaled.order_bound, [2, 3, 4])) == 2 * d


def test_flatness_at_genus_three_reaches_the_bound():
    # both g=3 models are complete intersections, so every family is free
    rng = random.Random(47)
    for d in (1, 2, 3):
        fam = perturb_hyperelliptic(3, random_squarefree(rng, 8), d, 3 * d + 1,
                                    random_ribbon_ell(3, rng))
        for family in (fam, rescale_v(fam, d)):
            table = reduction_hilbert_function(family, family.order_bound, [2, 3, 4])
            assert free_through(table) == family.order_bound


def test_truncation_refuses_a_generator_it_empties():
    # rescaling by k = 1 leaves v0^2 unshifted and truncates it to order 2
    split = constant_family(split_ribbon_ideal(3), 3)

    def vv_family(digits):
        vv = [((0, 0), WPoly(3, {(0, 0, 0, 2): TruncatedScalar(digits)}))]
        return TruncatedFamily(3, 3, split.UU, split.UV, vv)

    assert rescale_v(vv_family([0, 1, 0]), 1).VV == [
        ((0, 0), WPoly(3, {(0, 0, 0, 2): TruncatedScalar([0, 1])}))]
    with pytest.raises(ValueError) as err:
        rescale_v(vv_family([0, 0, 1]), 1)
    assert str(err.value) == "VV generator (0, 0) must be weighted-homogeneous of degree 4"


def test_family_json_round_trip():
    fam = rescale_v(worked_family(), 1)
    data = fam.to_json()
    assert TruncatedFamily.from_json(data) == fam


def test_family_document_sums_a_split_term():
    # a monomial listed twice is read as the sum of its coefficients; a sum
    # across truncation orders is refused, and a rational coefficient is no
    # truncated series wherever it is listed
    data = rescale_v(worked_family(), 1).to_json()
    term = data["VV"][0]["poly"][0]
    assert term["c"] == ["0", "0", "-1"]
    split = json.loads(json.dumps(data))
    split["VV"][0]["poly"][0:1] = [dict(term, c=["1", "0", "-3"]),
                                   dict(term, c=["-1", "0", "2"])]
    assert TruncatedFamily.from_json(split) == TruncatedFamily.from_json(data)
    split["VV"][0]["poly"][1]["c"] = ["-1", "0"]
    with pytest.raises(ValueError, match="^truncation order mismatch: 3 vs 2$"):
        TruncatedFamily.from_json(split)
    for first, second in ((["1", "0", "-3"], "-1"), ("-1", ["1", "0", "-3"])):
        split["VV"][0]["poly"][0:2] = [dict(term, c=first), dict(term, c=second)]
        with pytest.raises(ValueError, match="^a truncated series must be a list, got '-1'$"):
            TruncatedFamily.from_json(split)


def test_family_document_refuses_a_generator_of_the_wrong_degree_by_name():
    # an inhomogeneous generator is refused as a homogeneous one of the wrong
    # weighted degree is: by its group and key
    data = constant_family(split_ribbon_ideal(3), 2).to_json()
    v0_squared = data["VV"][0]["poly"][0]
    for poly in ([{"u": [3, 0, 0], "v": [0], "c": ["1", "0"]}],
                 [v0_squared, {"u": [1, 0, 0], "v": [0], "c": ["1", "0"]}]):
        data["VV"][0]["poly"] = poly
        with pytest.raises(ValueError, match=r"^VV generator \(0, 0\) must be "
                           "weighted-homogeneous of degree 4$"):
            TruncatedFamily.from_json(data)


def test_family_validation():
    split = constant_family(split_ribbon_ideal(3), 3)
    with pytest.raises(ValueError):
        TruncatedFamily(3, 3, [], split.UV, split.VV)
    mixed = [(k, p.map_coeffs(lambda c: c.truncate(2))) for k, p in split.UU]
    with pytest.raises(ValueError):
        TruncatedFamily(3, 3, mixed, split.UV, split.VV)
    with pytest.raises(ValueError):
        TruncatedFamily(3, 3, split.VV, split.UV, split.UU)  # groups swapped
    bad = [(k, p + WPoly.u_var(3, 0).map_coeffs(
        lambda c: TruncatedScalar.from_rational(c, 3))) for k, p in split.UU]
    with pytest.raises(ValueError):
        TruncatedFamily(3, 3, bad, split.UV, split.VV)


@pytest.mark.parametrize("g", [3, 4, 5])
def test_constant_family_reduces_to_its_ideal(g):
    rng = random.Random(31 + g)
    for ideal in (split_ribbon_ideal(g),
                  hyperelliptic_model(g, random_squarefree(rng, 2 * g + 2)),
                  canonical_ribbon_ideal(g, random_ribbon_ell(g, rng))):
        assert constant_family(ideal, 3).special_fiber() == ideal


def test_a_fibre_never_equals_a_family():
    # mod pi^1 every coefficient compares equal to its rational value, so
    # only the type tells the fibre from the family
    fam = constant_family(split_ribbon_ideal(3), 1)
    same_groups = XgIdeal(3, fam.UU, fam.UV, fam.VV)
    for fibre in (same_groups, fam.special_fiber(), split_ribbon_ideal(3)):
        assert fibre != fam and fam != fibre
        assert not (fibre == fam or fam == fibre)


def test_families_differing_only_in_order_bound_are_unequal():
    ideal = hyperelliptic_model(3, octic())
    assert constant_family(ideal, 3) != constant_family(ideal, 4)
    assert constant_family(ideal, 4) == constant_family(ideal, 4)
