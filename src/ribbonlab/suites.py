"""The verify suites: seeded property checks of the package's claims, as data.

A suite maps (gmax, dmax) to a list of (check, params) items.  A check is a
module-level function named after the property it tests; `run_items` calls
it as check(rng, **params) and returns (ok, counterexample, detail).  The
params dict is therefore both the record in the output document and the
exact arguments the check ran with.  The generator of an item is seeded by
a stable checksum of (seed, suite, property, params) (`xg.rng_for`), so
every item draws the same inputs whatever ran before it.

The random generators and the catalecticant minors are shared with the
acceptance tests.
"""

from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random

from .conormal import (
    LambdaFunctional,
    is_limit_quadric,
    is_limit_relation,
    phi_d,
    phi_kernel_slice,
    psi_d,
    ribbon_slice,
)
from .exact import _ZERO, RatMatrix, rat, sparse_rank
from .families import (
    TruncatedFamily,
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
)
from .fitting import phi2_symbolic, symbolic_minor, verify_power_ideal
from .poly import BinaryForm, WPoly, monomials, veronese_pullback
from .rnc import IdealSlice, QuadForm, hankel_generators, ideal_slice
from .rnc import ideal_square_slice, q_to_quadric
from .xg import (
    XgIdeal,
    canonical_ribbon_ideal,
    certify_groebner,
    eliminate_v_degree,
    generator_multiples,
    hilbert_function,
    hyperelliptic_model,
    random_ribbon_ell,
    rng_for,
    split_ribbon_evaluation,
    split_ribbon_ideal,
    syzygies_by_degree,
)


def run_items(suite: str, items, seed: int):
    """Run (check, params) items in order; failures are data, not crashes."""
    results = []
    for check, params in items:
        prop = check.__name__
        try:
            ok, counter, detail = check(rng_for(seed, suite, prop, params), **params)
        except Exception as exc:
            ok = False
            counter = {"error": "%s: %s" % (type(exc).__name__, exc)}
            detail = None
        item = {"property": prop, "params": params, "pass": bool(ok),
                "counterexample": counter if not ok else None}
        if detail is not None:
            item["detail"] = detail
        results.append(item)
    return results


# ---------------------------------------------------------------------------
# random generators and fixed witnesses

def random_quad(g: int, rng: Random) -> QuadForm:
    n = g - 2
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = entries[j][i] = Fraction(rng.randint(-4, 4))
    return QuadForm(g, entries)


def random_degenerate_quad(g: int, rng: Random) -> QuadForm:
    """A sum of g-3 rank-one blocks; rank < g-2 by construction."""
    n = g - 2
    entries = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(n - 1):
        vec = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                entries[i][j] += vec[i] * vec[j]
    return QuadForm(g, entries)


def random_binary_form(degree: int, rng: Random) -> BinaryForm:
    """A nonzero form; each try draws degree+1 coefficients in [-6, 6]."""
    while True:
        form = BinaryForm(degree, [Fraction(rng.randint(-6, 6))
                                   for _ in range(degree + 1)])
        if not form.is_zero():
            return form


def random_squarefree_form(degree: int, rng: Random) -> BinaryForm:
    """A form of exact degree with nonzero discriminant."""
    while True:
        form = random_binary_form(degree, rng)
        if form.coeff(degree) and binary_discriminant(form) != 0:
            return form


def _random_slice_element(slice_: IdealSlice, rng: Random) -> WPoly:
    out = WPoly(slice_.g, {})
    for p in slice_.basis:
        c = rng.randint(-3, 3)
        if c:
            out = out + p.map_coeffs(lambda x, c=c: x * c)
    return out


def catalecticant_3x3_minors(g: int):
    """All C(g-2, 3) 3x3 minors of the 3 x (g-2) catalecticant [u_{i+j}].

    These secant cubics are singular along the rational normal curve.
    """
    u = [WPoly.u_var(g, i) for i in range(g)]
    minors = []
    for cols in combinations(range(g - 2), 3):
        m = [[u[i + j] for j in cols] for i in range(3)]
        minors.append(m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                      - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                      + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return minors


# ---------------------------------------------------------------------------
# rnc suite

def quadric_slice_dimension(rng, g):
    want = (g - 1) * (g - 2) // 2
    got = ideal_slice(g, 2).dim
    return got == want, None if got == want else {"got": got, "want": want}, None


def q_to_quadric_lands_in_ideal(rng, g, samples):
    slice2 = ideal_slice(g, 2)
    for _ in range(samples):
        q = random_quad(g, rng)
        x = q_to_quadric(q)
        if x and (not veronese_pullback(x).is_zero() or not slice2.contains(x)):
            return False, {"q": q.to_json()}, None
    return True, None, None


def q_to_quadric_injective(rng, g):
    slice2 = ideal_slice(g, 2)
    n = g - 2
    rows = [slice2.vector_of(x) for x in hankel_generators(g)]
    rank = sparse_rank(rows, len(slice2.monomials))
    want = n * (n + 1) // 2
    ok = rank == want == slice2.dim
    return ok, None if ok else {"rank": rank, "want": want}, None


def square_slice_inside_ideal_slice(rng, g, d):
    big = ideal_slice(g, d)
    for p in ideal_square_slice(g, d).basis:
        if not big.contains(p):
            return False, {"poly": p.to_json()}, None
    return True, None, None


def normal_space_dimension(rng, g, d):
    # only sound for d >= 4: in degree 3 the polynomial square misses the
    # saturation (cubics singular along the curve exist for g >= 5), so the
    # conormal-section count is carried by rank(phi_3), not by this difference
    total = ideal_slice(g, d).dim
    square = ideal_square_slice(g, d).dim
    want = (g - 2) * ((d - 1) * (g - 1) - 1)
    ok = total - square == want
    return ok, None if ok else {"slice": total, "square": square, "want": want}, None


def rnc_items(gmax, dmax):
    items = [(quadric_slice_dimension, {"g": g}) for g in range(3, gmax + 1)]
    for g in range(3, min(gmax, 6) + 1):
        items += [(q_to_quadric_lands_in_ideal, {"g": g, "samples": 12}),
                  (q_to_quadric_injective, {"g": g}),
                  (normal_space_dimension, {"g": g, "d": 4})]
        items += [(square_slice_inside_ideal_slice, {"g": g, "d": d})
                  for d in (4, 5) if d <= max(dmax, 4)]
    return items


# ---------------------------------------------------------------------------
# conormal suite

def phi2_inverts_q_to_quadric(rng, g, samples):
    for _ in range(samples):
        q = random_quad(g, rng)
        if phi_d(q_to_quadric(q), 2) != q.mat:
            return False, {"q": q.to_json()}, None
    return True, None, None


def row_product_rule(rng, g, d, samples):
    s = ideal_slice(g, d)
    for _ in range(samples):
        x = _random_slice_element(s, rng)
        if not x:
            continue
        m = phi_d(x, d)
        j = rng.randrange(g)
        m_up = phi_d(WPoly.u_var(g, j) * x, d + 1)
        uj = veronese_pullback(WPoly.u_var(g, j))
        for i in range(g - 2):
            if BinaryForm(m_up.ncols - 1, m_up.rows[i]) != uj * BinaryForm(m.ncols - 1, m.rows[i]):
                return False, {"j": j, "row": i}, None
    return True, None, None


def phi_kernel_is_ideal_square(rng, g, d):
    kernel = phi_kernel_slice(g, d)
    square = ideal_square_slice(g, d)
    ok = kernel == square
    return ok, None if ok else {"kernel_dim": kernel.dim, "square_dim": square.dim}, None


def phi_3_kernel_is_secant_cubic_span(rng, g):
    """Cubics killed by phi_3: none below g=5, secant catalecticants after.

    Products of quadrics cannot appear in degree 3, yet for g >= 5 the 3x3
    catalecticant minors are singular along the curve and die under the
    conormal map, so the degree-3 kernel is their span rather than the
    (empty) square slice.
    """
    kernel = phi_kernel_slice(g, 3)
    want = comb(g - 2, 3)  # one 3x3 minor per column triple of the Hankel matrix
    if kernel.dim != want:
        return False, {"kernel_dim": kernel.dim, "want": want}, None
    if not all(kernel.contains(p) for p in catalecticant_3x3_minors(g)):
        return False, {"missing": "hankel 3x3 determinant"}, None
    return True, None, {"kernel_dim": kernel.dim}


def phi_d_full_rank(rng, g, d):
    want = (g - 2) * ((d - 1) * (g - 1) - 1)
    got = ideal_slice(g, d).dim - phi_kernel_slice(g, d).dim
    return got == want, None if got == want else {"rank": got, "want": want}, None


def _mixed_quads(g, samples, rng):
    """Random quadrics, generic at even and degenerate at odd positions."""
    for t in range(samples):
        yield random_quad(g, rng) if t % 2 == 0 else random_degenerate_quad(g, rng)


def rank_phi2_equals_rank_q(rng, g, samples):
    for q in _mixed_quads(g, samples, rng):
        if not q.is_zero() and phi_d(q_to_quadric(q), 2).rank() != q.mat.rank():
            return False, {"q": q.to_json()}, None
    return True, None, None


def ribbon_slice_ideal_property(rng, g, d, samples):
    for _ in range(samples):
        lam = LambdaFunctional(g, [Fraction(rng.randint(-3, 3))
                                   for _ in range(g - 2)])
        if lam.is_zero():
            lam = LambdaFunctional.basis_vector(g, 0)
        low = ribbon_slice(lam, g, d)
        high = ribbon_slice(lam, g, d + 1)
        for p in low.basis:
            for j in range(g):
                if not high.contains(WPoly.u_var(g, j) * p):
                    return False, {"lambda": lam.to_json(), "j": j}, None
    return True, None, None


def limit_three_way_agreement(rng, g, samples):
    for q in _mixed_quads(g, samples, rng):
        degenerate, witness = is_limit_quadric(q)
        if degenerate != (q.det() == 0):
            return False, {"q": q.to_json(), "leg": "det"}, None
        if q.is_zero():
            continue
        x = q_to_quadric(q)
        flag, _ = is_limit_relation(x, 2)
        if flag != degenerate:
            return False, {"q": q.to_json(), "leg": "rank"}, None
        if degenerate and not psi_d(witness, x, 2).is_zero():
            return False, {"q": q.to_json(), "leg": "witness"}, None
    return True, None, None


def conormal_items(gmax, dmax):
    items = []
    for g in range(3, min(gmax, 6) + 1):
        items += [(phi2_inverts_q_to_quadric, {"g": g, "samples": 12}),
                  (rank_phi2_equals_rank_q, {"g": g, "samples": 12}),
                  (limit_three_way_agreement, {"g": g, "samples": 16})]
    for g in range(3, min(gmax, 5) + 1):
        items += [(row_product_rule, {"g": g, "d": d, "samples": 4})
                  for d in (2, 3) if d <= dmax]
        items += [(phi_kernel_is_ideal_square, {"g": g, "d": 4}),
                  (phi_3_kernel_is_secant_cubic_span, {"g": g})]
    for g in range(3, min(gmax, 6) + 1):
        items += [(phi_d_full_rank, {"g": g, "d": d})
                  for d in range(3, min(dmax, 4) + 1)]
    items += [(ribbon_slice_ideal_property, {"g": g, "d": 2, "samples": 4})
              for g in range(4, min(gmax, 6) + 1)]
    return items


# ---------------------------------------------------------------------------
# xg suite

def split_membership_evaluation_oracle(rng, g, degree):
    ideal = split_ribbon_ideal(g)
    basis = monomials(g, degree)
    one = Fraction(1)
    spots = []
    for e in basis:
        monomial = WPoly._raw(g, {e: one})
        first, second = split_ribbon_evaluation(monomial)
        coords = first.coeffs + second.coeffs
        # the evaluation's zeros are one shared object, so most entries are
        # passed over by identity, without Fraction.__bool__
        image = [i for i, c in enumerate(coords) if c is not _ZERO and c]
        if len(image) > 1:
            return False, {"monomial": monomial.to_json(), "coordinates": image}, None
        if image:
            i = image[0]
            # an integral value as an int, like the generator multiples' entries
            c = coords[i]
            spots.append((i, c.numerator if c.denominator == 1 else c))
        else:
            spots.append(None)
    # the evaluation is linear and sends each monomial to at most one
    # coordinate, so a generator multiple's image is read off these spots
    gens = ideal.generators()
    layout, multiples, _ = generator_multiples(gens, degree, basis)
    for (k, _), multiple in zip(layout, multiples):
        image = {}
        for col, c in multiple.items():
            if spots[col]:
                i, value = spots[col]
                image[i] = image.get(i, 0) + value * c
        if any(image.values()):
            return False, {"generator": gens[k].to_json()}, None
    # the two kernels coincide iff the evaluation rank matches the slice rank;
    # with one coordinate per monomial, that rank counts the coordinates hit
    rank = len({spot[0] for spot in spots if spot})
    want = len(basis) - hilbert_function(ideal, "weighted", [degree])[0]
    ok = len(basis) - rank == want
    return ok, None if ok else {"evaluation_kernel": len(basis) - rank,
                                "slice_dim": want}, None


def hilbert_function_closed_form(rng, g, model, dmax):
    degrees = list(range(2, dmax + 1))
    if model == "split":
        ideal = split_ribbon_ideal(g)
    elif model == "hyperelliptic":
        ideal = hyperelliptic_model(g, random_squarefree_form(2 * g + 2, rng))
    else:
        ideal = canonical_ribbon_ideal(g, random_ribbon_ell(g, rng))
    got = hilbert_function(ideal, "weighted", degrees)
    want = [(2 * d - 1) * (g - 1) for d in degrees]
    ok = got == want
    return ok, None if ok else {"got": got, "want": want}, None


def groebner_certificate_and_normal_counts(rng, g):
    ideal = split_ribbon_ideal(g)
    result = certify_groebner(ideal)
    if result is None:
        return False, {"reason": "grlex does not certify the generators"}, None
    degrees = list(range(0, 7))
    wants = hilbert_function(ideal, "weighted", degrees)
    for degree, want in zip(degrees, wants):
        got = result.normal_monomial_count(degree)
        if got != want:
            return False, {"degree": degree, "normal": got, "hilbert": want}, None
    return True, None, {"order": result.order}


def hilbert_series_closed_forms(rng, g):
    degrees = list(range(0, 7))
    computed = hilbert_function(split_ribbon_ideal(g), "weighted", degrees)
    one_less = [1, g] + [(g - 2) * (2 * n - 1) for n in degrees[2:]]
    expected = [1, g] + [(g - 1) * (2 * n - 1) for n in degrees[2:]]
    ok = computed == expected
    detail = {"computed": computed,
              "closed_form_g_minus_1": expected,
              "closed_form_g_minus_2": one_less}
    return ok, None if ok else {"computed": computed}, detail


def _scale_v(ideal: XgIdeal, t: Fraction) -> XgIdeal:
    g = ideal.g
    return XgIdeal(g, *ideal.mapped(
        lambda name, key, p: WPoly(g, {e: c * t ** sum(e[g:]) for e, c in p.terms.items()})))


def v_rescaling_invariance(rng, g, t):
    ideal = canonical_ribbon_ideal(g, random_ribbon_ell(g, rng))
    degrees = [2, 3, 4]
    before = hilbert_function(ideal, "weighted", degrees)
    after = hilbert_function(_scale_v(ideal, rat(t)), "weighted", degrees)
    ok = before == after
    return ok, None if ok else {"before": before, "after": after}, None


def syzygy_sums_vanish(rng, g, model):
    """Every syzygy representative through degree 6 sums to zero."""
    if model == "split":
        ideal, table = split_ribbon_ideal(g), "ribbon"
    else:
        h = random_squarefree_form(2 * g + 2, rng)
        ideal, table = hyperelliptic_model(g, h), "hyperelliptic"
    gens = ideal.generators()
    records = syzygies_by_degree(ideal, 6, table)
    for record in records.values():
        for rep in record.representatives:
            total = WPoly(g, {})
            for coeff_poly, gen in zip(rep, gens):
                total = total + coeff_poly * gen
            if total:
                return False, {"degree": record.degree}, None
    return True, None, None


def lambda_matches_eliminated_quadrics(rng, g):
    """The u-only quadrics of a weighted ribbon model are a ribbon slice.

    Solves psi_2(lam, x) = 0 for lam over the eliminated quadrics; the
    solution space must be a line and its slice must equal the eliminated
    slice exactly.
    """
    ell = random_ribbon_ell(g, rng)
    eliminated = eliminate_v_degree(canonical_ribbon_ideal(g, ell), 2)
    want_dim = ideal_slice(g, 2).dim - (g - 2)
    if eliminated.dim != want_dim:
        return False, {"dim": eliminated.dim, "want": want_dim}, None
    rows = [col for p in eliminated.basis for col in zip(*phi_d(p, 2).rows)]
    kernel = RatMatrix(rows, ncols=g - 2).kernel_basis()
    if len(kernel) != 1:
        return False, {"lambda_space_dim": len(kernel)}, None
    lam = LambdaFunctional(g, kernel[0]).normalized()
    if ribbon_slice(lam, g, 2) != eliminated:
        return False, {"lambda": lam.to_json()}, None
    return True, None, {"lambda": lam.to_json()}


def eliminated_quadric_is_square(rng, g):
    """At g = 3 the degree-4 v-elimination of the ribbon is the conic squared."""
    got = eliminate_v_degree(canonical_ribbon_ideal(g, [WPoly.v_var(g, 0)]), 4)
    q = WPoly(g, {(1, 0, 1, 0): Fraction(1), (0, 2, 0, 0): Fraction(-1)})
    ok = got == IdealSlice.from_polys(g, 4, [q * q])
    return ok, None if ok else {"dim": got.dim}, None


def xg_items(gmax, dmax):
    items = [(split_membership_evaluation_oracle, {"g": g, "degree": degree})
             for g in range(3, min(gmax, 5) + 1) for degree in range(2, 7)]
    for g in range(3, min(gmax, 6) + 1):
        items += [(hilbert_function_closed_form,
                   {"g": g, "model": model, "dmax": max(dmax, 4)})
                  for model in ("split", "hyperelliptic", "ribbon")]
        items += [(groebner_certificate_and_normal_counts, {"g": g}),
                  (hilbert_series_closed_forms, {"g": g}),
                  (v_rescaling_invariance, {"g": g, "t": "3/2"})]
    items += [(syzygy_sums_vanish, {"g": g, "model": "split"})
              for g in (3, 4) if g <= gmax]
    if gmax >= 3:
        items += [(syzygy_sums_vanish, {"g": 3, "model": "hyperelliptic"}),
                  (eliminated_quadric_is_square, {"g": 3})]
    items += [(lambda_matches_eliminated_quadrics, {"g": g})
              for g in range(3, min(gmax, 5) + 1)]
    return items


# ---------------------------------------------------------------------------
# fitting suite

def _power_ideal(m, r, mode):
    report = verify_power_ideal(m, r, mode)
    ok = report["all_realized"]
    counter = None
    if not ok:
        counter = [w for w in report["witnesses"] if w["columns"] is None][:3]
    return ok, counter, {"monomials_checked": report["monomials_checked"]}


def power_ideal_phi2(rng, m, r):
    return _power_ideal(m, r, "phi2")


def power_ideal_blocks(rng, m, r):
    return _power_ideal(m, r, "blocks")


def phi2_minor_homogeneity(rng, m):
    matrix = phi2_symbolic(m)
    for cols in combinations(range(matrix.ncols), matrix.nrows):
        for exps in symbolic_minor(matrix, list(cols)):
            if sum(exps) != m:
                return False, {"columns": list(cols), "exponents": list(exps)}, None
    return True, None, None


def fitting_items(gmax, dmax):
    return ([(power_ideal_phi2, {"m": m, "r": m}) for m in range(1, 6)]
            + [(power_ideal_blocks, {"m": m, "r": r})
               for m in range(1, 4) for r in range(m, 7)]
            + [(phi2_minor_homogeneity, {"m": m}) for m in range(2, 5)])


# ---------------------------------------------------------------------------
# families suite

def _perturbed(g, d, order_bound, rng):
    """(h, family): a random squarefree h perturbed at pi^d in a random direction."""
    h = random_squarefree_form(2 * g + 2, rng)
    return h, perturb_hyperelliptic(g, h, d, order_bound, random_ribbon_ell(g, rng))


def order_doubling(rng, g, d):
    h = random_squarefree_form(2 * g + 2, rng)
    return True, None, order_doubling_experiment(g, h, d, random_ribbon_ell(g, rng))


def fiber_hilbert_function_preserved(rng, g, d):
    h, family = _perturbed(g, d, 2 * d + 2, rng)
    scaled = rescale_v(family, d)
    degrees = [2, 3, 4]
    base = hilbert_function(hyperelliptic_model(g, h), "weighted", degrees)
    got = reduction_hilbert_function(family, 1, degrees)[1]
    got_scaled = reduction_hilbert_function(scaled, 1, degrees)[1]
    ok = got == base == got_scaled
    return ok, None if ok else {"base": base, "family": got,
                                "rescaled": got_scaled}, None


def rescaled_reductions_free_through_double_order(rng, g, d):
    scaled = rescale_v(_perturbed(g, d, 3 * d + 2, rng)[1], d)
    # the rescaled bound is 2d + 2, so the table reaches one modulus past 2d
    nxt = 2 * d + 1
    table = reduction_hilbert_function(scaled, nxt, [2, 3, 4])
    fiber = table[1]
    for m in range(2, nxt):
        if table[m] != [m * x for x in fiber]:
            return False, {"modulus": m, "got": table[m],
                           "free": [m * x for x in fiber]}, None
    return True, None, {"free_through": 2 * d,
                        "next_modulus": {"modulus": nxt,
                                         "free": table[nxt] == [nxt * x for x in fiber],
                                         "got": table[nxt]}}


def constant_family_reductions_free(rng, g, model):
    if model == "split":
        ideal = split_ribbon_ideal(g)
    else:
        ideal = hyperelliptic_model(g, random_squarefree_form(2 * g + 2, rng))
    table = reduction_hilbert_function(constant_family(ideal, 3), 3, [2, 3, 4])
    for m in (2, 3):
        if table[m] != [m * x for x in table[1]]:
            return False, {"modulus": m}, None
    return True, None, None


def even_odd_parts_transform_by_sign(rng, g, d):
    h, family = _perturbed(g, d, 2 * d + 1, rng)
    base = hyperelliptic_model(g, h)
    even, odd = even_odd_split(family, base)
    even_neg, odd_neg = even_odd_split(negate_v(family), base)
    for name in ("UU", "UV", "VV"):
        if even_neg[name] != even[name]:
            return False, {"group": name, "part": "even"}, None
        if [k for k, _ in odd_neg[name]] != [k for k, _ in odd[name]]:
            return False, {"group": name, "part": "odd"}, None
        for (_, p), (_, p_neg) in zip(odd[name], odd_neg[name]):
            if p + p_neg:
                return False, {"group": name, "part": "odd"}, None
    return True, None, None


def discriminant_zero_iff_square_factor(rng, g):
    # generic leg: 2g+2 pairwise distinct linear factors, squarefree by construction
    h = BinaryForm(0, [1])
    for r in rng.sample(range(-(2 * g + 2), 2 * g + 3), 2 * g + 2):
        h = h * BinaryForm(1, [r, 1])
    if binary_discriminant(h) == 0:
        return False, {"h": h.to_json(), "case": "generic"}, None
    factor = random_binary_form(2 * g, rng)
    line = BinaryForm(1, [Fraction(rng.randint(-3, 3)), Fraction(1)])
    if binary_discriminant(line * line * factor) != 0:
        return False, {"case": "forced square"}, None
    return True, None, None


def base_change_doubles_order(rng, g, d):
    family = _perturbed(g, d, 2 * d + 1, rng)[1]
    doubled = base_change_pi_squared(family)
    ok = (hyperell_order(doubled) == 2 * d
          and doubled.order_bound == 2 * family.order_bound - 1)
    return ok, None if ok else {"order": hyperell_order(doubled)}, None


def negate_v_fixes_untwisted_models(rng, g):
    split = constant_family(split_ribbon_ideal(g), 3)
    h = random_squarefree_form(2 * g + 2, rng)
    hyper = constant_family(hyperelliptic_model(g, h), 3)
    ok = negate_v(split) == split and negate_v(hyper) == hyper
    return ok, None if ok else {"g": g}, None


def family_json_round_trip(rng, g, d):
    h, family = _perturbed(g, d, 3 * d + 2, rng)
    scaled = rescale_v(family, d)
    ok = (TruncatedFamily.from_json(family.to_json()) == family
          and TruncatedFamily.from_json(scaled.to_json()) == scaled
          and discriminant_section(scaled) == h)
    return ok, None if ok else {"g": g, "d": d}, None


def families_items(gmax, dmax):
    items = [(order_doubling, {"g": g, "d": d})
             for g in range(3, min(gmax, 5) + 1) for d in range(1, min(dmax, 3) + 1)]
    for g in (3, 4):
        if g > gmax:
            continue
        items.append((fiber_hilbert_function_preserved, {"g": g, "d": 1}))
        items += [(rescaled_reductions_free_through_double_order, {"g": g, "d": d})
                  for d in (1, 2) if d <= dmax]
        items += [(constant_family_reductions_free, {"g": g, "model": model})
                  for model in ("split", "hyperelliptic")]
        items += [(even_odd_parts_transform_by_sign, {"g": g, "d": 1}),
                  (base_change_doubles_order, {"g": g, "d": 1}),
                  (family_json_round_trip, {"g": g, "d": 1})]
    for g in range(3, min(gmax, 5) + 1):
        items += [(discriminant_zero_iff_square_factor, {"g": g}),
                  (negate_v_fixes_untwisted_models, {"g": g})]
    return items


SUITES = {
    "rnc": rnc_items,
    "conormal": conormal_items,
    "xg": xg_items,
    "fitting": fitting_items,
    "families": families_items,
}
