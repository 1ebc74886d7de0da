"""JSON command line front end for the decision procedures and check suites.

Subcommands:

  limit-quadric   degeneracy verdict and kernel witness for a quadric direction
  limit-relation  rank verdict for a degree-d relation on the rational normal curve
  verify          run a property suite (rnc, conormal, xg, fitting, families, all)
  family          build / rescale / order / discriminant over pi-adic families

Every command prints one JSON document {"status": ..., "payload": ...},
whatever its input: a failure is a status "error" document whose payload
carries the message (an exception of an unexpected type is named in it, and
its traceback goes to stderr).  The bytes depend only on the inputs
and --seed: randomized checks derive their generator from a stable checksum
of (seed, suite, property, params), verify runs its items one after another
in a fixed order, and wall-clock timing goes to stderr, never into the
document.  Exit status is 0 only when the status is "ok" and, for verify,
every property passed.

limit-relation and verify refuse, before building anything, arguments that
reach a degree-d slice in g coordinates with more than MAX_SLICE_MONOMIALS
monomials: (g, d) for limit-relation, (gmax, max(dmax, 4)) for verify.
"""

import argparse
import json
import sys
import time
import zlib
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
    phi_map_matrix,
    psi_d,
    ribbon_slice,
)
from .exact import RatMatrix, rat, rat_to_str
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
    ribbon_order,
)
from .fitting import phi2_symbolic, symbolic_minor, verify_power_ideal
from .poly import BinaryForm, WPoly, monomials, veronese_pullback
from .rnc import IdealSlice, QuadForm, ideal_slice, ideal_square_slice, q_to_quadric
from .xg import (
    XgIdeal,
    canonical_ribbon_ideal,
    certify_groebner,
    eliminate_v_degree,
    hilbert_function,
    hyperelliptic_model,
    ideal_slice_dimension,
    random_ribbon_ell,
    split_ribbon_contains,
    split_ribbon_evaluation,
    split_ribbon_ideal,
    syzygies_by_degree,
)


class CommandError(ValueError):
    """Bad input or unusable arguments; reported as status error."""


# Cost guard: the largest slice of degree-d forms in u_0..u_{g-1} that a
# command may reach, counted by its comb(g - 1 + d, d) monomials.  5000
# admits the degree-4 slices up to g = 17, the degree-5 ones up to g = 12,
# the defaults of every command and every benchmark size; ideal_slice at
# (g, d) = (12, 5), 4368 monomials, takes several seconds.
MAX_SLICE_MONOMIALS = 5000


def _check_slice_size(g, d):
    """Refuse (g, d) before anything is built if its slice is over the guard.

    comb(g - 1 + d, d) is built up as comb(n - m + k, k) for k = 1..m with
    m = min(d, g - 1); every partial product is a smaller binomial, so the
    loop stops as soon as one passes the guard, however large g and d are.
    """
    m = min(d, g - 1)
    n = g - 1 + d
    count = 1
    for k in range(1, m + 1):
        count = count * (n - m + k) // k
        if count > MAX_SLICE_MONOMIALS:
            raise CommandError(
                "g=%d, d=%d reaches a slice of more than %d monomials "
                "(comb(g-1+d, d)); the cost guard allows at most %d"
                % (g, d, MAX_SLICE_MONOMIALS, MAX_SLICE_MONOMIALS))


# ---------------------------------------------------------------------------
# plumbing

def _reject_float(literal):
    raise CommandError("JSON number %s is not exact; write it as an integer "
                       "or a \"p/q\" string" % literal)


# json's hooks for non-integer numbers and for NaN/Infinity
_EXACT_JSON = {"parse_float": _reject_float, "parse_constant": _reject_float}


def _load_json_arg(text):
    """Accept inline JSON or a path to a JSON file; a float literal is refused."""
    stripped = text.strip()
    if stripped and stripped[0] in "[{-0123456789\"":
        try:
            return json.loads(stripped, **_EXACT_JSON)
        except json.JSONDecodeError as exc:
            raise CommandError("inline JSON is malformed: %s" % exc)
    try:
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh, **_EXACT_JSON)
    except OSError as exc:
        raise CommandError("cannot read %r: %s" % (text, exc))
    except json.JSONDecodeError as exc:
        raise CommandError("file %r is not valid JSON: %s" % (text, exc))


def _parse_binary_form(data) -> BinaryForm:
    if isinstance(data, dict):
        return BinaryForm.from_json(data)
    if isinstance(data, list):
        if not data:
            raise CommandError("a binary form needs at least one coefficient")
        return BinaryForm(len(data) - 1, [rat(c) for c in data])
    raise CommandError("expected a coefficient list or a degree/coeffs object")


def _parse_family(data) -> TruncatedFamily:
    if not isinstance(data, dict):
        raise CommandError("expected a family JSON object")
    try:
        return TruncatedFamily.from_json(data)
    except (KeyError, TypeError) as exc:
        raise CommandError("malformed family JSON: %s" % exc)


def _rng_for(seed: int, suite: str, prop: str, params: dict) -> Random:
    tag = "%d:%s:%s:%s" % (seed, suite, prop, json.dumps(params, sort_keys=True))
    return Random(zlib.crc32(tag.encode("utf-8")))


def _run_items(suite: str, items, seed: int):
    """Evaluate (property, params, fn) triples in order; failures are data, not crashes."""

    def run(entry):
        prop, params, fn = entry
        rng = _rng_for(seed, suite, prop, params)
        try:
            ok, counter, detail = fn(rng)
        except Exception as exc:
            ok = False
            counter = {"error": "%s: %s" % (type(exc).__name__, exc)}
            detail = None
        item = {"property": prop, "params": params, "pass": bool(ok),
                "counterexample": counter if not ok else None}
        if detail is not None:
            item["detail"] = detail
        return item

    return [run(entry) for entry in items]


# ---------------------------------------------------------------------------
# random generators for the suites

def _random_quad(g: int, rng: Random, bound: int = 4) -> QuadForm:
    n = g - 2
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c = Fraction(rng.randint(-bound, bound))
            entries[i][j] = c
            entries[j][i] = c
    return QuadForm(g, entries)


def _random_degenerate_quad(g: int, rng: Random, bound: int = 4) -> QuadForm:
    # a sum of g-3 rank-one blocks; rank < g-2 by construction
    n = g - 2
    entries = [[Fraction(0)] * n for _ in range(n)]
    for _ in range(n - 1):
        vec = [Fraction(rng.randint(-bound, bound)) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                entries[i][j] += vec[i] * vec[j]
    return QuadForm(g, entries)


def _random_binary_form(degree: int, rng: Random, bound: int = 6) -> BinaryForm:
    form = BinaryForm(degree, [Fraction(rng.randint(-bound, bound))
                               for _ in range(degree + 1)])
    while form.is_zero():
        form = BinaryForm(degree, [Fraction(rng.randint(-bound, bound))
                                   for _ in range(degree + 1)])
    return form


def _random_squarefree_form(degree: int, rng: Random, bound: int = 6) -> BinaryForm:
    while True:
        form = _random_binary_form(degree, rng, bound)
        if form.coeff(degree) and binary_discriminant(form) != 0:
            return form


def _random_nonzero_direction(g: int, rng: Random):
    ell = random_ribbon_ell(g, rng)
    while not any(ell):
        ell = random_ribbon_ell(g, rng)
    return ell


def _random_slice_element(slice_: IdealSlice, rng: Random, bound: int = 3) -> WPoly:
    out = WPoly(slice_.g, {})
    for p in slice_.basis:
        c = rng.randint(-bound, bound)
        if c:
            out = out + p.map_coeffs(lambda x, c=c: x * c)
    return out


# ---------------------------------------------------------------------------
# rnc suite

def _check_quadric_slice_dimension(g, rng):
    want = (g - 1) * (g - 2) // 2
    got = ideal_slice(g, 2).dim
    return got == want, None if got == want else {"got": got, "want": want}, None


def _check_quadric_lands_in_ideal(g, samples, rng):
    slice2 = ideal_slice(g, 2)
    for _ in range(samples):
        q = _random_quad(g, rng)
        x = q_to_quadric(q)
        if x and (not veronese_pullback(x).is_zero() or not slice2.contains(x)):
            return False, {"q": q.to_json()}, None
    return True, None, None


def _check_quadric_map_injective(g, rng):
    slice2 = ideal_slice(g, 2)
    n = g - 2
    rows = []
    for i in range(n):
        for j in range(i, n):
            rows.append(slice2.vector_of(q_to_quadric(QuadForm.basis_element(g, i, j))))
    rank = RatMatrix(rows, ncols=len(slice2.monomials)).rank()
    want = n * (n + 1) // 2
    ok = rank == want == slice2.dim
    return ok, None if ok else {"rank": rank, "want": want}, None


def _check_square_inside_ideal(g, d, rng):
    big = ideal_slice(g, d)
    for p in ideal_square_slice(g, d).basis:
        if not big.contains(p):
            return False, {"poly": p.to_json()}, None
    return True, None, None


def _check_normal_space_dimension(g, d, rng):
    # only sound for d >= 4: in degree 3 the polynomial square misses the
    # saturation (cubics singular along the curve exist for g >= 5), so the
    # conormal-section count is carried by rank(phi_3), not by this difference
    total = ideal_slice(g, d).dim
    square = ideal_square_slice(g, d).dim
    want = (g - 2) * ((d - 1) * (g - 1) - 1)
    ok = total - square == want
    return ok, None if ok else {"slice": total, "square": square, "want": want}, None


def _rnc_items(gmax, dmax):
    items = []
    for g in range(3, gmax + 1):
        items.append(("quadric_slice_dimension", {"g": g},
                      lambda rng, g=g: _check_quadric_slice_dimension(g, rng)))
    for g in range(3, min(gmax, 6) + 1):
        items.append(("q_to_quadric_lands_in_ideal", {"g": g, "samples": 12},
                      lambda rng, g=g: _check_quadric_lands_in_ideal(g, 12, rng)))
        items.append(("q_to_quadric_injective", {"g": g},
                      lambda rng, g=g: _check_quadric_map_injective(g, rng)))
        items.append(("normal_space_dimension", {"g": g, "d": 4},
                      lambda rng, g=g: _check_normal_space_dimension(g, 4, rng)))
        for d in (4, 5):
            if d <= max(dmax, 4):
                items.append(("square_slice_inside_ideal_slice", {"g": g, "d": d},
                              lambda rng, g=g, d=d: _check_square_inside_ideal(g, d, rng)))
    return items


# ---------------------------------------------------------------------------
# conormal suite

def _check_phi2_inverts(g, samples, rng):
    for _ in range(samples):
        q = _random_quad(g, rng)
        if phi_d(q_to_quadric(q), 2).mat != q.mat:
            return False, {"q": q.to_json()}, None
    return True, None, None


def _check_row_product_rule(g, d, samples, rng):
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
            if m_up.row_form(i) != uj * m.row_form(i):
                return False, {"j": j, "row": i}, None
    return True, None, None


def _check_phi_kernel_is_square(g, d, rng):
    kernel = phi_kernel_slice(ideal_slice(g, d))
    square = ideal_square_slice(g, d)
    ok = kernel == square
    return ok, None if ok else {"kernel_dim": kernel.dim, "square_dim": square.dim}, None


def _hankel_3x3_determinant(g: int, offset: int) -> WPoly:
    """det of the 3x3 Hankel block starting at u_offset; a secant cubic."""
    pad = [0] * (2 * g - 2)

    def mono(*idx):
        e = list(pad)
        for i in idx:
            e[i] += 1
        return tuple(e)

    o = offset
    return WPoly(g, {mono(o, o + 2, o + 4): Fraction(1),
                     mono(o, o + 3, o + 3): Fraction(-1),
                     mono(o + 1, o + 1, o + 4): Fraction(-1),
                     mono(o + 1, o + 2, o + 3): Fraction(2),
                     mono(o + 2, o + 2, o + 2): Fraction(-1)})


def _check_phi_3_kernel(g, rng):
    """Cubics killed by phi_3: none below g=5, secant catalecticants after.

    Products of quadrics cannot appear in degree 3, yet for g >= 5 the
    determinants of 3x3 Hankel blocks are singular along the curve and die
    under the conormal map, so the degree-3 kernel is their span rather
    than the (empty) square slice.
    """
    kernel = phi_kernel_slice(ideal_slice(g, 3))
    want = comb(g - 2, 3)  # one 3x3 minor per column triple of the Hankel matrix
    if kernel.dim != want:
        return False, {"kernel_dim": kernel.dim, "want": want}, None
    if g >= 5 and not kernel.contains(_hankel_3x3_determinant(g, 0)):
        return False, {"missing": "hankel 3x3 determinant"}, None
    return True, None, {"kernel_dim": kernel.dim}


def _check_phi_surjective(g, d, rng):
    want = (g - 2) * ((d - 1) * (g - 1) - 1)
    got = phi_map_matrix(ideal_slice(g, d)).rank()
    return got == want, None if got == want else {"rank": got, "want": want}, None


def _check_rank_agreement(g, samples, rng):
    for t in range(samples):
        q = _random_quad(g, rng) if t % 2 == 0 else _random_degenerate_quad(g, rng)
        if q.is_zero():
            continue
        if phi_d(q_to_quadric(q), 2).rank() != q.mat.rank():
            return False, {"q": q.to_json()}, None
    return True, None, None


def _check_ribbon_slice_ideal_property(g, d, samples, rng):
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


def _check_limit_three_way(g, samples, rng):
    for t in range(samples):
        q = _random_quad(g, rng) if t % 2 == 0 else _random_degenerate_quad(g, rng)
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


def _conormal_items(gmax, dmax):
    items = []
    for g in range(3, min(gmax, 6) + 1):
        items.append(("phi2_inverts_q_to_quadric", {"g": g, "samples": 12},
                      lambda rng, g=g: _check_phi2_inverts(g, 12, rng)))
        items.append(("rank_phi2_equals_rank_q", {"g": g, "samples": 12},
                      lambda rng, g=g: _check_rank_agreement(g, 12, rng)))
        items.append(("limit_three_way_agreement", {"g": g, "samples": 16},
                      lambda rng, g=g: _check_limit_three_way(g, 16, rng)))
    for g in range(3, min(gmax, 5) + 1):
        for d in (2, 3):
            if d <= dmax:
                items.append(("row_product_rule", {"g": g, "d": d, "samples": 4},
                              lambda rng, g=g, d=d: _check_row_product_rule(g, d, 4, rng)))
        items.append(("phi_kernel_is_ideal_square", {"g": g, "d": 4},
                      lambda rng, g=g: _check_phi_kernel_is_square(g, 4, rng)))
        items.append(("phi_3_kernel_is_secant_cubic_span", {"g": g},
                      lambda rng, g=g: _check_phi_3_kernel(g, rng)))
    for g in range(3, min(gmax, 6) + 1):
        for d in range(3, min(dmax, 4) + 1):
            items.append(("phi_d_full_rank", {"g": g, "d": d},
                          lambda rng, g=g, d=d: _check_phi_surjective(g, d, rng)))
    for g in range(4, min(gmax, 6) + 1):
        items.append(("ribbon_slice_ideal_property", {"g": g, "d": 2, "samples": 4},
                      lambda rng, g=g: _check_ribbon_slice_ideal_property(g, 2, 4, rng)))
    return items


# ---------------------------------------------------------------------------
# xg suite

def _check_split_evaluation_oracle(g, degree, rng):
    ideal = split_ribbon_ideal(g)
    for gen in ideal.generators():
        w = gen.degree("weighted")
        if w > degree:
            continue
        for m in monomials(g, degree - w, "weighted"):
            if not split_ribbon_contains(WPoly(g, {m: Fraction(1)}) * gen):
                return False, {"generator": gen.to_json()}, None
    # the two kernels coincide iff the evaluation rank matches the slice rank
    basis = monomials(g, degree, "weighted")
    rows = []
    for e in basis:
        first, second = split_ribbon_evaluation(WPoly(g, {e: Fraction(1)}))
        rows.append(list(first.coeffs) + list(second.coeffs))
    rank = RatMatrix(rows, ncols=len(rows[0])).rank()
    want = ideal_slice_dimension(ideal, degree)
    ok = len(basis) - rank == want
    return ok, None if ok else {"evaluation_kernel": len(basis) - rank,
                                "slice_dim": want}, None


def _check_model_hilbert_functions(g, model, dmax, rng):
    degrees = list(range(2, max(dmax, 4) + 1))
    if model == "split":
        ideal = split_ribbon_ideal(g)
    elif model == "hyperelliptic":
        ideal = hyperelliptic_model(g, _random_squarefree_form(2 * g + 2, rng))
    else:
        ideal = canonical_ribbon_ideal(g, _random_nonzero_direction(g, rng))
    got = hilbert_function(ideal, "weighted", degrees)
    want = [(2 * d - 1) * (g - 1) for d in degrees]
    ok = got == want
    return ok, None if ok else {"got": got, "want": want}, None


def _check_groebner_normal_counts(g, rng):
    ideal = split_ribbon_ideal(g)
    result = certify_groebner(ideal)
    if result is None:
        return False, {"reason": "no declared order certifies the generators"}, None
    degrees = list(range(0, 7))
    wants = hilbert_function(ideal, "weighted", degrees)
    for degree, want in zip(degrees, wants):
        got = result.normal_monomial_count(degree, "weighted")
        if got != want:
            return False, {"degree": degree, "normal": got, "hilbert": want}, None
    return True, None, {"order": result.order}


def _check_series_closed_forms(g, rng):
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
    def scale(p):
        return WPoly(p.g, {e: c * t ** sum(e[p.g:]) for e, c in p.terms.items()})

    return XgIdeal(ideal.g,
                   [(k, scale(p)) for k, p in ideal.UU],
                   [(k, scale(p)) for k, p in ideal.UV],
                   [(k, scale(p)) for k, p in ideal.VV])


def _check_v_rescaling_invariance(g, t, rng):
    ideal = canonical_ribbon_ideal(g, _random_nonzero_direction(g, rng))
    degrees = [2, 3, 4]
    before = hilbert_function(ideal, "weighted", degrees)
    after = hilbert_function(_scale_v(ideal, t), "weighted", degrees)
    ok = before == after
    return ok, None if ok else {"before": before, "after": after}, None


def _check_syzygy_sums(g, model, max_degree, rng):
    if model == "split":
        ideal, table = split_ribbon_ideal(g), "ribbon"
    else:
        h = _random_squarefree_form(2 * g + 2, rng)
        ideal, table = hyperelliptic_model(g, h), "hyperelliptic"
    gens = ideal.generators()
    records = syzygies_by_degree(ideal, max_degree, table)
    for record in records.values():
        for rep in record.representatives:
            total = WPoly(g, {})
            for coeff_poly, gen in zip(rep, gens):
                total = total + coeff_poly * gen
            if total:
                return False, {"degree": record.degree}, None
    return True, None, None


def _check_lambda_dictionary(g, rng):
    """The u-only quadrics of a weighted ribbon model are a ribbon slice.

    Solves psi_2(lam, x) = 0 for lam over the eliminated quadrics; the
    solution space must be a line and its slice must equal the eliminated
    slice exactly.
    """
    ell = _random_nonzero_direction(g, rng)
    eliminated = eliminate_v_degree(canonical_ribbon_ideal(g, ell), 2)
    want_dim = ideal_slice(g, 2).dim - (g - 2)
    if eliminated.dim != want_dim:
        return False, {"dim": eliminated.dim, "want": want_dim}, None
    rows = []
    for p in eliminated.basis:
        m = phi_d(p, 2)
        for a in range(m.form_degree + 1):
            rows.append([m.row_form(i).coeff(a) for i in range(g - 2)])
    kernel = RatMatrix(rows, ncols=g - 2).kernel_basis()
    if len(kernel) != 1:
        return False, {"lambda_space_dim": len(kernel)}, None
    lam = LambdaFunctional(g, kernel[0]).normalized()
    if ribbon_slice(lam, g, 2) != eliminated:
        return False, {"lambda": lam.to_json()}, None
    return True, None, {"lambda": lam.to_json()}


def _check_eliminated_quadric_square(rng):
    ideal = canonical_ribbon_ideal(3, [WPoly.v_var(3, 0)])
    got = eliminate_v_degree(ideal, 4)
    q = WPoly(3, {(1, 0, 1, 0): Fraction(1), (0, 2, 0, 0): Fraction(-1)})
    want = IdealSlice.from_polys(3, 4, [q * q])
    ok = got == want
    return ok, None if ok else {"dim": got.dim}, None


def _xg_items(gmax, dmax):
    items = []
    for g in range(3, min(gmax, 5) + 1):
        for degree in range(2, 7):
            items.append(("split_membership_evaluation_oracle",
                          {"g": g, "degree": degree},
                          lambda rng, g=g, degree=degree:
                          _check_split_evaluation_oracle(g, degree, rng)))
    for g in range(3, min(gmax, 6) + 1):
        for model in ("split", "hyperelliptic", "ribbon"):
            items.append(("hilbert_function_closed_form",
                          {"g": g, "model": model, "dmax": max(dmax, 4)},
                          lambda rng, g=g, model=model:
                          _check_model_hilbert_functions(g, model, dmax, rng)))
        items.append(("groebner_certificate_and_normal_counts", {"g": g},
                      lambda rng, g=g: _check_groebner_normal_counts(g, rng)))
        items.append(("hilbert_series_closed_forms", {"g": g},
                      lambda rng, g=g: _check_series_closed_forms(g, rng)))
        items.append(("v_rescaling_invariance", {"g": g, "t": "3/2"},
                      lambda rng, g=g: _check_v_rescaling_invariance(g, Fraction(3, 2), rng)))
    for g in (3, 4):
        if g <= gmax:
            items.append(("syzygy_sums_vanish", {"g": g, "model": "split"},
                          lambda rng, g=g: _check_syzygy_sums(g, "split", 6, rng)))
    if gmax >= 3:
        items.append(("syzygy_sums_vanish", {"g": 3, "model": "hyperelliptic"},
                      lambda rng: _check_syzygy_sums(3, "hyperelliptic", 6, rng)))
        items.append(("eliminated_quadric_is_square", {"g": 3},
                      lambda rng: _check_eliminated_quadric_square(rng)))
    for g in range(3, min(gmax, 5) + 1):
        items.append(("lambda_matches_eliminated_quadrics", {"g": g},
                      lambda rng, g=g: _check_lambda_dictionary(g, rng)))
    return items


# ---------------------------------------------------------------------------
# fitting suite

def _check_power_ideal(m, r, mode, rng):
    report = verify_power_ideal(m, r, mode)
    ok = report["all_realized"]
    counter = None
    if not ok:
        counter = [w for w in report["witnesses"] if w["columns"] is None][:3]
    return ok, counter, {"monomials_checked": report["monomials_checked"]}


def _check_minor_homogeneity(m, rng):
    matrix = phi2_symbolic(m)
    for cols in combinations(range(matrix.ncols), matrix.nrows):
        det = symbolic_minor(matrix, list(cols))
        for exps in det:
            if sum(exps) != m:
                return False, {"columns": list(cols), "exponents": list(exps)}, None
    return True, None, None


def _fitting_items(gmax, dmax):
    items = []
    for m in range(1, 6):
        items.append(("power_ideal_phi2", {"m": m, "r": m},
                      lambda rng, m=m: _check_power_ideal(m, m, "phi2", rng)))
    for m in range(1, 4):
        for r in range(m, 7):
            items.append(("power_ideal_blocks", {"m": m, "r": r},
                          lambda rng, m=m, r=r: _check_power_ideal(m, r, "blocks", rng)))
    for m in range(2, 5):
        items.append(("phi2_minor_homogeneity", {"m": m},
                      lambda rng, m=m: _check_minor_homogeneity(m, rng)))
    return items


# ---------------------------------------------------------------------------
# families suite

def _check_order_doubling(g, d, rng):
    h = _random_squarefree_form(2 * g + 2, rng)
    ell = _random_nonzero_direction(g, rng)
    report = order_doubling_experiment(g, h, d, ell)
    return True, None, report


def _check_fiber_preserved(g, d, rng):
    h = _random_squarefree_form(2 * g + 2, rng)
    ell = _random_nonzero_direction(g, rng)
    family = perturb_hyperelliptic(g, h, d, 2 * d + 2, ell)
    scaled = rescale_v(family, d)
    degrees = [2, 3, 4]
    base = hilbert_function(hyperelliptic_model(g, h), "weighted", degrees)
    got = reduction_hilbert_function(family, 1, degrees)
    got_scaled = reduction_hilbert_function(scaled, 1, degrees)
    ok = got == base == got_scaled
    return ok, None if ok else {"base": base, "family": got,
                                "rescaled": got_scaled}, None


def _check_rescaled_free_range(g, d, rng):
    h = _random_squarefree_form(2 * g + 2, rng)
    ell = _random_nonzero_direction(g, rng)
    scaled = rescale_v(perturb_hyperelliptic(g, h, d, 3 * d + 2, ell), d)
    degrees = [2, 3, 4]
    fiber = reduction_hilbert_function(scaled, 1, degrees)
    for m in range(2, 2 * d + 1):
        got = reduction_hilbert_function(scaled, m, degrees)
        if got != [m * x for x in fiber]:
            return False, {"modulus": m, "got": got,
                           "free": [m * x for x in fiber]}, None
    detail = {"free_through": 2 * d}
    nxt = 2 * d + 1
    if nxt <= scaled.order_bound:
        got = reduction_hilbert_function(scaled, nxt, degrees)
        detail["next_modulus"] = {"modulus": nxt,
                                  "free": got == [nxt * x for x in fiber],
                                  "got": got}
    return True, None, detail


def _check_constant_reductions_free(g, model, rng):
    if model == "split":
        ideal = split_ribbon_ideal(g)
    else:
        ideal = hyperelliptic_model(g, _random_squarefree_form(2 * g + 2, rng))
    family = constant_family(ideal, 3)
    degrees = [2, 3, 4]
    fiber = reduction_hilbert_function(family, 1, degrees)
    for m in (2, 3):
        if reduction_hilbert_function(family, m, degrees) != [m * x for x in fiber]:
            return False, {"modulus": m}, None
    return True, None, None


def _check_even_odd_signs(g, d, rng):
    h = _random_squarefree_form(2 * g + 2, rng)
    ell = _random_nonzero_direction(g, rng)
    family = perturb_hyperelliptic(g, h, d, 2 * d + 1, ell)
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


def _check_discriminant_zero_nonzero(g, rng):
    # generic leg: 2g+2 pairwise distinct linear factors, squarefree by construction
    h = BinaryForm(0, [1])
    for r in rng.sample(range(-(2 * g + 2), 2 * g + 3), 2 * g + 2):
        h = h * BinaryForm(1, [r, 1])
    if binary_discriminant(h) == 0:
        return False, {"h": h.to_json(), "case": "generic"}, None
    factor = _random_binary_form(2 * g, rng)
    line = BinaryForm(1, [Fraction(rng.randint(-3, 3)), Fraction(1)])
    if binary_discriminant(line * line * factor) != 0:
        return False, {"case": "forced square"}, None
    return True, None, None


def _check_base_change_doubles(g, d, rng):
    h = _random_squarefree_form(2 * g + 2, rng)
    ell = _random_nonzero_direction(g, rng)
    family = perturb_hyperelliptic(g, h, d, 2 * d + 1, ell)
    doubled = base_change_pi_squared(family)
    ok = (hyperell_order(doubled) == 2 * d
          and doubled.order_bound == 2 * family.order_bound - 1)
    return ok, None if ok else {"order": hyperell_order(doubled)}, None


def _check_negate_fixes_models(g, rng):
    split = constant_family(split_ribbon_ideal(g), 3)
    h = _random_squarefree_form(2 * g + 2, rng)
    hyper = constant_family(hyperelliptic_model(g, h), 3)
    ok = negate_v(split) == split and negate_v(hyper) == hyper
    return ok, None if ok else {"g": g}, None


def _check_family_json_round_trip(g, d, rng):
    h = _random_squarefree_form(2 * g + 2, rng)
    ell = _random_nonzero_direction(g, rng)
    family = perturb_hyperelliptic(g, h, d, 3 * d + 2, ell)
    scaled = rescale_v(family, d)
    section = discriminant_section(scaled)
    ok = (TruncatedFamily.from_json(family.to_json()) == family
          and TruncatedFamily.from_json(scaled.to_json()) == scaled
          and section.s == h)
    return ok, None if ok else {"g": g, "d": d}, None


def _families_items(gmax, dmax):
    items = []
    for g in range(3, min(gmax, 5) + 1):
        for d in range(1, min(dmax, 3) + 1):
            items.append(("order_doubling", {"g": g, "d": d},
                          lambda rng, g=g, d=d: _check_order_doubling(g, d, rng)))
    for g in (3, 4):
        if g > gmax:
            continue
        items.append(("fiber_hilbert_function_preserved", {"g": g, "d": 1},
                      lambda rng, g=g: _check_fiber_preserved(g, 1, rng)))
        for d in (1, 2):
            if d <= dmax:
                items.append(("rescaled_reductions_free_through_double_order",
                              {"g": g, "d": d},
                              lambda rng, g=g, d=d: _check_rescaled_free_range(g, d, rng)))
        for model in ("split", "hyperelliptic"):
            items.append(("constant_family_reductions_free", {"g": g, "model": model},
                          lambda rng, g=g, model=model:
                          _check_constant_reductions_free(g, model, rng)))
        items.append(("even_odd_parts_transform_by_sign", {"g": g, "d": 1},
                      lambda rng, g=g: _check_even_odd_signs(g, 1, rng)))
        items.append(("base_change_doubles_order", {"g": g, "d": 1},
                      lambda rng, g=g: _check_base_change_doubles(g, 1, rng)))
        items.append(("family_json_round_trip", {"g": g, "d": 1},
                      lambda rng, g=g: _check_family_json_round_trip(g, 1, rng)))
    for g in range(3, min(gmax, 5) + 1):
        items.append(("discriminant_zero_iff_square_factor", {"g": g},
                      lambda rng, g=g: _check_discriminant_zero_nonzero(g, rng)))
        items.append(("negate_v_fixes_untwisted_models", {"g": g},
                      lambda rng, g=g: _check_negate_fixes_models(g, rng)))
    return items


SUITES = {
    "rnc": _rnc_items,
    "conormal": _conormal_items,
    "xg": _xg_items,
    "fitting": _fitting_items,
    "families": _families_items,
}


# ---------------------------------------------------------------------------
# commands

def cmd_limit_quadric(args):
    data = _load_json_arg(args.q)
    if isinstance(data, dict):
        q = QuadForm.from_json(data)
        if args.g is not None and args.g != q.g:
            raise CommandError("--g %d disagrees with the matrix header g=%d"
                               % (args.g, q.g))
    elif isinstance(data, list):
        if args.g is None:
            raise CommandError("--g is required when --q is a bare matrix")
        q = QuadForm(args.g, data)
    else:
        raise CommandError("--q must be a matrix or a {g, matrix} object")
    degenerate, witness = is_limit_quadric(q)
    return {"g": q.g,
            "degenerate": degenerate,
            "det": rat_to_str(q.det()),
            "witness_lambda": witness.to_json() if witness is not None else None}


def cmd_limit_relation(args):
    if args.d is not None:
        _check_slice_size(args.g, args.d)
    data = _load_json_arg(args.poly)
    if not isinstance(data, list):
        raise CommandError("--poly must be a list of term objects")
    x = WPoly.from_json(args.g, data)
    if not x:
        raise CommandError("the zero polynomial is not a canonical relation")
    d = args.d if args.d is not None else x.degree("weighted")
    _check_slice_size(args.g, d)
    if (not x.is_u_only() or not x.is_homogeneous("weighted")
            or x.degree("weighted") != d):
        raise CommandError("not a canonical relation")
    if not veronese_pullback(x).is_zero():
        raise CommandError("not a canonical relation")
    limit, witness = is_limit_relation(x, d)
    matrix = phi_d(x, d)
    return {"g": args.g,
            "d": d,
            "limit": limit,
            "rank": matrix.rank(),
            "matrix": matrix.to_json()["matrix"],
            "witness_lambda": witness.to_json() if witness is not None else None}


def cmd_verify(args):
    if args.gmax < 3:
        raise CommandError("--gmax must be at least 3")
    if args.dmax < 2:
        raise CommandError("--dmax must be at least 2")
    # an upper bound on every slice the items build: the rnc suite runs each
    # g up to gmax, and the Hilbert function items reach degree max(dmax, 4)
    _check_slice_size(args.gmax, max(args.dmax, 4))
    names = list(SUITES) if args.suite == "all" else [args.suite]
    suites = {}
    total = passed = 0
    for name in names:
        results = _run_items(name, SUITES[name](args.gmax, args.dmax), args.seed)
        suites[name] = results
        total += len(results)
        passed += sum(1 for item in results if item["pass"])
    return {"seed": args.seed,
            "gmax": args.gmax,
            "dmax": args.dmax,
            "suites": suites,
            "total": total,
            "passed": passed,
            "all_pass": passed == total}


def cmd_family_build(args):
    g = args.g
    if args.model == "split":
        bound = args.order_bound if args.order_bound else 4
        family = constant_family(split_ribbon_ideal(g), bound)
        return {"g": g, "model": "split", "order_bound": bound,
                "family": family.to_json()}
    if args.h is None:
        raise CommandError("--h is required for model %r" % args.model)
    h = _parse_binary_form(_load_json_arg(args.h))
    if args.model == "hyperelliptic":
        bound = args.order_bound if args.order_bound else 4
        family = constant_family(hyperelliptic_model(g, h), bound)
        return {"g": g, "model": "hyperelliptic", "order_bound": bound,
                "h": h.to_json(), "family": family.to_json()}
    d = args.d
    bound = args.order_bound if args.order_bound else 3 * d + 2
    rng = _rng_for(args.seed, "family", "build", {"g": g, "d": d})
    ell = _random_nonzero_direction(g, rng)
    family = perturb_hyperelliptic(g, h, d, bound, ell)
    return {"g": g, "model": "perturbed", "d": d, "order_bound": bound,
            "seed": args.seed, "h": h.to_json(), "family": family.to_json()}


def cmd_family_rescale(args):
    family = _parse_family(_load_json_arg(args.family))
    scaled = rescale_v(family, args.k)
    return {"g": scaled.g, "k": args.k, "order_bound": scaled.order_bound,
            "family": scaled.to_json()}


def cmd_family_order(args):
    family = _parse_family(_load_json_arg(args.family))
    bound = family.order_bound

    def show(m):
        return ">= %d" % bound if m >= bound else str(m)

    r, h = ribbon_order(family), hyperell_order(family)
    return {"g": family.g,
            "order_bound": bound,
            "ribbon_order": r,
            "ribbon_order_display": show(r),
            "hyperelliptic_order": h,
            "hyperelliptic_order_display": show(h)}


def cmd_family_discriminant(args):
    family = _parse_family(_load_json_arg(args.family))
    section = discriminant_section(family)
    return {"g": family.g,
            "ribbon_order": ribbon_order(family),
            "section": section.to_json(),
            "binary_discriminant": rat_to_str(binary_discriminant(section.s))}


# ---------------------------------------------------------------------------
# dispatcher

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-out", metavar="PATH", default=None,
                        help="also write the JSON document to this file")
    common.add_argument("--quiet", action="store_true",
                        help="suppress stdout and the stderr timing note")

    parser = argparse.ArgumentParser(
        prog="ribbonlab",
        description="exact decision procedures and check suites, JSON in and out")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("limit-quadric", parents=[common],
                       help="degeneracy verdict for a quadric direction")
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--q", required=True,
                   help="symmetric matrix, inline JSON or a file path")
    p.set_defaults(handler=cmd_limit_quadric)

    p = sub.add_parser("limit-relation", parents=[common],
                       help="rank verdict for a canonical relation")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--poly", required=True,
                   help="term list, inline JSON or a file path")
    p.set_defaults(handler=cmd_limit_relation)

    p = sub.add_parser("verify", parents=[common], help="run a property suite")
    p.add_argument("--suite", choices=sorted(SUITES) + ["all"], default="all")
    p.add_argument("--gmax", type=int, default=5)
    p.add_argument("--dmax", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_verify)

    fam = sub.add_parser("family", help="pi-adic family operations")
    fam_sub = fam.add_subparsers(dest="action", required=True)

    p = fam_sub.add_parser("build", parents=[common],
                           help="construct a family as JSON")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--model", choices=["perturbed", "hyperelliptic", "split"],
                   default="perturbed")
    p.add_argument("--h", default=None,
                   help="binary form of degree 2g+2: coefficient list or degree/coeffs JSON")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--order-bound", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_family_build)

    p = fam_sub.add_parser("rescale", parents=[common],
                           help="divide the v variables by pi^k")
    p.add_argument("--family", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=cmd_family_rescale)

    p = fam_sub.add_parser("order", parents=[common],
                           help="shape orders of a family")
    p.add_argument("--family", required=True)
    p.set_defaults(handler=cmd_family_order)

    p = fam_sub.add_parser("discriminant", parents=[common],
                           help="extract the degree 2g+2 section")
    p.add_argument("--family", required=True)
    p.set_defaults(handler=cmd_family_discriminant)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        payload = args.handler(args)
        status = "ok"
    except (CommandError, ValueError, ArithmeticError, KeyError) as exc:
        payload = {"message": str(exc)}
        status = "error"
    except Exception as exc:
        # input that slipped past validation: still one document, exit 1
        if not args.quiet:
            import traceback
            traceback.print_exc()
        payload = {"message": "%s: %s" % (type(exc).__name__, exc)}
        status = "error"
    document = json.dumps({"status": status, "payload": payload},
                          indent=2, sort_keys=True)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(document + "\n")
    if not args.quiet:
        sys.stdout.write(document + "\n")
        sys.stderr.write("elapsed %.1f ms\n"
                         % ((time.perf_counter() - started) * 1000.0))
    if status != "ok":
        return 1
    return 0 if payload.get("all_pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
