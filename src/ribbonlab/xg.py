"""Ideals of curves and ribbons in the weighted space X_g.

X_g = Proj Q[u_0..u_{g-1}, v_0..v_{g-3}] with deg u = 1, deg v = 2.  Three
generator groups appear in every model here, always in this order and with
these canonical spanning sets:

* UU (weighted degree 2): for each value s of i+j one balanced base pair
  (s//2, s-s//2); each other pair (i, j) contributes u_i u_j - u_k u_l.
* UV (weighted degree 3): for each value s of i+j the base pair has the
  smallest v index; each other pair contributes u_i v_j - u_k v_l.
* VV (weighted degree 4): the products v_i v_j (i <= j), possibly corrected
  by a u-quartic.

GROUP_KEYS, BASE_POLYS and GROUP_DEGREES hold this shape.  XgIdeal is the
one container for it: a fibre over Q here, a family over Q[pi]/(pi^N) in
the families module, whose coefficients are never multiplied.  The split
ribbon takes the groups as-is; a ribbon in canonical form replaces UU by UU
minus v-linear terms; a hyperelliptic curve replaces VV by VV minus lifted
quartics.
"""

from __future__ import annotations

import json
import zlib
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, mul, sub
from random import Random

from .exact import _ZERO, RowEliminator, _clear, _primitive, left_kernel, rat
from .exact import TruncatedScalar, json_fields, json_int, json_list, sparse_rank, to_integers
from .poly import BinaryForm, WPoly, _compositions, grlex_key, monomials, quartic_lift

GROUPS = ("UU", "UV", "VV")


def uu_keys(g: int):
    """(i, j, k, l) with i+j = k+l, (k, l) the balanced split, (i, j) != (k, l)."""
    keys = []
    for i in range(g):
        for j in range(i, g):
            s = i + j
            k, l = s // 2, s - s // 2
            if (i, j) != (k, l):
                keys.append((i, j, k, l))
    return keys


def uv_keys(g: int):
    """(i, j, k, l) with i+j = k+l, (k, l) the pair with the smallest v index."""
    keys = []
    for s in range(0, 2 * g - 3):
        pairs = [(i, s - i) for i in range(g)
                 if 0 <= s - i <= g - 3]
        base = min(pairs, key=lambda p: p[1])
        for i, j in pairs:
            if (i, j) != base:
                keys.append((i, j, base[0], base[1]))
    return keys


def vv_keys(g: int):
    return [(i, j) for i in range(g - 2) for j in range(i, g - 2)]


def uu_base_poly(g: int, key) -> WPoly:
    i, j, k, l = key
    return WPoly.u_monomial(g, [i, j]) - WPoly.u_monomial(g, [k, l])


def uv_base_poly(g: int, key) -> WPoly:
    i, j, k, l = key
    return (WPoly.u_var(g, i) * WPoly.v_var(g, j)
            - WPoly.u_var(g, k) * WPoly.v_var(g, l))


def vv_base_poly(g: int, key) -> WPoly:
    i, j = key
    return WPoly.v_var(g, i) * WPoly.v_var(g, j)


GROUP_KEYS = {"UU": uu_keys, "UV": uv_keys, "VV": vv_keys}
BASE_POLYS = {"UU": uu_base_poly, "UV": uv_base_poly, "VV": vv_base_poly}
GROUP_DEGREES = {"UU": 2, "UV": 3, "VV": 4}


class XgIdeal:
    """A generator set in the three-group shape: (key, WPoly) items per group.

    Its coefficients are Fractions for a fibre over Q, or TruncatedScalars
    for a family over Q[pi]/(pi^N) (families.TruncatedFamily), which the
    container only stores and maps: products and certificates are over Q.
    """

    __slots__ = ("g", "UU", "UV", "VV")

    def __init__(self, g: int, UU, UV, VV):
        self.g = g
        for name, items in zip(GROUPS, (UU, UV, VV)):
            items = [(tuple(key), p) for key, p in items]
            if any(p.g != g for _, p in items):
                raise ValueError("generator genus mismatch")
            setattr(self, name, items)

    def group_items(self, name: str):
        return getattr(self, name)

    def mapped(self, fn):
        """The UU, UV, VV item lists with each poly p replaced by fn(name, key, p)."""
        return [[(key, fn(name, key, p)) for key, p in self.group_items(name)]
                for name in GROUPS]

    def generators(self):
        return [p for _, p in self.UU + self.UV + self.VV]

    def generator_groups(self):
        """Group name of each generator, aligned with generators()."""
        return (["UU"] * len(self.UU) + ["UV"] * len(self.UV)
                + ["VV"] * len(self.VV))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.g == other.g and self.UU == other.UU
                and self.UV == other.UV and self.VV == other.VV)

    def to_json(self):
        doc = {"g": self.g}
        for name in GROUPS:
            doc[name] = [{"key": list(k), "poly": p.to_json()} for k, p in self.group_items(name)]
        return doc


def load_groups(g: int, data):
    """The UU, UV, VV item lists of a to_json document, in that order."""
    def item(name, doc):
        key, poly = json_fields(doc, "a %s generator" % name, "key", "poly")
        return (tuple(json_int(k, "a key entry") for k in json_list(key, "a key")),
                WPoly.from_json(g, json_list(poly, "a poly"), TruncatedScalar.from_json))

    return [[item(name, doc) for doc in json_list(items, "the %s group" % name)]
            for name, items in zip(GROUPS, json_fields(data, "a family object", *GROUPS))]


def split_ribbon_ideal(g: int) -> XgIdeal:
    """The two-step structure with trivial gluing: v-products vanish."""
    return XgIdeal(g, *_split_groups(g))


@lru_cache(maxsize=None)
def _split_groups(g: int) -> tuple:
    """The UU, UV, VV groups of the split ribbon as tuples of (key, base poly).

    Built once per genus and shared by every model that keeps a group of
    it; no caller changes a WPoly's terms, so sharing the polys is safe.
    """
    if g < 3:
        raise ValueError("g must be at least 3")
    return tuple(tuple((k, BASE_POLYS[name](g, k)) for k in GROUP_KEYS[name](g))
                 for name in GROUPS)


def canonical_ribbon_ideal(g: int, ell) -> XgIdeal:
    """Ribbon in canonical form: UU_e = (uu)_{0,e} - ell_e(v).

    `ell` is a list of v-linear forms (zero polynomials included) aligned
    with uu_keys(g).
    """
    uu, uv, vv = _split_groups(g)
    uu = [(k, p - e) for (k, p), e in zip(uu, v_linear_forms(g, ell))]
    return XgIdeal(g, uu, uv, vv)


def v_linear_forms(g: int, ell):
    """ell, after checking that it holds one WPoly per key of uu_keys(g).

    Raises ValueError on a wrong length or an entry that is not a linear
    form in the v variables.
    """
    if len(ell) != len(uu_keys(g)):
        raise ValueError("expected %d linear forms" % len(uu_keys(g)))
    for e in ell:
        if not all(not any(exp[:g]) and sum(exp[g:]) == 1 for exp in e.terms):
            raise ValueError("ell must be linear in the v variables")
    return ell


def ribbon_ell(g: int, lam):
    """The v-linear corrections of the canonical ribbon with functional lam.

    lam holds the g-2 coordinates of a functional on H^0(O(g-3)).  The entry
    for the UU key (i, j, k, l) is

        ell_(i,j) = sum_t lam_t * max(0, min(t-i, j-2-t) + 1) * v_{i+j-2-t}.

    Read it as a walk from (i, j) to the balanced pair by steps
    (a, b) -> (a+1, b-1); each step adds sum_{a<=t<=b-2} lam_t v_{a+b-2-t}.
    Returns a list of WPoly aligned with uu_keys(g).
    """
    lam = [rat(c) for c in lam]
    if len(lam) != g - 2:
        raise ValueError("expected %d coordinates" % (g - 2))
    out = []
    for i, j, _, _ in uu_keys(g):
        terms = {}
        for t, c in enumerate(lam):
            steps = min(t - i, j - 2 - t) + 1
            if c and steps > 0:
                exp = [0] * (2 * g - 2)
                exp[g + i + j - 2 - t] = 1
                terms[tuple(exp)] = c * steps
        out.append(WPoly(g, terms))
    return out


def ribbon_ell_space(g: int):
    """Basis of v-linear corrections that keep the split Hilbert function.

    Element t is ribbon_ell(g, e_t), the ribbon whose classifying functional
    is the unit vector e_t.  This is the canonical rref basis of the space:
    element t has lead ((0, t+2), v_0) with value 1 and vanishes on the
    other leads.  Each element is a list of WPoly aligned with uu_keys(g).
    """
    return [ribbon_ell(g, [int(s == t) for s in range(g - 2)]) for t in range(g - 2)]


def rng_for(seed: int, suite: str, prop: str, params: dict) -> Random:
    """A generator seeded by a stable checksum of (seed, suite, prop, params).

    verify seeds each item with it and family build its ribbon direction, so
    a draw depends only on these values, not on what ran before it.
    """
    tag = "%d:%s:%s:%s" % (seed, suite, prop, json.dumps(params, sort_keys=True))
    return Random(zlib.crc32(tag.encode("utf-8")))


def random_ribbon_ell(g: int, rng):
    """ribbon_ell of a random nonzero functional.

    Each try draws g-2 integers rng.randint(-5, 5); a try whose corrections
    all vanish is drawn again, so the ribbon is never split.
    """
    if g < 3:
        raise ValueError("g must be at least 3")
    while True:
        ell = ribbon_ell(g, [rng.randint(-5, 5) for _ in range(g - 2)])
        if any(ell):
            return ell


def hyperelliptic_model(g: int, h: BinaryForm) -> XgIdeal:
    """Hyperelliptic curve y^2 = h embedded in X_g: v_i v_j = p_ij(u).

    h is a binary form of degree 2g+2; p_ij lifts x0^(i+j) x1^(2g-6-i-j) h,
    whose coefficients are h's shifted up by s = i+j, so the keys of one s
    share one lift.
    """
    if h.degree != 2 * g + 2:
        raise ValueError("expected a form of degree %d" % (2 * g + 2))
    uu, uv, vv = _split_groups(g)
    zero = (Fraction(0),)
    minus_lifts = [-quartic_lift(BinaryForm._raw(4 * (g - 1), zero * s + h.coeffs
                                                 + zero * (2 * g - 6 - s)), g)
                   for s in range(2 * g - 5)]
    vv = [((i, j), p + minus_lifts[i + j]) for (i, j), p in vv]
    return XgIdeal(g, uu, uv, vv)


def split_ribbon_evaluation(p: WPoly):
    """Evaluate on the split ribbon: a pair (a, eps*b) with eps^2 = 0.

    u_i maps to (x0^i x1^(g-1-i), 0) and v_j to (0, x0^j x1^(g-3-j)); a term
    with two or more v factors dies.  Requires weighted-homogeneous input
    over Q; returns (first, second) binary forms of degrees d(g-1) and
    d(g-1)-(g+1), except that for d = 1, where no term has a v factor, the
    second value is the zero form of degree 0.  Membership in the
    split-ribbon ideal is exactly: both vanish.
    """
    g = p.g
    if not p.terms:
        raise ValueError("evaluation of the zero polynomial has no determined degree")
    d = p.degree()
    deg1 = d * (g - 1)
    deg2 = deg1 - (g + 1)
    scale, ints = to_integers(p.terms.values())
    first, second = {}, {}  # {x0 exponent: int} of each value, at the positions hit
    for e, c in zip(p.terms, ints):
        b = sum(e[g:])
        a = sum(i * k for i, k in enumerate(e[:g]))
        if b == 0:
            first[a] = first.get(a, 0) + c
        elif b == 1:
            if deg2 < 0:
                raise ValueError("degree too small for a v term")
            a += next(t for t, k in enumerate(e[g:]) if k)
            second[a] = second.get(a, 0) + c
    return (BinaryForm._raw(deg1, _dense_form(first, deg1, scale)),
            BinaryForm._raw(deg2, _dense_form(second, deg2, scale)) if deg2 >= 0
            else BinaryForm(0))


def _dense_form(values, degree: int, scale: int) -> tuple:
    """The degree + 1 coefficients n / scale of a sparse {index: n}, zeros shared."""
    coeffs = [_ZERO] * (degree + 1)
    for a, n in values.items():
        if n:
            coeffs[a] = Fraction(n, scale)
    return tuple(coeffs)


def generator_multiples(gens, degree: int, columns=None):
    """Rows of every multiple m * gen of the given degree: the one matrix builder.

    For each generator of degree w <= degree (in order) and each monomial m
    of degree - w (in `monomials` order), one sparse row {column: coeff} of
    m * gen over `columns`, which defaults to monomials(g, degree);
    pass another order to change the column order.  The multiplier list of
    each weight w is enumerated once and shared by the generators of that
    weight.  Returns (layout, rows, columns) with layout[i] = (generator
    index, m) for row i.  An integral Fraction coefficient becomes an int,
    once per generator, which the engine takes without conversion; every
    other coefficient is taken as it is, so truncated families work too.

    Columns are looked up by a packed int: the exponents in mixed radix with
    base degree + 1.  No exponent of a monomial of the degree exceeds the
    degree, so packing a product m * t has no carry and is pack(m) + pack(t).
    """
    gens = list(gens)
    if columns is None:
        columns = monomials(gens[0].g, degree) if gens else []
    radix = [(degree + 1) ** i for i in range(2 * gens[0].g - 2)] if gens else []

    def pack(e):
        return sum(map(mul, e, radix))

    idx = {pack(e): i for i, e in enumerate(columns)}
    layout, rows = [], []
    multipliers = {}
    for e, gen in enumerate(gens):
        w = gen.degree()
        if w is None or w > degree:
            continue
        if w not in multipliers:
            multipliers[w] = [(m, pack(m)) for m in monomials(gen.g, degree - w)]
        terms = [(pack(t), _integral(c)) for t, c in gen.terms.items()]
        for m, packed in multipliers[w]:
            layout.append((e, m))
            rows.append({idx[packed + t]: c for t, c in terms})
    return layout, rows, columns


def _integral(c):
    """c as an int when it is an integral Fraction, else c itself; the engine takes both."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def hilbert_function(ideal: XgIdeal, grading, degrees):
    """Dimension of (ring / ideal) in each requested weighted degree, by sparse rank.

    No Groebner machinery.  Returns the list of dimensions aligned with
    `degrees`.  `grading` is "weighted", the one grading of X_g, and any other
    value is refused; the argument stays for the callers that pass it.  When
    UU and UV are exactly split_ribbon_ideal's groups over Q, as in the split
    and hyperelliptic models, the quotient by the ideal B they generate is
    known in closed form.  B is spanned by the binomials m - m' of monomials
    with the same key

        e -> (c, b, a) = (# u factors, # v factors, sum i e_(u_i) + sum j e_(v_j)),

    and they join every fibre of the key with c >= 1 into one class, while
    a pure-v monomial (c = 0) is a class on its own: the binomials are a
    Markov basis of the key (Diaconis-Sturmfels, Ann. Statist. 1998).
    Every a in [0, c(g-1) + b(g-3)] occurs, so (S/B)_d has

        #classes(d) = sum_(c >= 1) (c(g-1) + b(g-3) + 1) + sum_(c = 0) C(g-3+b, b)

    over the (c, b) of degree d, and dim (S/I)_d is #classes(d) minus the
    rank of the VV multiples projected onto the classes.  Every other ideal
    over Q (canonical ribbons, v-rescaled models) takes the generic branch:
    the rank of all generator multiples over the monomials.  A family over
    Q[pi]/(pi^N) (families.TruncatedFamily) is refused with a TypeError,
    since the rank takes only rational entries; its quotient dimensions are
    families.reduction_hilbert_function.
    """
    if grading != "weighted":
        raise ValueError("unknown grading %r" % grading)
    if _has_split_binomials(ideal):
        return _split_quotient_dimensions(ideal, degrees)
    out = []
    for degree in degrees:
        columns = monomials(ideal.g, degree)
        _, rows, _ = generator_multiples(ideal.generators(), degree, columns)
        out.append(len(columns) - sparse_rank(rows, len(columns)))
    return out


def _split_quotient_dimensions(ideal: XgIdeal, degrees):
    """hilbert_function as #classes minus the rank of the projected VV multiples.

    The key is additive, so a multiple m * p is p's projection shifted by
    key(m), and the multipliers with c >= 1 in one class give one row.
    Integral coefficients are projected as ints, once per generator, so the
    rows reach the engine without a Fraction to convert.
    """
    g = ideal.g
    projected = []
    for _, p in ideal.VV:
        w = p.degree()
        if w is not None:
            projected.append((w, [(_key(e, g), _integral(x)) for e, x in p.terms.items()]))
    out = []
    for degree in degrees:
        rows = []
        for w, terms in projected:
            for cm, bm, am, vm in _classes(g, degree - w):
                # a product with no u factor is a class of its own
                rows.append(_summed(((cm + c, bm + b, am + a) if cm or c
                                     else (0, bm + b, tuple(map(add, vm, v))), x)
                                    for (c, b, a, v), x in terms))
        # fibres first, by descending (c, b, a), then pure-v exponents descending
        index = {cls: i for i, cls in
                 enumerate(sorted({cls for row in rows for cls in row}, reverse=True))}
        rank = sparse_rank([{index[cls]: x for cls, x in row.items()} for row in rows],
                           len(index))
        out.append(_class_count(g, degree) - rank)
    return out


def _has_split_binomials(ideal: XgIdeal) -> bool:
    """Are UU and UV exactly split_ribbon_ideal's groups, with rational coefficients?"""
    if ideal.g < 3:  # then it has no generators, and _split_groups refuses g
        return False
    uu, uv, _ = _split_groups(ideal.g)
    return (tuple(ideal.UU) == uu and tuple(ideal.UV) == uv
            and all(type(x) is Fraction for _, p in ideal.UU + ideal.UV
                    for x in p.terms.values()))


def _summed(pairs):
    """{key: sum of its values} of (key, value) pairs."""
    out = {}
    for key, x in pairs:
        out[key] = out[key] + x if key in out else x
    return out


def _key(e, g: int):
    """(c, b, a, v): u count, v count, index sum, v exponents if c = 0 else None."""
    u, v = e[:g], e[g:]
    c = sum(u)
    a = sum(i * k for i, k in enumerate(u)) + sum(j * k for j, k in enumerate(v))
    return c, sum(v), a, None if c else v


def _classes(g: int, degree: int):
    """The classes of the degree's monomials modulo B, as _key tuples.

    First each fibre (c, b, a) with c >= 1, then each pure-v monomial.
    """
    for b in range(degree // 2 + 1):
        c = degree - 2 * b
        if c:
            for a in range(c * (g - 1) + b * (g - 3) + 1):
                yield c, b, a, None
        else:
            for v in _compositions(b, g - 2):
                yield 0, b, sum(j * k for j, k in enumerate(v)), v


def _class_count(g: int, degree: int) -> int:
    """dim (S/B)_degree in closed form: the number of classes (see hilbert_function)."""
    return sum(c * (g - 1) + b * (g - 3) + 1 if c else comb(g - 3 + b, b)
               for b in range(degree // 2 + 1)
               for c in (degree - 2 * b,))


def eliminate_v_degree(ideal: XgIdeal, degree: int):
    """u-polynomials of the given weighted degree lying in the ideal's slice.

    Degreewise linear algebra: put the v-involving monomials first, reduce
    the generator multiples, and keep the rref rows whose lead is a u-only
    monomial: they are already the canonical rows of the slice's u-only
    part.  No elimination order or Groebner step is involved.  Returns an
    rnc.IdealSlice; rnc is imported here, its only use in this module.
    """
    from .rnc import IdealSlice

    g = ideal.g
    v_cols = [e for e in monomials(g, degree) if any(e[g:])]
    u_cols = monomials(g, degree, u_only=True)
    _, rows, columns = generator_multiples(ideal.generators(), degree, v_cols + u_cols)
    nv = len(v_cols)
    vectors = [{c - nv: v for c, v in row.items()}
               for row in RowEliminator(len(columns), rows).reduced_rows()
               if min(row) >= nv]
    return IdealSlice(g, degree, u_cols, vectors)


class GroebnerResult:
    """Buchberger's criterion in grlex on `basis`, the input less its zeros."""

    __slots__ = ("basis", "input_is_groebner")
    order = "grlex"

    def __init__(self, basis, input_is_groebner):
        self.basis = basis
        self.input_is_groebner = input_is_groebner

    def leading_exponents(self):
        return [max(p.terms, key=grlex_key) for p in self.basis]

    def normal_monomial_count(self, degree: int) -> int:
        """Monomials of the weighted degree not divisible by any leading monomial.

        Counted depth first from v_{g-3} down to u_0, without listing the
        monomials.  Each lead's support is filed under its first variable,
        the last one the walk reaches, so once the exponents down to variable
        x are fixed, the leads filed under x decide whether they divide; at
        the first exponent of x that one divides, the branch is cut, since
        every larger exponent is divisible too.  On the split model at g=7,
        degree 6, grlex, this walk visits 678 branches against 912 for the
        walk from u_0 up to v_{g-3}.  The last variable, u_0 of weight 1, takes
        the rest: one monomial unless a lead filed under u_0 divides it.
        """
        g = self.basis[0].g
        # the walk's variables in order: v_{g-3}..v_0, then u_{g-1}..u_0
        weights = (2,) * (g - 2) + (1,) * g
        last = len(weights) - 1
        filed = [[] for _ in weights]  # (support before x, exponent of x) per lead
        for lead in self.leading_exponents():
            s = _support(lead[::-1])
            if not s:  # a constant lead: the unit ideal
                return 0
            filed[s[-1][0]].append((s[:-1], s[-1][1]))
        for leads in filed:  # by exponent of x, so the first lead that divides is the least
            leads.sort(key=lambda lead: lead[1])
        e = [0] * len(weights)

        def count(x, rest):
            w, total = weights[x], 0
            # every exponent of x from the least one at which a filed lead divides is cut
            top = next((b for before, b in filed[x] if all(e[i] >= c for i, c in before)),
                       rest // w + 1)
            if x == last:
                return int(rest < top)
            for k in range(min(top, rest // w + 1)):
                e[x] = k
                total += count(x + 1, rest - w * k)
            e[x] = 0
            return total

        return count(0, degree)


def _support(lead):
    """The nonzero (index, exponent) pairs of a leading exponent."""
    return tuple((i, b) for i, b in enumerate(lead) if b)


def _integer_terms(p: WPoly):
    """(grlex lead, lead coefficient, {exponent: int} of the other terms) of p over Z.

    p is scaled to integers once (`to_integers`); a coefficient that is not
    rational, such as a family's TruncatedScalar, is refused by `rat` with a
    TypeError that names it.
    """
    ints = dict(zip(p.terms, to_integers([rat(c) for c in p.terms.values()])[1]))
    lead = max(ints, key=grlex_key)
    return lead, ints.pop(lead), ints


def _shifted(tail, target, lead):
    """The terms of tail times the monomial target / lead."""
    m = tuple(map(sub, target, lead))
    return {tuple(map(add, e, m)): c for e, c in tail.items()}


def _divisor(lt, filed):
    """Index of a lead dividing the monomial lt, or None.

    Only the leads filed under a variable of lt are tested; a constant lead,
    filed under None, divides every monomial.
    """
    for x, k in enumerate(lt):
        if k:
            for t, s in filed.get(x, ()):
                if all(lt[i] >= b for i, b in s):
                    return t
    units = filed.get(None)
    return units[0][0] if units else None


def _top_reduce(p, polys, filed):
    """Reduce the leading term of the integer polynomial p until stuck or zero.

    A step clears the leading term c*lt against polys[t] = (lead, a, tail):
    p becomes s*(p - c*lt) - r*(lt/lead)*tail for the coprime s, r with
    s*c = r*a, divided by its content.
    """
    while p:
        lt = max(p, key=grlex_key)
        t = _divisor(lt, filed)
        if t is None:
            return p
        lead, a, tail = polys[t]
        p = _primitive(_clear(p, p.pop(lt), a, _shifted(tail, lt, lead))[1])
    return p


def _s_poly(f, h):
    """The primitive integer S-polynomial of two (lead, coefficient, tail) triples."""
    lcm = tuple(map(max, f[0], h[0]))
    return _primitive(_clear(_shifted(f[2], lcm, f[0]), f[1], h[1],
                             _shifted(h[2], lcm, h[0]))[1])


def buchberger(gens) -> GroebnerResult:
    """Buchberger's criterion: is the input a Groebner basis in grlex?

    `gens` is a list of WPoly over Q.  Every S-pair of the input is
    top-reduced against the input, in pair order, and the check stops at the
    first nonzero remainder (Cox-Little-O'Shea, Ideals, Varieties, and
    Algorithms, section 2.6).  By the product criterion a pair whose leading
    monomials are coprime reduces to zero, so it is skipped (ibid., section
    2.9, Proposition 4).  Nothing is added to the basis.

    The check runs on integers, by the engine's rule (exact._clear,
    exact._primitive): each generator is scaled to integers once, and each
    S-pair and reduction step is a nonzero integer multiple of the rational
    one, so the verdict is the same.  Each lead is filed under its first
    variable, and a reduction step tests only the leads filed under the
    variables of the term it clears.  A coefficient that is not rational is
    refused with a TypeError.
    """
    basis = [p for p in gens if p]
    if not basis:
        raise ValueError("empty generating set")
    polys = [_integer_terms(p) for p in basis]
    filed, masks = {}, []  # masks[t]: bit i set when variable i divides lead t
    for t, (lead, _, _) in enumerate(polys):
        s = _support(lead)
        filed.setdefault(s[0][0] if s else None, []).append((t, s))
        masks.append(sum(1 << i for i, _ in s))
    input_is_groebner = not any(
        _top_reduce(_s_poly(polys[i], polys[j]), polys, filed)
        for i in range(len(polys)) for j in range(i + 1, len(polys))
        if masks[i] & masks[j])
    return GroebnerResult(basis, input_is_groebner)


def certify_groebner(ideal: XgIdeal):
    """The GroebnerResult of the ideal's generators when grlex certifies them, else None."""
    res = buchberger(ideal.generators())
    return res if res.input_is_groebner else None


RIBBON_SYZYGY_SHAPES = {
    3: ("u(uu)0", (("UU", (1, 0)),)),
    4: ("v(uu)0 + u(uv)0", (("UU", (0, 1)), ("UV", (1, 0)))),
    5: ("v(uv)0 + u(vv)0", (("UV", (0, 1)), ("VV", (1, 0)))),
    6: ("v(vv)0", (("VV", (0, 1)),)),
}

HYPERELLIPTIC_SYZYGY_SHAPES = {
    3: ("u(uu)0", (("UU", (1, 0)),)),
    4: ("v(uu)0 + u(uv)0", (("UU", (0, 1)), ("UV", (1, 0)))),
    5: ("u(vv) + v(uv)0 + uuu(uu)0",
        (("VV", (1, 0)), ("UV", (0, 1)), ("UU", (3, 0)))),
    6: ("v(vv) + uuu(uv)0 + uuv(uu)0",
        (("VV", (0, 1)), ("UV", (3, 0)), ("UU", (2, 1)))),
}

SYZYGY_SHAPE_TABLES = {"ribbon": RIBBON_SYZYGY_SHAPES,
                       "hyperelliptic": HYPERELLIPTIC_SYZYGY_SHAPES}


class SyzygyRecord:
    """Syzygies of one weighted degree.

    `from_lower_dim` is the rank of the monomial multiples of lower-degree
    minimal syzygies.  `representatives` are the minimal syzygies found
    here, each one coefficient WPoly per generator: the canonical left
    kernel basis of the generator multiples whose row is not a lead of that
    lifted span, so each is zero on every such lead.  `minimal_count` is
    their number, and `kernel_dim` (all syzygies) is the sum
    from_lower_dim + minimal_count.  `shape_matched` reports whether
    syzygies supported on the schematic coefficient pattern for this degree
    account for all minimal generators; it is None when there are none.
    """

    __slots__ = ("degree", "kernel_dim", "from_lower_dim", "minimal_count",
                 "shape_name", "shape_matched", "representatives")

    def __init__(self, degree, kernel_dim, from_lower_dim, minimal_count,
                 shape_name, shape_matched, representatives):
        self.degree = degree
        self.kernel_dim = kernel_dim
        self.from_lower_dim = from_lower_dim
        self.minimal_count = minimal_count
        self.shape_name = shape_name
        self.shape_matched = shape_matched
        self.representatives = representatives

    def __repr__(self):
        return ("SyzygyRecord(degree=%d, minimal=%d, shape=%r, matched=%s)"
                % (self.degree, self.minimal_count, self.shape_name, self.shape_matched))


def syzygies_by_degree(ideal: XgIdeal, max_degree: int, shape_table: str):
    """First syzygies of the generator set, degree by weighted degree.

    In each degree up to max_degree the lower minimal representatives,
    shifted by every monomial of the degree difference, span the syzygies L
    that come from lower degrees (the same submodule as multiples of the
    full lower kernels), and `from_lower_dim` is their rank.  The eliminator
    of L leads each echelon row with its own row index, so the whole left
    kernel K of the generator multiples is L plus the part of K that is zero
    at every lead: the left kernel of only the multiples whose row is not a
    lead.  Its canonical basis, mapped back to row indices, is the new
    minimal representatives, and `kernel_dim` is from_lower_dim plus their
    number.  Their schematic shape is checked by restricting supports to the
    allowed (group, coefficient-bidegree) pattern.
    """
    g = ideal.g
    shapes = SYZYGY_SHAPE_TABLES[shape_table]
    groups = ideal.generator_groups()
    gens = ideal.generators()
    records = {}
    # the degrees above the lowest generator's; none if there is no generator
    degrees = range(min((p.degree() for p in gens), default=max_degree) + 1, max_degree + 1)
    # the new count is #free rows - rank, and rank = #columns - dim (S/I)_degree
    # is known in closed form for split binomials: a count of 0 skips the kernel
    quotient = (dict(zip(degrees, _split_quotient_dimensions(ideal, degrees)))
                if _has_split_binomials(ideal) else None)
    for degree in degrees:
        layout, rows, columns = generator_multiples(gens, degree)
        row_of = {key: i for i, key in enumerate(layout)}
        lifted_rows = [{row_of[e, tuple(map(add, m, shift))]: c
                        for e, coeff in enumerate(rep) for m, c in coeff.terms.items()}
                       for lower in records.values()
                       for shift in monomials(g, degree - lower.degree)
                       for rep in lower.representatives]
        elim = RowEliminator(len(layout), lifted_rows)
        from_lower_dim = elim.rank
        free = [i for i in range(len(rows)) if i not in elim.pivots]
        if quotient is not None and len(free) - len(columns) + quotient[degree] == 0:
            new_reps = []
        else:
            new_reps = [{free[local]: c for local, c in v.items()}
                        for v in left_kernel([rows[i] for i in free], len(columns))]
        kernel_dim = from_lower_dim + len(new_reps)
        shape_name, pattern = shapes.get(degree, (None, None))
        shape_matched = False if new_reps else None
        if new_reps and pattern is not None:
            allowed = dict(pattern)
            pure_cols = [col for col, (e, m) in enumerate(layout)
                         if allowed.get(groups[e]) == (sum(m[:g]), sum(m[g:]))]
            for v in left_kernel([rows[col] for col in pure_cols], len(columns)):
                elim.add({pure_cols[local]: c for local, c in v.items()})
            # the pure syzygies cover the minimal ones exactly when the
            # lifted and pure rows together span the whole kernel
            shape_matched = elim.rank == kernel_dim
        records[degree] = SyzygyRecord(
            degree, kernel_dim, from_lower_dim, len(new_reps), shape_name,
            shape_matched, [_vectors_to_polys(ideal, layout, v) for v in new_reps])
    return records


def _vectors_to_polys(ideal: XgIdeal, layout, vec):
    """Repackage a kernel vector as one coefficient WPoly per generator."""
    per_gen = [{} for _ in ideal.generators()]
    for col, c in vec.items():
        e, m = layout[col]
        per_gen[e][m] = c
    return [WPoly(ideal.g, terms) for terms in per_gen]
