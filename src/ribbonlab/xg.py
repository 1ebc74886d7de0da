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
one container for it, generic in its coefficients: a fibre over Q here, a
family over Q[pi]/(pi^N) in the families module.  The split ribbon takes
the groups as-is; a ribbon in canonical form replaces UU by UU minus
v-linear terms; a hyperelliptic curve replaces VV by VV minus lifted
quartics.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add

from .exact import RowEliminator, left_kernel, rat, sparse_rank
from .poly import (
    MONOMIAL_ORDERS,
    BinaryForm,
    WPoly,
    _compositions,
    monomial_index,
    monomials,
    quartic_lift,
)
from .rnc import IdealSlice

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
        if not pairs:
            continue
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

    Generic in its coefficients, like WPoly: Fraction for a fibre over Q,
    TruncatedScalar for a family over Q[pi]/(pi^N) (families.TruncatedFamily).
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

    @classmethod
    def from_json(cls, data) -> "XgIdeal":
        g = int(data["g"])
        return cls(g, *load_groups(g, data))


def load_groups(g: int, data):
    """The UU, UV, VV item lists of a to_json document, in that order."""
    return [[(tuple(e["key"]), WPoly.from_json(g, e["poly"])) for e in data[name]]
            for name in GROUPS]


def split_ribbon_ideal(g: int) -> XgIdeal:
    """The two-step structure with trivial gluing: v-products vanish."""
    if g < 3:
        raise ValueError("g must be at least 3")
    return XgIdeal(g, *[[(k, BASE_POLYS[name](g, k)) for k in GROUP_KEYS[name](g)]
                        for name in GROUPS])


def canonical_ribbon_ideal(g: int, ell) -> XgIdeal:
    """Ribbon in canonical form: UU_e = (uu)_{0,e} - ell_e(v).

    `ell` is a list of v-linear forms (or zero polynomials) aligned with
    uu_keys(g).
    """
    split = split_ribbon_ideal(g)
    uu = [(k, p - e) for (k, p), e in zip(split.UU, v_linear_forms(g, ell))]
    return XgIdeal(g, uu, split.UV, split.VV)


def v_linear_forms(g: int, ell):
    """ell as a list of WPoly aligned with uu_keys(g), None read as zero.

    Raises ValueError on a wrong length or an entry that is not a linear
    form in the v variables.
    """
    ell = [WPoly.zero(g) if e is None else e for e in ell]
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


def random_ribbon_ell(g: int, rng, bound: int = 5):
    """ribbon_ell of a random nonzero functional.

    Each try draws g-2 integers rng.randint(-bound, bound); a try whose
    corrections all vanish is drawn again, so the ribbon is never split.
    """
    if g < 3:
        raise ValueError("g must be at least 3")
    while True:
        ell = ribbon_ell(g, [rng.randint(-bound, bound) for _ in range(g - 2)])
        if any(ell):
            return ell


def hyperelliptic_model(g: int, h: BinaryForm) -> XgIdeal:
    """Hyperelliptic curve y^2 = h embedded in X_g: v_i v_j = p_ij(u).

    h is a binary form of degree 2g+2; p_ij lifts x0^(i+j) x1^(2g-6-i-j) h.
    """
    if h.degree != 2 * g + 2:
        raise ValueError("expected a form of degree %d" % (2 * g + 2))
    split = split_ribbon_ideal(g)
    vv = [((i, j), p - quartic_lift(BinaryForm.monomial(2 * g - 6, i + j) * h, g))
          for (i, j), p in split.VV]
    return XgIdeal(g, split.UU, split.UV, vv)


def split_ribbon_evaluation(p: WPoly):
    """Evaluate on the split ribbon: a pair (a, eps*b) with eps^2 = 0.

    u_i maps to (x0^i x1^(g-1-i), 0) and v_j to (0, x0^j x1^(g-3-j)); a term
    with two or more v factors dies.  Requires weighted-homogeneous input;
    returns (first, second) binary forms of degrees d(g-1) and d(g-1)-(g+1).
    Membership in the split-ribbon ideal is exactly: both vanish.
    """
    g = p.g
    if not p.terms:
        raise ValueError("evaluation of the zero polynomial has no determined degree")
    d = p.degree("weighted")
    deg1 = d * (g - 1)
    deg2 = deg1 - (g + 1)
    first = [Fraction(0)] * (deg1 + 1)
    second = [Fraction(0)] * (deg2 + 1) if deg2 >= 0 else None
    for e, c in p.terms.items():
        b = sum(e[g:])
        a = sum(i * k for i, k in enumerate(e[:g]))
        if b == 0:
            first[a] += c
        elif b == 1:
            if second is None:
                raise ValueError("degree too small for a v term")
            j = next(t for t, k in enumerate(e[g:]) if k)
            second[a + j] += c
    return (BinaryForm(deg1, first),
            BinaryForm(deg2, second) if second is not None else BinaryForm(0))


def generator_multiples(gens, degree: int, grading: str, columns=None):
    """Rows of every multiple m * gen of the given degree: the one matrix builder.

    For each generator of degree w <= degree (in order) and each monomial m
    of degree - w (in `monomials` order), one sparse row {column: coeff} of
    m * gen over `columns`, which defaults to monomials(g, degree, grading);
    pass another order to change the column order.  The multiplier list of
    each weight w is enumerated once and shared by the generators of that
    weight.  Returns (layout, rows, columns) with layout[i] = (generator
    index, m) for row i.  Coefficients are taken as they are, so truncated
    families work too.
    """
    gens = list(gens)
    if columns is None:
        columns = monomials(gens[0].g, degree, grading) if gens else []
    idx = monomial_index(columns)
    layout, rows = [], []
    multipliers = {}
    for e, gen in enumerate(gens):
        if not gen.is_homogeneous(grading):
            raise ValueError("generator is inhomogeneous in the %s grading" % grading)
        w = gen.degree(grading)
        if w is None or w > degree:
            continue
        if w not in multipliers:
            multipliers[w] = monomials(gen.g, degree - w, grading)
        terms = list(gen.terms.items())
        for m in multipliers[w]:
            layout.append((e, m))
            rows.append({idx[tuple(map(add, m, t))]: c for t, c in terms})
    return layout, rows, columns


def hilbert_function(ideal: XgIdeal, grading, degrees):
    """Dimension of (ring / ideal) in each requested degree, by sparse rank.

    No Groebner machinery.  Returns the list of dimensions aligned with
    `degrees`.  When UU and UV are exactly split_ribbon_ideal's groups over
    Q, as in the split and hyperelliptic models, the quotient by the ideal B
    they generate is known in closed form.  B is spanned by the binomials
    m - m' of monomials with the same key

        e -> (c, b, a) = (# u factors, # v factors, sum i e_(u_i) + sum j e_(v_j)),

    and they join every fibre of the key with c >= 1 into one class, while
    a pure-v monomial (c = 0) is a class on its own: the binomials are a
    Markov basis of the key (Diaconis-Sturmfels, Ann. Statist. 1998).
    Every a in [0, c(g-1) + b(g-3)] occurs, so (S/B)_d has

        #classes(d) = sum_(c >= 1) (c(g-1) + b(g-3) + 1) + sum_(c = 0) C(g-3+b, b)

    over the (c, b) of degree d, and dim (S/I)_d is #classes(d) minus the
    rank of the VV multiples projected onto the classes.  Every other ideal
    (canonical ribbons, v-rescaled models, families over Q[pi]/(pi^N))
    takes the generic branch: the rank of all generator multiples over the
    monomials.
    """
    if _has_split_binomials(ideal):
        return _split_quotient_dimensions(ideal, grading, degrees)
    out = []
    for degree in degrees:
        _, rows, columns = generator_multiples(ideal.generators(), degree, grading)
        out.append(len(columns) - sparse_rank(rows, len(columns)))
    return out


def _split_quotient_dimensions(ideal: XgIdeal, grading, degrees):
    """hilbert_function as #classes minus the rank of the projected VV multiples.

    The key is additive, so a multiple m * p is p's projection shifted by
    key(m), and the multipliers with c >= 1 in one class give one row.
    """
    g = ideal.g
    v_weight = WPoly.v_var(g, 0).degree(grading)  # refuses an unknown grading
    projected = []
    for _, p in ideal.VV:
        if not p.is_homogeneous(grading):
            raise ValueError("generator is inhomogeneous in the %s grading" % grading)
        if p.terms:
            projected.append((p.degree(grading),
                              [(_key(e, g), x) for e, x in p.terms.items()]))
    out = []
    for degree in degrees:
        rows = []
        for w, terms in projected:
            for cm, bm, am, vm in _classes(g, degree - w, v_weight):
                # a product with no u factor is a class of its own
                rows.append(_summed(((cm + c, bm + b, am + a) if cm or c
                                     else (0, bm + b, tuple(map(add, vm, v))), x)
                                    for (c, b, a, v), x in terms))
        # fibres first, by descending (c, b, a), then pure-v exponents descending
        index = {cls: i for i, cls in
                 enumerate(sorted({cls for row in rows for cls in row}, reverse=True))}
        rank = sparse_rank([{index[cls]: x for cls, x in row.items()} for row in rows],
                           len(index))
        out.append(_class_count(g, degree, v_weight) - rank)
    return out


def _has_split_binomials(ideal: XgIdeal) -> bool:
    """Are UU and UV exactly split_ribbon_ideal's groups, with rational coefficients?"""
    if ideal.g < 3:  # then it has no generators, and split_ribbon_ideal refuses g
        return False
    split = split_ribbon_ideal(ideal.g)
    ours = ideal.UU + ideal.UV
    return (ours == split.UU + split.UV
            and all(type(x) is Fraction for _, p in ours for x in p.terms.values()))


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


def _classes(g: int, degree: int, v_weight: int):
    """The classes of the degree's monomials modulo B, as _key tuples.

    First each fibre (c, b, a) with c >= 1, then each pure-v monomial.
    """
    for b in range(degree // v_weight + 1):
        c = degree - v_weight * b
        if c:
            for a in range(c * (g - 1) + b * (g - 3) + 1):
                yield c, b, a, None
        else:
            for v in _compositions(b, g - 2):
                yield 0, b, sum(j * k for j, k in enumerate(v)), v


def _class_count(g: int, degree: int, v_weight: int) -> int:
    """dim (S/B)_degree in closed form: the number of classes (see hilbert_function)."""
    return sum(c * (g - 1) + b * (g - 3) + 1 if c else comb(g - 3 + b, b)
               for b in range(degree // v_weight + 1)
               for c in (degree - v_weight * b,))


def eliminate_v_degree(ideal: XgIdeal, degree: int) -> IdealSlice:
    """u-polynomials of the given weighted degree lying in the ideal's slice.

    Degreewise linear algebra: put the v-involving monomials first, reduce
    the generator multiples, and keep the rref rows whose lead is a u-only
    monomial: they are already the canonical rows of the slice's u-only
    part.  No elimination order or Groebner step is involved.
    """
    g = ideal.g
    v_cols = [e for e in monomials(g, degree, "weighted") if any(e[g:])]
    u_cols = monomials(g, degree, u_only=True)
    _, rows, columns = generator_multiples(ideal.generators(), degree, "weighted",
                                           v_cols + u_cols)
    nv = len(v_cols)
    vectors = [{c - nv: v for c, v in row.items()}
               for row in RowEliminator(len(columns), rows).reduced_rows()
               if min(row) >= nv]
    return IdealSlice(g, degree, u_cols, vectors)


class GroebnerResult:
    """Buchberger's criterion in `order` on `basis`, the input less its zeros."""

    __slots__ = ("order", "basis", "input_is_groebner")

    def __init__(self, order, basis, input_is_groebner):
        self.order = order
        self.basis = basis
        self.input_is_groebner = input_is_groebner

    def leading_exponents(self):
        key = MONOMIAL_ORDERS[self.order]
        return [max(p.terms, key=key) for p in self.basis]

    def normal_monomial_count(self, degree: int, grading: str = "weighted") -> int:
        """Monomials of the degree not divisible by any leading monomial.

        Each lead's support is filed under its first variable, and a monomial
        is tested only against the supports filed under its own variables:
        a lead that divides it has its first variable among them.
        """
        candidates = monomials(self.basis[0].g, degree, grading)
        filed = {}
        for lead in self.leading_exponents():
            s = _support(lead)
            if not s:  # a constant lead: the unit ideal
                return 0
            filed.setdefault(s[0][0], []).append(s)
        return sum(1 for e in candidates
                   if not any(all(e[i] >= b for i, b in s)
                              for x, k in enumerate(e) if k for s in filed.get(x, ())))


def _support(lead):
    """The nonzero (index, exponent) pairs of a leading exponent."""
    return tuple((i, b) for i, b in enumerate(lead) if b)


def _top_reduce(p: WPoly, basis, leads, supports, key) -> WPoly:
    """Reduce the leading term of p against the basis until stuck or zero.

    `supports[t]` is `_support(leads[t])`, on which divisibility is tested.
    """
    g = p.g
    while p.terms:
        lt = max(p.terms, key=key)
        hit = None
        for t, s in enumerate(supports):
            if all(lt[i] >= b for i, b in s):
                hit = t
                break
        if hit is None:
            return p
        quot = tuple(a - b for a, b in zip(lt, leads[hit]))
        factor = p.terms[lt] / basis[hit].terms[leads[hit]]
        p = p - WPoly(g, {quot: factor}) * basis[hit]
    return p


def _s_poly(f: WPoly, h: WPoly, lead_f, lead_h, key) -> WPoly:
    g = f.g
    lcm = tuple(max(a, b) for a, b in zip(lead_f, lead_h))
    mf = tuple(a - b for a, b in zip(lcm, lead_f))
    mh = tuple(a - b for a, b in zip(lcm, lead_h))
    return (WPoly(g, {mf: 1 / f.terms[lead_f]}) * f
            - WPoly(g, {mh: 1 / h.terms[lead_h]}) * h)


def buchberger(gens, order: str = "grlex") -> GroebnerResult:
    """Buchberger's criterion: is the input a Groebner basis in `order`?

    `gens` is an XgIdeal or a plain list of WPoly.  Every S-pair of the
    input is top-reduced against the input, in pair order, and the check
    stops at the first nonzero remainder (Cox-Little-O'Shea, Ideals,
    Varieties, and Algorithms, section 2.6).  By the product criterion a
    pair whose leading monomials are coprime reduces to zero, so it is
    skipped (ibid., section 2.9, Proposition 4).  Nothing is added to the
    basis.
    """
    if order not in MONOMIAL_ORDERS:
        raise ValueError("unknown order %r" % order)
    key = MONOMIAL_ORDERS[order]
    if isinstance(gens, XgIdeal):
        gens = gens.generators()
    basis = [p for p in gens if p]
    if not basis:
        raise ValueError("empty generating set")
    leads = [max(p.terms, key=key) for p in basis]
    supports = [_support(lead) for lead in leads]
    input_is_groebner = not any(
        _top_reduce(_s_poly(basis[i], basis[j], leads[i], leads[j], key),
                    basis, leads, supports, key)
        for i in range(len(basis)) for j in range(i + 1, len(basis))
        if any(a and b for a, b in zip(leads[i], leads[j])))
    return GroebnerResult(order, basis, input_is_groebner)


def certify_groebner(ideal: XgIdeal):
    """Try grlex then grevlex; return the first certifying GroebnerResult.

    Each try is Buchberger's criterion; None when neither order certifies.
    """
    gens = ideal.generators()
    for order in ("grlex", "grevlex"):
        res = buchberger(gens, order)
        if res.input_is_groebner:
            return res
    return None


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

    `kernel_dim` (all syzygies) and `from_lower_dim` (monomial multiples of
    lower-degree minimal syzygies) are ranks, and `minimal_count` is their
    difference.  `representatives` are the minimal syzygies found here, each
    one coefficient WPoly per generator.  `shape_matched` reports whether
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


def syzygies_by_degree(ideal: XgIdeal, max_degree: int,
                       shape_table: str = "ribbon"):
    """First syzygies of the generator set, degree by weighted degree.

    For each degree up to max_degree, both counts are ranks: the rows of the
    generator multiples minus their rank, and the rank of the lower minimal
    representatives shifted by every monomial of the degree difference
    (these span the same submodule as multiples of the full lower kernels).
    Only where they differ is the left kernel built; its vectors outside the
    lifted span, taken greedily, are the new minimal representatives, and
    their schematic shape is checked by restricting supports to the allowed
    (group, coefficient-bidegree) pattern.
    """
    g = ideal.g
    shapes = SYZYGY_SHAPE_TABLES[shape_table]
    groups = ideal.generator_groups()
    gens = ideal.generators()
    records = {}
    min_gen_degree = min(p.degree("weighted") for p in gens)
    for degree in range(min_gen_degree + 1, max_degree + 1):
        layout, rows, columns = generator_multiples(gens, degree, "weighted")
        kernel_dim = len(rows) - sparse_rank(rows, len(columns))
        row_of = {key: i for i, key in enumerate(layout)}
        lifted_rows = [{row_of[e, tuple(map(add, m, shift))]: c
                        for e, coeff in enumerate(rep) for m, c in coeff.terms.items()}
                       for lower in records.values()
                       for shift in monomials(g, degree - lower.degree, "weighted")
                       for rep in lower.representatives]
        elim = RowEliminator(len(layout), lifted_rows)
        from_lower_dim = elim.rank
        new_reps = ([v for v in left_kernel(rows, len(columns)) if elim.add(v)]
                    if kernel_dim > from_lower_dim else [])
        shape_name, pattern = shapes.get(degree, (None, None))
        shape_matched = False if new_reps else None
        if new_reps and pattern is not None:
            allowed = dict(pattern)
            pure_cols = [col for col, (e, m) in enumerate(layout)
                         if allowed.get(groups[e]) == (sum(m[:g]), sum(m[g:]))]
            pure = [{pure_cols[local]: c for local, c in v.items()}
                    for v in left_kernel([rows[col] for col in pure_cols], len(columns))]
            # the pure syzygies cover the minimal ones exactly when the
            # lifted and pure rows together span the whole kernel
            shape_matched = RowEliminator(len(layout), lifted_rows + pure).rank == kernel_dim
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
