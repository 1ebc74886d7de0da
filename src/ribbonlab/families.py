"""One-parameter families of X_g ideals over the truncated base Q[pi]/(pi^N).

A hyperelliptic model v_i*v_j = p_ij(u) can be pushed toward the split
ribbon by rescaling the v coordinates: substituting v -> v/pi^k and
clearing the forced denominators turns a family that is hyperelliptic to
order d into one that is a ribbon to order 2d, and the quartics p_ij
reappear at level pi^{2d}, where they record a single binary form of
degree 2g+2 (the branch data).  This module implements the truncated
families, the rescaling, order detection, the even/odd splitting under
the involution v -> -v, and extraction of that degree 2g+2 section
together with a discriminant that vanishes exactly on non-simple zeros.
A TruncatedFamily is an xg.XgIdeal whose coefficients are TruncatedScalar
values.  They are only added, negated, shifted by powers of pi and
truncated, never multiplied: every product, here and below, is over Q.
Every operation that changes coefficients rebuilds the three groups
through XgIdeal.mapped.

Values are validated once, at the boundary.  The TruncatedFamily
constructor (and so from_json and constant_family) checks every key list,
coefficient order and generator degree.  The transforms whose inputs are
already checked, a family or a model with v_linear_forms' directions
(perturb_hyperelliptic, rescale_v, negate_v, base_change_pi_squared,
even_odd_split), build their results through the private
TruncatedFamily._raw and WPoly._raw and keep only the refusals that can
still fire: a bad rescaling, and a generator that the truncation of a
rescaling empties, refused with the constructor's message.

Order detection is literal shape detection: a family counts as
hyperelliptic (or a ribbon) to order m when its reduction mod pi^m
displays the exact generator shapes.  No attempt is made to normalize
away coordinate changes first, so callers are expected to feed families
that are already in normalized coordinates, as every constructor here
produces.

Flatness is read from reduction_hilbert_function, the table of quotient
dimensions of the reductions mod pi^m for every m up to a modulus, taken
from one elimination per degree.  A family is free through m when row m is
m times the fiber row.  At g = 4 and 5 a family perturbed at pi^d is free
through exactly d, and after rescaling by d through exactly 2d: order
doubling stated as flatness.  At g = 3 both models are complete
intersections, and every such family is free through its bound.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import (_ZERO, RatMatrix, RowEliminator, TruncatedScalar, json_fields, json_int,
                    rat_to_str, to_integers)
from .poly import BinaryForm, WPoly, veronese_pullback
from .xg import (
    GROUP_DEGREES,
    GROUP_KEYS,
    GROUPS,
    XgIdeal,
    generator_multiples,
    hyperelliptic_model,
    load_groups,
    split_ribbon_ideal,
    v_linear_forms,
)

# Involution signs: v -> -v composed with these per-group signs fixes
# every split-ribbon and hyperelliptic generator.
GROUP_SIGNS = {"UU": 1, "UV": -1, "VV": 1}


def _is_even(name: str, e, g: int) -> bool:
    """Whether negate_v fixes a term with exponent e of a `name` generator."""
    return (-1) ** sum(e[g:]) == GROUP_SIGNS[name]


def _lift_poly(p: WPoly, order: int, shift: int = 0) -> WPoly:
    """Lift a rational polynomial to truncated coefficients times pi^shift."""
    return p.map_coeffs(lambda c: TruncatedScalar.from_rational(c, order).shift(shift))


class TruncatedFamily(XgIdeal):
    """An XgIdeal over Q[pi]/(pi^order_bound).

    Keys are the standard lists of the fiber module, every coefficient is
    a TruncatedScalar of order `order_bound`, and each generator is
    weighted homogeneous of its group degree (2, 3, 4).
    """

    __slots__ = ("order_bound",)

    def __init__(self, g: int, order_bound: int, UU, UV, VV):
        if order_bound < 1:
            raise ValueError("order bound must be at least 1")
        if g < 3:
            raise ValueError("genus must be at least 3")
        # there are (g-1)(g-2)/2 UU keys: counting first keeps a genus far
        # beyond the given items from enumerating its key lists
        if len(UU) != (g - 1) * (g - 2) // 2:
            raise ValueError("UU keys must be the standard list for g=%d" % g)
        super().__init__(g, UU, UV, VV)
        self.order_bound = order_bound
        for name in GROUPS:
            items = self.group_items(name)
            if [key for key, _ in items] != GROUP_KEYS[name](g):
                raise ValueError("%s keys must be the standard list for g=%d" % (name, g))
            for key, p in items:
                for c in p.terms.values():
                    if not isinstance(c, TruncatedScalar) or c.order != order_bound:
                        raise ValueError("coefficients must live in Q[pi]/(pi^%d)"
                                         % order_bound)
                # an inhomogeneous generator is refused by name, like a wrong degree
                if {sum(e[:g]) + 2 * sum(e[g:]) for e in p.terms} != {GROUP_DEGREES[name]}:
                    _refuse_degree(name, key)

    @classmethod
    def _raw(cls, g: int, order_bound: int, UU, UV, VV) -> "TruncatedFamily":
        """The family with these groups, already in the shape the constructor checks."""
        f = object.__new__(cls)
        f.g, f.order_bound, f.UU, f.UV, f.VV = g, order_bound, UU, UV, VV
        return f

    def special_fiber(self) -> XgIdeal:
        """The reduction mod pi, over Q."""
        return XgIdeal(self.g, *self.mapped(
            lambda name, key, p: p.map_coeffs(TruncatedScalar.constant_term)))

    def __eq__(self, other):
        if type(other) is not TruncatedFamily:
            return NotImplemented
        return self.order_bound == other.order_bound and XgIdeal.__eq__(self, other)

    def __repr__(self):
        return "TruncatedFamily(g=%d, mod pi^%d)" % (self.g, self.order_bound)

    def to_json(self):
        return {**super().to_json(), "order_bound": self.order_bound}

    @classmethod
    def from_json(cls, data) -> "TruncatedFamily":
        g, bound = json_fields(data, "a family object", "g", "order_bound")
        g = json_int(g, "the genus g")
        return cls(g, json_int(bound, "the order bound"), *load_groups(g, data))


def _refuse_degree(name: str, key):
    raise ValueError("%s generator %s must be weighted-homogeneous of degree %d"
                     % (name, key, GROUP_DEGREES[name]))


def constant_family(ideal: XgIdeal, order_bound: int) -> TruncatedFamily:
    """The ideal viewed as a family that does not move with pi."""
    return TruncatedFamily(ideal.g, order_bound, *ideal.mapped(
        lambda name, key, p: _lift_poly(p, order_bound)))


def perturb_hyperelliptic(g: int, h: BinaryForm, d: int, order_bound: int,
                          odd_direction) -> TruncatedFamily:
    """Add pi^d times v-linear forms to the pure-u equations of v^2 = h.

    `odd_direction` is a list of v-linear forms (zero ones included) aligned
    with uu_keys(g).  The result reduces to the hyperelliptic model mod pi^d
    and, when some entry is nonzero, stops being hyperelliptic at order d+1.
    """
    if d < 1:
        raise ValueError("perturbation order d must be at least 1")
    if order_bound <= 2 * d:
        raise ValueError("order bound %d must exceed 2d = %d" % (order_bound, 2 * d))
    ell = v_linear_forms(g, odd_direction)
    uu, uv, vv = hyperelliptic_model(g, h).mapped(
        lambda name, key, p: _lift_poly(p, order_bound))
    uu = [(key, p + _lift_poly(e, order_bound, shift=d) if e else p)
          for (key, p), e in zip(uu, ell)]
    return TruncatedFamily._raw(g, order_bound, uu, uv, vv)


def rescale_v(family: TruncatedFamily, k: int) -> TruncatedFamily:
    """Substitute v -> v/pi^k and clear the forced denominators groupwise.

    Each group is multiplied back by the power of pi that returns its base
    term to level pi^0: UU by pi^0, UV by pi^k, VV by pi^{2k}.  A term with
    b v-factors therefore shifts by pi^(mult - k*b), and the shift must be
    exact, which for k > 0 constrains exactly the v-linear parts of the UU
    equations.  The order bound drops by the largest power divided out of
    any coefficient slot: k when k > 0, 2|k| when k < 0.
    """
    if k == 0:
        return family
    g = family.g
    drop = k if k > 0 else -2 * k
    n = family.order_bound - drop
    if n < 1:
        raise ValueError("rescaling by k=%d needs order bound above %d" % (k, drop))

    def rescaled(name, key, p):
        terms = {}
        for e, c in p.terms.items():
            # the group's base term has GROUP_DEGREES[name] - 2 v-factors
            s = k * (GROUP_DEGREES[name] - 2 - sum(e[g:]))
            try:
                shifted = c.shift(s)
            except ValueError:
                raise ValueError("%s generator %s does not admit the rescaling:"
                                 " a coefficient is not divisible by pi^%d"
                                 % (name, key, -s))
            shifted = shifted.truncate(n)
            if shifted:
                terms[e] = shifted
        if not terms:  # the one refusal of the constructor's that can still fire
            _refuse_degree(name, key)
        return WPoly._raw(g, terms)

    return TruncatedFamily._raw(g, n, *family.mapped(rescaled))


def negate_v(family: TruncatedFamily) -> TruncatedFamily:
    """The involution v -> -v with group signs (+1, -1, +1).

    The signs are chosen so that every split-ribbon, canonical-ribbon-base
    and hyperelliptic generator is fixed; only genuinely odd perturbation
    terms change sign.
    """
    g = family.g
    return TruncatedFamily._raw(g, family.order_bound, *family.mapped(
        lambda name, key, p: WPoly._raw(g, {e: c if _is_even(name, e, g) else -c
                                            for e, c in p.terms.items()})))


def even_odd_split(family: TruncatedFamily, base: XgIdeal):
    """Split family - base into parts fixed and negated by negate_v.

    Requires the family to reduce to `base` mod pi.  Returns a pair of
    dicts {group name: [(key, poly), ...]} with family = base + even + odd;
    the parts are deviations, not families, since they vanish mod pi.
    """
    if family.special_fiber() != base:
        raise ValueError("family does not reduce to the given ideal mod pi")
    g, n = family.g, family.order_bound
    even, odd = {}, {}
    for name in GROUPS:
        even[name], odd[name] = [], []
        for (key, p), (_, bp) in zip(family.group_items(name), base.group_items(name)):
            dev = p - _lift_poly(bp, n)
            for part, keep in ((even, True), (odd, False)):
                part[name].append((key, WPoly._raw(g, {e: c for e, c in dev.terms.items()
                                                       if _is_even(name, e, g) == keep})))
    return even, odd


def _shape_order(family: TruncatedFamily, allowed_v_degrees) -> int:
    """Largest m <= order_bound with the reduction mod pi^m in the given shape.

    The shape fixes every generator to its standard base polynomial except
    for deviation monomials whose v-degree is allowed for the group.  The
    deviation is read digit by digit: the base polynomial is rational, so
    it changes only the constant digit of each coefficient.
    """
    g, m = family.g, family.order_bound
    split = split_ribbon_ideal(g)
    for name in GROUPS:
        allowed = allowed_v_degrees[name]
        for (_, p), (_, base) in zip(family.group_items(name), split.group_items(name)):
            base = base.terms
            if any(e not in p.terms and sum(e[g:]) not in allowed for e in base):
                return 0  # the deviation keeps -base's constant digit there
            for e, c in p.terms.items():
                if sum(e[g:]) not in allowed:
                    m = _deviation_valuation(c, base.get(e, 0), m)
    return m


def _deviation_valuation(c: TruncatedScalar, b, bound: int) -> int:
    """The valuation of c - b for a rational b, or bound if that is smaller."""
    digits = c.coeffs
    if digits[0] != b:
        return 0
    for i in range(1, bound):
        if digits[i]:
            return i
    return bound


def ribbon_order(family: TruncatedFamily) -> int:
    """Largest m <= order_bound with the reduction mod pi^m a canonical ribbon.

    Canonical ribbon shape: UU equations are the base pure-u quadrics plus
    arbitrary v-linear terms, UV equations are standard, VV equations are
    exactly v_i*v_j.  Returns the order bound when the shape persists that
    far, so a return value equal to order_bound means "at least", not
    "exactly".
    """
    return _shape_order(family, {"UU": (1,), "UV": (), "VV": ()})


def hyperell_order(family: TruncatedFamily) -> int:
    """Largest m <= order_bound with the reduction mod pi^m hyperelliptic.

    Hyperelliptic shape: UU and UV equations standard, VV equations
    v_i*v_j minus an arbitrary pure-u quartic.
    """
    return _shape_order(family, {"UU": (), "UV": (), "VV": (0,)})


def discriminant_section(family: TruncatedFamily) -> BinaryForm:
    """Read the degree 2g+2 section off a family in normalized ribbon form.

    The family must be a ribbon to an exact even order 2d below its bound,
    with VV equations v_i*v_j - pi^{2d}*p_ij(u) + higher terms.  Each p_ij
    pulls back to x0^(i+j) * x1^(2g-6-i-j) times a common form s of degree
    2g+2, which is returned; any failure of that pattern is an error.
    """
    g = family.g
    m = ribbon_order(family)
    if m >= family.order_bound:
        raise ValueError("family stays in ribbon form to the truncation bound;"
                         " there is no level to read the section from")
    if m % 2:
        raise ValueError("family leaves ribbon form at odd order %d" % m)
    quotient = None
    for (key, p), (_, base) in zip(family.VV, split_ribbon_ideal(g).VV):
        i, j = key
        # digit m of p - base: the rational base lies in the constant digit only
        dev = WPoly._raw(g, {e: c.coeffs[m] for e, c in p.terms.items() if c.coeffs[m]})
        if m == 0:
            dev = dev - base
        if any(any(e[g:]) for e in dev.terms):
            raise ValueError("family is not normalized: VV%s has v terms"
                             " at level pi^%d" % (key, m))
        p_ij = -dev
        if not p_ij:
            raise ValueError("family is not normalized: VV%s has no pure-u"
                             " term at level pi^%d" % (key, m))
        pulled = veronese_pullback(p_ij)
        quot = pulled.divide_exact(i + j, 2 * g - 6 - i - j)
        if quotient is None:
            quotient = quot
        elif quotient != quot:
            raise ValueError("family is not normalized: the VV quartics do"
                             " not match a single section")
    return quotient


def binary_discriminant(s: BinaryForm) -> Fraction:
    """Nonzero exactly when s has simple zeros on the projective line.

    Computed as the resultant of the two partial derivatives, divided by
    the x0-leading coefficient when that is nonzero.  Roots at infinity
    need no special handling because the homogeneous resultant sees them.
    The partials share the degree m = deg s - 1, so their resultant is
    read off their m x m Bezout matrix (_bezout_resultant).
    """
    if s.is_zero():
        raise ValueError("the zero form has no discriminant")
    if s.degree < 1:
        raise ValueError("the form must have positive degree")
    r = _bezout_resultant(s.derivative(0), s.derivative(1))
    lead = s.coeff(s.degree)
    return r / lead if lead else r


def _bezout_resultant(f: BinaryForm, g: BinaryForm) -> Fraction:
    """Homogeneous resultant of two binary forms of the same degree m.

    With F = L_f * f and G = L_g * g the integer multiples by the lcms of
    the denominators, and F_i, G_i their coefficients of x0^i x1^(m-i),
    the Bezout matrix B of F and G has entry (i, j) equal to the
    coefficient of x^i y^j in (F(x)G(y) - F(y)G(x)) / (x - y), that is
    B[i][j] = c(j+1, i) + B[i-1][j+1] with c(p, q) = F_p G_q - F_q G_p.
    Then Res(F, G) = (-1)^(m(m-1)/2) det B as an identity of polynomials
    in the coefficients, so vanishing leading coefficients need no special
    case, and Res(f, g) = Res(F, G) / (L_f L_g)^m.
    """
    m = f.degree
    (lf, a), (lg, b) = to_integers(f.coeffs), to_integers(g.coeffs)
    c = [[a[p] * b[q] - a[q] * b[p] for q in range(m + 1)] for p in range(m + 1)]
    rows = []
    for i in range(m):
        rows.append(tuple(c[j + 1][i] + (rows[i - 1][j + 1] if i and j + 1 < m else 0)
                          for j in range(m)))
    r = RatMatrix._raw(tuple(rows), m).det() / (lf * lg) ** m
    return -r if m * (m - 1) // 2 % 2 else r


def base_change_pi_squared(family: TruncatedFamily) -> TruncatedFamily:
    """Reindex coefficients along pi -> pi^2: digit i moves to digit 2i.

    The new bound 2N-1 is exactly what the old digits determine.  Shape
    orders double, capped at the new bound.
    """
    n = 2 * family.order_bound - 1

    def stretch(c: TruncatedScalar) -> TruncatedScalar:
        out = [_ZERO] * n
        out[::2] = c.coeffs
        return TruncatedScalar._raw(tuple(out))

    return TruncatedFamily._raw(family.g, n, *family.mapped(
        lambda name, key, p: p.map_coeffs(stretch)))


def order_doubling_experiment(g: int, h: BinaryForm, d: int, odd_direction) -> dict:
    """Certify that rescaling turns order-d hyperelliptic into order-2d ribbon.

    Builds the perturbed family at order bound 3d+2 (rescaling by d costs d
    digits, and certifying that the ribbon order is exactly 2d rather than
    merely >= 2d needs the rescaled bound to stay above 2d), rescales,
    checks both orders, and reads the section back, which must equal h.
    Raises on any failed check; returns the report as a JSON-ready dict.
    """
    if not any(odd_direction):
        raise ValueError("odd direction must be nonzero")
    order_bound = 3 * d + 2
    family = perturb_hyperelliptic(g, h, d, order_bound, odd_direction)
    found_h = hyperell_order(family)
    if found_h != d:
        raise ArithmeticError("expected hyperelliptic order %d, found %d"
                              % (d, found_h))
    rescaled = rescale_v(family, d)
    found_r = ribbon_order(rescaled)
    if found_r >= rescaled.order_bound:
        raise ArithmeticError("ribbon order not resolved within the bound")
    if found_r != 2 * d:
        raise ArithmeticError("expected ribbon order %d, found %d"
                              % (2 * d, found_r))
    section = discriminant_section(rescaled)
    if section != h:
        raise ArithmeticError("extracted section does not match the input form")
    return {
        "g": g,
        "d": d,
        "order_bound": order_bound,
        "hyperell_order": found_h,
        "rescaled_order_bound": rescaled.order_bound,
        "ribbon_order": found_r,
        "section_degree": section.degree,
        "section_matches_input": True,
        "binary_discriminant": rat_to_str(binary_discriminant(h)),
    }


def reduction_hilbert_function(family: TruncatedFamily, modulus: int, degrees):
    """Q-dimensions of the quotient slices of the reductions mod pi^m, m = 1..modulus.

    Returns the table {m: [dimension in each of `degrees`]}.  Mod pi^m every
    coefficient contributes m rational layers, so a family that is degreewise
    free over Q[pi]/(pi^m) shows m times its fiber numbers at m; drops below
    that witness a failure of flatness.

    One elimination per degree gives the whole table.  The slice mod
    pi^modulus is spanned by the products pi^layer * multiple, layer <
    modulus, written over the digit-major columns t*n + c (pi digit t,
    monomial c).  Mod pi^m that matrix is the projection onto the columns
    below m*n, since the digits at m and above vanish there; the engine
    leads each pivot at its smallest column, so that projection has rank
    the number of pivots leading below m*n.

    Multiplication by pi is a linear map on these columns: the shift by n,
    cut at modulus*n.  So only layer 0 is eliminated from the multiples.
    Its pivot rows span the same space as the multiples, so their shifts
    span the same space as the shifted multiples, and each pivot row is
    absorbed once per higher layer, shifted by layer*n and cut.  The row
    space, hence the lead set and the table, is the same, from #multiples +
    rank*(modulus-1) rows instead of #multiples*modulus.
    """
    if not 1 <= modulus <= family.order_bound:
        raise ValueError("modulus must lie between 1 and the order bound")
    table = {m: [] for m in range(1, modulus + 1)}
    for degree in degrees:
        _, rows, columns = generator_multiples(family.generators(), degree)
        n = len(columns)
        top = n * modulus
        elim = RowEliminator(top, [{t * n + col: c.coeffs[t]
                                    for col, c in row.items()
                                    for t in range(modulus) if c.coeffs[t]}
                                   for row in rows])
        layer0 = [{lead: a, **tail} for lead, (a, tail) in elim.pivots.items()]
        for shift in range(n, top, n):
            for row in layer0:
                elim.add({c + shift: v for c, v in row.items() if c + shift < top})
        leads = elim.pivots
        for m, dims in table.items():
            dims.append(n * m - sum(1 for lead in leads if lead < n * m))
    return table
