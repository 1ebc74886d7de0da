"""Kernels as they were written before their fast paths, kept as oracles.

Most functions here are the loop their counterpart in `ribbonlab` ran before
that counterpart moved to integers inside (`exact.to_integers`) and Fractions
only at the output (`exact.from_integers`).  Every step of those is a
Fraction operation and every result goes through a public constructor, so
they are the oracles for the integer kernels.

The rest are the slower paths of the families layer and the matrix builder:
the flatness table that eliminates every pi-layer of every multiple, the
family transforms that build their items through the public, checking
constructors, and `generator_multiples` keyed by exponent tuples.
"""

from fractions import Fraction
from operator import add

from ribbonlab.exact import RatMatrix, RowEliminator, TruncatedScalar
from ribbonlab.families import TruncatedFamily, _is_even, _lift_poly
from ribbonlab.poly import BinaryForm, WPoly, monomials
from ribbonlab.xg import GROUP_DEGREES, GROUPS, _integral, generator_multiples
from ribbonlab.xg import hyperelliptic_model, v_linear_forms
from test_poly import x0_power


def form_product(f, h):
    out = [Fraction(0)] * (f.degree + h.degree + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(h.coeffs):
            out[i + j] += a * b
    return BinaryForm(f.degree + h.degree, out)


def form_derivative(f, var):
    if f.degree == 0:
        return BinaryForm(0)
    out = [Fraction(0)] * f.degree
    for a, c in enumerate(f.coeffs):
        if var == 0 and a:
            out[a - 1] = a * c
        elif var == 1 and f.degree - a:
            out[a] = (f.degree - a) * c
    return BinaryForm(f.degree - 1, out)


def wpoly_product(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return WPoly(p.g, out)


def pullback(p):
    """veronese_pullback on a nonzero u-only polynomial of weighted degree d."""
    g = p.g
    d = p.degree()
    coeffs = [Fraction(0)] * (d * (g - 1) + 1)
    for e, c in p.terms.items():
        coeffs[sum(i * k for i, k in enumerate(e[:g]))] += c
    return BinaryForm(d * (g - 1), coeffs)


def phi_matrix(x, d):
    """The closed form of phi_d(x), as a RatMatrix, on a relation x of degree d."""
    g = x.g
    ncols = (d - 1) * (g - 1) - 1
    rows = [[Fraction(0)] * ncols for _ in range(g - 2)]
    for e, c in x.terms.items():
        a = sum(i * k for i, k in enumerate(e[:g]))
        s = w = 0
        for j in range(g - 2):
            s += e[j]
            w += s
            if w and a >= j + 2:
                rows[j][a - j - 2] += w * c
    return RatMatrix(rows, ncols=ncols)


def quadric(q):
    """q_to_quadric: sum_{i,j} q_ij (u_{i+2} u_j - u_{i+1} u_{j+1})."""
    g = q.g
    total = {}
    for i in range(q.size):
        for j in range(q.size):
            c = q.mat.rows[i][j]
            for (a, b), sign in (((i + 2, j), 1), ((i + 1, j + 1), -1)):
                e = [0] * (2 * g - 2)
                e[a] += 1
                e[b] += 1
                key = tuple(e)
                total[key] = total.get(key, Fraction(0)) + sign * c
    return WPoly(g, total)


def slice_contains(slice_, p):
    """IdealSlice.contains: subtract factor * row for each canonical row whose lead p meets."""
    vec = slice_.vector_of(p)
    for row in slice_.rows:
        factor = vec.get(next(iter(row)))
        if factor:
            for c, v in row.items():
                vec[c] = vec.get(c, 0) - factor * v
    return not any(vec.values())


def evaluation(p):
    """split_ribbon_evaluation on a nonzero weighted-homogeneous p."""
    g = p.g
    d = p.degree()
    deg1 = d * (g - 1)
    deg2 = deg1 - (g + 1)
    first = [Fraction(0)] * (deg1 + 1)
    second = [Fraction(0)] * (deg2 + 1) if deg2 >= 0 else [Fraction(0)]
    for e, c in p.terms.items():
        b = sum(e[g:])
        a = sum(i * k for i, k in enumerate(e[:g]))
        if b == 0:
            first[a] += c
        elif b == 1:
            j = next(t for t, k in enumerate(e[g:]) if k)
            second[a + j] += c
    return BinaryForm(deg1, first), BinaryForm(max(deg2, 0), second)


def summed_quartic_lift(f, g):
    """quartic_lift as a sum of one public u-monomial per coefficient of f."""
    n = g - 1
    total = WPoly.zero(g)
    for k, c in enumerate(f.coeffs):
        if not c:
            continue
        indices = []
        rem = k
        for _ in range(4):
            a = min(n, rem)
            indices.append(a)
            rem -= a
        total = total + WPoly.u_monomial(g, indices).map_coeffs(lambda one: one * c)
    return total


def hyperelliptic_vv(split_vv, g, h):
    """The VV group of hyperelliptic_model: each v_i v_j minus the lift of
    the product x0^(i+j) x1^(2g-6-i-j) * h."""
    return [((i, j), p - summed_quartic_lift(form_product(x0_power(2 * g - 6, i + j), h), g))
            for (i, j), p in split_vv]


def tuple_keyed_multiples(gens, degree, columns=None):
    """generator_multiples with each column looked up by its exponent tuple m + t."""
    gens = list(gens)
    if columns is None:
        columns = monomials(gens[0].g, degree) if gens else []
    idx = {e: i for i, e in enumerate(columns)}
    layout, rows = [], []
    multipliers = {}
    for e, gen in enumerate(gens):
        w = gen.degree()
        if w is None or w > degree:
            continue
        if w not in multipliers:
            multipliers[w] = monomials(gen.g, degree - w)
        terms = [(t, _integral(c)) for t, c in gen.terms.items()]
        for m in multipliers[w]:
            layout.append((e, m))
            rows.append({idx[tuple(map(add, m, t))]: c for t, c in terms})
    return layout, rows, columns


def layered_reduction_hilbert_function(family, modulus, degrees):
    """reduction_hilbert_function with every multiple written once per pi-layer."""
    table = {m: [] for m in range(1, modulus + 1)}
    for degree in degrees:
        _, rows, columns = generator_multiples(family.generators(), degree)
        n = len(columns)
        layered = [{t * n + col: c.coeffs[t - layer]
                    for col, c in row.items()
                    for t in range(layer, modulus) if c.coeffs[t - layer]}
                   for row in rows for layer in range(modulus)]
        leads = RowEliminator(n * modulus, layered).pivots
        for m, dims in table.items():
            dims.append(n * m - sum(1 for lead in leads if lead < n * m))
    return table


# The family transforms, each building its result through the public
# TruncatedFamily and WPoly constructors, which check every item again.

def checked_perturb_hyperelliptic(g, h, d, order_bound, odd_direction):
    ell = v_linear_forms(g, odd_direction)
    model = hyperelliptic_model(g, h)
    model = TruncatedFamily(g, order_bound, *model.mapped(
        lambda name, key, p: _lift_poly(p, order_bound)))
    uu = [(key, p + _lift_poly(e, order_bound, shift=d) if e else p)
          for (key, p), e in zip(model.UU, ell)]
    return TruncatedFamily(g, order_bound, uu, model.UV, model.VV)


def checked_rescale_v(family, k):
    if k == 0:
        return family
    g = family.g
    n = family.order_bound - (k if k > 0 else -2 * k)

    def rescaled(name, key, p):
        terms = {}
        for e, c in p.terms.items():
            shifted = c.shift(k * (GROUP_DEGREES[name] - 2 - sum(e[g:]))).truncate(n)
            if shifted:
                terms[e] = shifted
        return WPoly(g, terms)

    return TruncatedFamily(g, n, *family.mapped(rescaled))


def checked_negate_v(family):
    g = family.g
    return TruncatedFamily(g, family.order_bound, *family.mapped(
        lambda name, key, p: WPoly(g, {e: c if _is_even(name, e, g) else -c
                                       for e, c in p.terms.items()})))


def checked_even_odd_split(family, base):
    g, n = family.g, family.order_bound
    even, odd = {}, {}
    for name in GROUPS:
        even[name], odd[name] = [], []
        for (key, p), (_, bp) in zip(family.group_items(name), base.group_items(name)):
            dev = p - _lift_poly(bp, n)
            for part, keep in ((even, True), (odd, False)):
                part[name].append((key, WPoly(g, {e: c for e, c in dev.terms.items()
                                                  if _is_even(name, e, g) == keep})))
    return even, odd


def checked_base_change_pi_squared(family):
    n = 2 * family.order_bound - 1

    def stretch(c):
        out = [Fraction(0)] * n
        for i, a in enumerate(c.coeffs):
            out[2 * i] = a
        return TruncatedScalar(out)

    return TruncatedFamily(family.g, n, *family.mapped(
        lambda name, key, p: p.map_coeffs(stretch)))
