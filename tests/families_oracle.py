"""Family invariants read the long way, kept as oracles for `ribbonlab.families`.

Shape orders and sections: this is how the module read a family's deviation
from the split ribbon before it read the digits directly.  Each base
polynomial is built afresh, lifted to Q[pi]/(pi^N) and subtracted from its
generator, and the deviation's coefficients are inspected as truncated
scalars.

Reduction numbers: `oracle_reduction_hilbert_function` builds and ranks the
layered matrix afresh for one modulus, monomial-major, as the module did
before one elimination at the top modulus gave the whole table.
"""

from ribbonlab.exact import RowEliminator, TruncatedScalar
from ribbonlab.poly import WPoly, veronese_pullback
from ribbonlab.xg import BASE_POLYS, GROUPS, generator_multiples, vv_base_poly


def lifted(p, order):
    """p with every rational coefficient lifted to Q[pi]/(pi^order)."""
    return p.map_coeffs(lambda c: TruncatedScalar.from_rational(c, order))


def oracle_shape_order(family, allowed_v_degrees):
    m = family.order_bound
    for name in GROUPS:
        for key, p in family.group_items(name):
            dev = p - lifted(BASE_POLYS[name](family.g, key), family.order_bound)
            for e, c in dev.terms.items():
                if sum(e[family.g:]) in allowed_v_degrees[name]:
                    continue
                # the valuation of c: its first nonzero digit (none if c is zero)
                m = min(m, next((i for i, a in enumerate(c.coeffs) if a), m))
    return m


def oracle_ribbon_order(family):
    return oracle_shape_order(family, {"UU": (1,), "UV": (), "VV": ()})


def oracle_hyperell_order(family):
    return oracle_shape_order(family, {"UU": (), "UV": (), "VV": (0,)})


def oracle_section(family, m):
    """The common quotient of the pulled-back quartics p_ij at level pi^m, or None."""
    g = family.g
    quotients = set()
    for (i, j), p in family.VV:
        dev = p - lifted(vv_base_poly(g, (i, j)), family.order_bound)
        p_ij = WPoly(g, {e: -c.coeffs[m] for e, c in dev.terms.items() if c.coeffs[m]})
        quotients.add(veronese_pullback(p_ij).divide_exact(i + j, 2 * g - 6 - i - j))
    return quotients.pop() if len(quotients) == 1 else None


def oracle_reduction_hilbert_function(family, modulus, degrees):
    """Q-dimensions of the quotient slices of the reduction mod pi^modulus alone."""
    out = []
    for degree in degrees:
        _, rows, columns = generator_multiples(family.generators(), degree)
        # pi^layer * row, one column per (monomial, pi digit)
        layered = [{col * modulus + t: c.coeffs[t - layer]
                    for col, c in row.items()
                    for t in range(layer, modulus) if c.coeffs[t - layer]}
                   for row in rows for layer in range(modulus)]
        ncols = len(columns) * modulus
        out.append(ncols - RowEliminator(ncols, layered).rank)
    return out
