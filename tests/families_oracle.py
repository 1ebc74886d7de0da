"""Shape orders and sections read the long way: lift the base, then subtract.

This is how `ribbonlab.families` read a family's deviation from the split
ribbon before it read the digits directly, kept as the oracle for that
reading.  Each base polynomial is built afresh, lifted to Q[pi]/(pi^N) and
subtracted from its generator, and the deviation's coefficients are
inspected as truncated scalars.
"""

from ribbonlab.exact import TruncatedScalar
from ribbonlab.poly import WPoly, veronese_pullback
from ribbonlab.xg import BASE_POLYS, GROUPS, vv_base_poly


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
                val = c.valuation()
                if val is not None and val < m:
                    m = val
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
