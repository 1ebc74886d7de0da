"""Buchberger's algorithm with a truncated completion, kept as an oracle.

This is the loop `ribbonlab.xg.buchberger` ran before it became the plain
criterion.  It reduces every S-pair of the input, adds each nonzero
remainder to the basis and queues its pairs, and skips completion pairs and
remainders whose weighted degree exceeds `cap`.  Its `input_is_groebner`
is the oracle for the criterion.
"""

from ribbonlab.poly import MONOMIAL_ORDERS
from ribbonlab.xg import _s_poly, _top_reduce


def completed_buchberger(gens, order="grlex", cap=12):
    """Return (basis, input_is_groebner, complete) of the truncated completion."""
    key = MONOMIAL_ORDERS[order]
    basis = [p for p in gens if p]
    g = basis[0].g
    leads = [max(p.terms, key=key) for p in basis]
    n_input = len(basis)

    def wdeg(e):
        return sum(e[:g]) + 2 * sum(e[g:])

    input_is_groebner = True
    pairs = [(i, j) for i in range(n_input) for j in range(i + 1, n_input)]
    skipped = False
    pos = 0
    while pos < len(pairs):
        i, j = pairs[pos]
        pos += 1
        lcm = tuple(max(a, b) for a, b in zip(leads[i], leads[j]))
        from_completion = i >= n_input or j >= n_input
        if from_completion and wdeg(lcm) > cap:
            skipped = True
            continue
        s = _s_poly(basis[i], basis[j], leads[i], leads[j], key)
        r = _top_reduce(s, basis, leads, key)
        if r.terms:
            if not from_completion:
                input_is_groebner = False
            if wdeg(max(r.terms, key=key)) > cap:
                skipped = True
                continue
            basis.append(r)
            leads.append(max(r.terms, key=key))
            new = len(basis) - 1
            pairs.extend((t, new) for t in range(new))
    return basis, input_is_groebner, not skipped
