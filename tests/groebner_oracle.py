"""Slow Groebner checks kept as oracles for `ribbonlab.xg`.

Nothing here calls the code it checks: the S-polynomial and the top
reduction are copies of the full-width versions, which test "lead divides
e" over every exponent.

* `all_pairs_criterion` is Buchberger's criterion without the product
  criterion: it reduces every S-pair of the input.
* `completed_buchberger` is the loop `ribbonlab.xg.buchberger` ran before it
  became the plain criterion.  It reduces every S-pair of the input, adds
  each nonzero remainder to the basis and queues its pairs, and skips
  completion pairs and remainders whose weighted degree exceeds `cap`.
* `full_scan_normal_count` counts normal monomials by a full-width
  divisibility test against every leading exponent.
"""

from ribbonlab.poly import WPoly, grlex_key, monomials


def _divides(lead, e):
    return all(a >= b for a, b in zip(e, lead))


def s_poly(f, h, lead_f, lead_h):
    g = f.g
    lcm = tuple(max(a, b) for a, b in zip(lead_f, lead_h))
    mf = tuple(a - b for a, b in zip(lcm, lead_f))
    mh = tuple(a - b for a, b in zip(lcm, lead_h))
    return (WPoly(g, {mf: 1 / f.terms[lead_f]}) * f
            - WPoly(g, {mh: 1 / h.terms[lead_h]}) * h)


def top_reduce(p, basis, leads):
    """Reduce the grlex leading term of p against the basis until stuck or zero."""
    g = p.g
    while p.terms:
        lt = max(p.terms, key=grlex_key)
        hit = next((t for t, lead in enumerate(leads) if _divides(lead, lt)), None)
        if hit is None:
            return p
        quot = tuple(a - b for a, b in zip(lt, leads[hit]))
        factor = p.terms[lt] / basis[hit].terms[leads[hit]]
        p = p - WPoly(g, {quot: factor}) * basis[hit]
    return p


def all_pairs_criterion(gens):
    """True when every S-pair of the input top-reduces to zero in grlex."""
    basis = [p for p in gens if p]
    leads = [max(p.terms, key=grlex_key) for p in basis]
    return not any(
        top_reduce(s_poly(basis[i], basis[j], leads[i], leads[j]), basis, leads)
        for i in range(len(basis)) for j in range(i + 1, len(basis)))


def completed_buchberger(gens, cap=12):
    """Return (basis, input_is_groebner, complete) of the truncated grlex completion."""
    basis = [p for p in gens if p]
    g = basis[0].g
    leads = [max(p.terms, key=grlex_key) for p in basis]
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
        r = top_reduce(s_poly(basis[i], basis[j], leads[i], leads[j]), basis, leads)
        if r.terms:
            if not from_completion:
                input_is_groebner = False
            if wdeg(max(r.terms, key=grlex_key)) > cap:
                skipped = True
                continue
            basis.append(r)
            leads.append(max(r.terms, key=grlex_key))
            new = len(basis) - 1
            pairs.extend((t, new) for t in range(new))
    return basis, input_is_groebner, not skipped


def full_scan_normal_count(leads, g, degree):
    """Monomials of the degree divisible by none of `leads`, tested full width."""
    return sum(1 for e in monomials(g, degree)
               if not any(_divides(lead, e) for lead in leads))
