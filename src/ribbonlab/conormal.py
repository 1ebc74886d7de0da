"""Conormal evaluation of canonical relations and the limit criteria.

A degree-d relation x through the rational normal curve restricts, on the
first infinitesimal neighborhood, to a section of the twisted conormal
bundle.  Concretely: the differential sum_i (dx/du_i) du_i pulled back to
the curve is a unique combination sum_j c_j * beta_j of the generators

    beta_j = du_j (x) x0^2 - 2 du_{j+1} (x) x0 x1 + du_{j+2} (x) x1^2,

with c_j binary forms of degree (d-1)(g-1)-2.  Row j of phi_d(x) is the
coefficient vector of c_j, so the matrix is (g-2) x ((d-1)(g-1)-1).

The matrix has a closed form.  Write x = sum_e c_e u^e and a(e) = sum_i i*e_i,
the x0-exponent of the pullback of u^e.  Then

    phi_d(x)[j][b] = sum over e with a(e) = b + j + 2 of
                     c_e * sum_{i <= j} (j + 1 - i) * e_i.

Why: with w_i the pullback of dx/du_i and T the shift j -> j+1 of the row
index, matching du_i coefficients reads w = (x0^2 - 2 x0 x1 T + x1^2 T^2) c
= (x0 - x1 T)^2 c, so c = sum_k (k+1) x1^k x0^(-k-2) T^k w.  Substituting
w_i[a] = sum over e with a(e) - i = a of e_i * c_e, every i lands on the
same condition a(e) = b + j + 2.  Terms that would land at b < 0 cancel
because x pulls back to zero, and a term with a(e) above the top index has
e_i = 0 for every i <= j, so its weight is zero.

So each slice is one kernel over S_d, the degree-d u-monomials: the closed
form is linear in the terms, so it is defined on all of S_d, and on the
relations through the curve (each fibre of a sums to zero) the dropped
b < 0 terms cancel, so there it is phi_d.

poly and rnc are imported by the functions that use them, so a quadric
verdict does not load poly and a relation verdict does not load rnc.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import RatMatrix, from_integers, left_kernel, rat, rat_to_str
from .exact import sparse_kernel_basis, to_integers


class LambdaFunctional:
    """A linear functional on H^0(O(g-3)), the direction of a limit ribbon."""

    __slots__ = ("g", "coords")

    def __init__(self, g: int, coords):
        self.g = g
        self.coords = tuple(rat(c) for c in coords)
        if len(self.coords) != g - 2:
            raise ValueError("expected %d coordinates" % (g - 2))

    @classmethod
    def basis_vector(cls, g: int, i: int) -> "LambdaFunctional":
        coords = [Fraction(0)] * (g - 2)
        coords[i] = Fraction(1)
        return cls(g, coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def normalized(self) -> "LambdaFunctional":
        """Scale so the first nonzero coordinate is 1 (canonical witness form)."""
        for c in self.coords:
            if c:
                return LambdaFunctional(self.g, [x / c for x in self.coords])
        raise ValueError("cannot normalize the zero functional")

    def __eq__(self, other):
        if not isinstance(other, LambdaFunctional):
            return NotImplemented
        return self.g == other.g and self.coords == other.coords

    def __hash__(self):
        return hash((self.g, self.coords))

    def __repr__(self):
        return "LambdaFunctional(g=%d, (%s))" % (self.g, ", ".join(map(rat_to_str, self.coords)))

    def to_json(self):
        return [rat_to_str(c) for c in self.coords]


def phi_d(x: WPoly, d: int) -> RatMatrix:
    """Conormal matrix of a degree-d relation x through the curve, by the closed form.

    Rows are indexed by the beta basis, columns by the binary monomials of
    degree ncols - 1 = (d-1)(g-1)-2.  x must be zero or a u-polynomial,
    homogeneous of degree d >= 2, with vanishing pullback; anything else
    raises ValueError.  One pass over the terms (see `_entries`), which also
    sums them per fibre of a: x pulls back to zero when every sum is zero.
    """
    g = x.g
    if not x.is_u_only():
        raise ValueError("x must be a u-polynomial")
    if x.terms and x.degree() != d:
        raise ValueError("x is not homogeneous of degree %d" % d)
    if d < 2:
        raise ValueError("relations live in degree >= 2")
    ncols = (d - 1) * (g - 1) - 1
    scale, ints = to_integers(x.terms.values())
    rows = [[0] * ncols for _ in range(g - 2)]
    fibres = {}
    for e, c in zip(x.terms, ints):
        a = sum(i * k for i, k in enumerate(e[:g]))
        fibres[a] = fibres.get(a, 0) + c
        for j, b, w in _entries(e, a, g):
            rows[j][b] += w * c
    if any(fibres.values()):
        raise ValueError("x not in the ideal of the curve")
    return RatMatrix._raw(tuple(from_integers(row, scale) for row in rows), ncols)


def _entries(e, a, g):
    """(j, b, W_j) for the nonzero entries of the closed form at u^e, b >= 0.

    W_j = sum_{i<=j} (j+1-i) e_i at column b = a - j - 2 of row j, a = a(e),
    by the running sums s_j = sum_{i<=j} e_i and W_j = sum_{i<=j} s_i.
    """
    s = w = 0
    for j in range(g - 2):
        s += e[j]
        w += s
        if w and a >= j + 2:
            yield j, a - j - 2, w


def psi_d(lam: LambdaFunctional, x: WPoly, d: int) -> BinaryForm:
    """Contraction lam . phi_d(x), a binary form of degree (d-1)(g-1)-2."""
    from .poly import BinaryForm
    m = phi_d(x, d)
    if lam.g != x.g:
        raise ValueError("genus mismatch")
    return BinaryForm(m.ncols - 1, [sum(c * v for c, v in zip(lam.coords, col))
                                    for col in zip(*m.rows)])


def _rank_and_witness(g: int, m: RatMatrix):
    """(rank, witness) of a matrix m with g - 2 rows: the witness is the first
    vector of m's canonical left kernel, normalized with first nonzero
    coordinate 1, or None at full rank."""
    kernel = left_kernel(m.rows, m.ncols)
    witness = (LambdaFunctional(g, [kernel[0].get(i, 0) for i in range(g - 2)])
               .normalized() if kernel else None)
    return g - 2 - len(kernel), witness


def is_limit_quadric(q: QuadForm):
    """Degeneracy test for a quadric direction: q has a nonzero kernel.

    Returns (flag, witness), the witness read from q's matrix as for a
    relation: q is symmetric and phi_2(x_q) = q, so it is the witness of
    is_limit_relation(x_q, 2).  The zero form's witness is e_0.
    """
    witness = _rank_and_witness(q.g, q.mat)[1]
    return witness is not None, witness


def relation_rank(x: WPoly, d: int):
    """(phi_d(x), its rank, witness) for a degree-d relation x, the rank and
    witness as `_rank_and_witness` reads them."""
    m = phi_d(x, d)
    return (m, *_rank_and_witness(x.g, m))


def is_limit_relation(x: WPoly, d: int):
    """Degeneracy test for a relation: rank(phi_d(x)) < g - 2.

    Returns (flag, witness), the witness as relation_rank gives it.
    """
    witness = relation_rank(x, d)[2]
    return witness is not None, witness


def _conormal_kernel(g: int, d: int, functionals) -> IdealSlice:
    """The x in S_d with zero pullback and lam . phi_d(x) = 0 for each lam.

    One row of ones per fibre of a, one row per (lam, b) of the contracted
    closed form.  The columns run in reverse monomial order: the engine's
    kernel vector for a free column is 1 there and 0 on later columns and on
    the other free ones, so read forwards it is already a canonical rref row;
    the engine lists them with descending leads, so reversed they are the rref.
    """
    from .poly import monomials
    from .rnc import IdealSlice
    mons = monomials(g, d, u_only=True)
    width = (d - 1) * (g - 1) - 1
    fibres = {}
    rows = [{} for _ in range(len(functionals) * width)]
    for col, e in enumerate(reversed(mons)):
        a = sum(i * k for i, k in enumerate(e[:g]))
        fibres.setdefault(a, {})[col] = 1
        for j, b, w in _entries(e, a, g):
            for t, lam in enumerate(functionals):
                if lam[j]:
                    rows[t * width + b][col] = lam[j] * w
    kernel = sparse_kernel_basis(list(fibres.values()) + rows, len(mons))
    return IdealSlice(g, d, mons, [{len(mons) - 1 - c: v for c, v in vec.items()}
                                   for vec in reversed(kernel)])


def phi_kernel_slice(g: int, d: int) -> IdealSlice:
    """ker(phi_d) on the degree-d ideal slice, in canonical form."""
    return _conormal_kernel(g, d, [[int(i == t) for i in range(g - 2)] for t in range(g - 2)])


def ribbon_slice(lam: LambdaFunctional, g: int, d: int) -> IdealSlice:
    """Relations killed by lam: {x in the degree-d ideal slice : psi_d(lam, x) = 0}.

    For d >= 2 the contraction is onto, so the dimension is
    dim IdealSlice(g, d) - ((d-1)(g-1)-1).
    """
    if lam.g != g:
        raise ValueError("genus mismatch")
    if lam.is_zero():
        raise ValueError("lambda must be nonzero")
    return _conormal_kernel(g, d, [lam.coords])
