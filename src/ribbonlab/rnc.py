"""Quadrics through the rational normal curve of degree g-1.

The curve sits in P^{g-1} with coordinates u_0..u_{g-1}; its degree-d ideal
slice is the kernel of evaluation (Veronese pullback) on degree-d monomials.
Symmetric forms q on the (g-2)-dimensional space H^0(O(g-3)) map to quadrics
x_q through the curve; on basis tensors

    e_i (x) e_i      |-->  u_{i+2} u_i - u_{i+1}^2
    e_i (.) e_j      |-->  u_{i+2} u_j + u_{j+2} u_i - 2 u_{i+1} u_{j+1}

which is the half-polarization x_q = sum_{i,j} q_ij (u_{i+2} u_j -
u_{i+1} u_{j+1}).

The functions that build polynomials import poly when they run, so reading
and testing a QuadForm (the limit-quadric command) does not load it.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import RatMatrix, RowEliminator, from_integers, rat_to_str, row_space_matrix
from .exact import json_fields, json_int, json_list, json_rat, to_integers


class QuadForm:
    """Symmetric (g-2) x (g-2) rational matrix."""

    __slots__ = ("g", "mat")

    def __init__(self, g: int, entries):
        if g < 3:
            raise ValueError("genus must be at least 3")
        self.g = g
        n = g - 2
        mat = RatMatrix(entries, ncols=n)
        if mat.nrows != n:
            raise ValueError("expected a %d x %d matrix" % (n, n))
        for i in range(n):
            for j in range(i):
                if mat.rows[i][j] != mat.rows[j][i]:
                    raise ValueError("matrix is not symmetric")
        self.mat = mat

    @classmethod
    def basis_element(cls, g: int, i: int, j: int) -> "QuadForm":
        """The symmetric unit e_i (.) e_j: ones at (i, j) and (j, i)."""
        n = g - 2
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError("index out of range")
        entries = [[Fraction(0)] * n for _ in range(n)]
        entries[i][j] = Fraction(1)
        entries[j][i] = Fraction(1)
        return cls(g, entries)

    @property
    def size(self) -> int:
        return self.g - 2

    def is_zero(self) -> bool:
        return all(not x for row in self.mat.rows for x in row)

    def det(self) -> Fraction:
        return self.mat.det()

    def __eq__(self, other):
        if not isinstance(other, QuadForm):
            return NotImplemented
        return self.g == other.g and self.mat == other.mat

    def __hash__(self):
        return hash((self.g, self.mat))

    def __repr__(self):
        return "QuadForm(g=%d, %s)" % (self.g, [list(map(rat_to_str, r)) for r in self.mat.rows])

    def to_json(self):
        return {"g": self.g, "matrix": self.mat.to_json()}

    @classmethod
    def from_json(cls, data) -> "QuadForm":
        g, matrix = json_fields(data, "a quadric object", "g", "matrix")
        rows = [json_list(row, "a matrix row")
                for row in json_list(matrix, "the quadric matrix")]
        return cls(json_int(g, "the genus g"),
                   [[json_rat(x, "a matrix entry") for x in row] for row in rows])


def q_to_quadric(q: QuadForm) -> WPoly:
    """Quadric through the rational normal curve attached to a symmetric form."""
    from .poly import WPoly
    g = q.g
    n = q.size
    scale, ints = to_integers([c for row in q.mat.rows for c in row])
    total = {}
    for i in range(n):
        for j in range(n):
            c = ints[i * n + j]
            if not c:
                continue
            for (a, b), sign in (((i + 2, j), 1), ((i + 1, j + 1), -1)):
                e = [0] * (2 * g - 2)
                e[a] += 1
                e[b] += 1
                key = tuple(e)
                total[key] = total.get(key, 0) + sign * c
    total = {e: c for e, c in total.items() if c}
    return WPoly._raw(g, dict(zip(total, from_integers(total.values(), scale))))


def hankel_generators(g: int):
    """Images of the symmetric basis e_i (.) e_j (i <= j) under q_to_quadric.

    These (g-1)(g-2)/2 quadrics span the full degree-2 ideal slice.
    """
    gens = []
    for i in range(g - 2):
        for j in range(i, g - 2):
            gens.append(q_to_quadric(QuadForm.basis_element(g, i, j)))
    return gens


class IdealSlice:
    """A subspace of degree-d u-polynomials, held in canonical rref form.

    `rows` are the canonical rref rows of the subspace over `monomials`, as
    dicts {column: Fraction} in ascending lead order, each with lead value 1
    first (see `row_space_matrix`); two slices are equal iff their rows are.
    Producers hand over rows in this form; `from_polys` reduces a spanning
    set.  `contains` asks a RowEliminator on the rows, built on its first call.
    """

    __slots__ = ("g", "d", "monomials", "index", "rows", "_engine")

    def __init__(self, g: int, d: int, monomials, rows):
        self.g = g
        self.d = d
        self.monomials = monomials
        self.index = {e: i for i, e in enumerate(monomials)}
        self.rows = rows
        self._engine = None

    @classmethod
    def from_polys(cls, g: int, d: int, polys) -> "IdealSlice":
        from .poly import monomials
        mons = monomials(g, d, u_only=True)
        out = cls(g, d, mons, [])
        vectors = []
        for p in polys:
            if not p:
                continue
            if not p.is_u_only():
                raise ValueError("slice elements must be u-polynomials")
            if p.degree() != d:
                raise ValueError("expected degree %d" % d)
            vectors.append(out.vector_of(p))
        out.rows = row_space_matrix(vectors, len(mons))
        return out

    @property
    def basis(self):
        """The rows as WPolys, terms in column order."""
        from .poly import WPoly
        return [WPoly(self.g, {self.monomials[c]: row[c] for c in sorted(row)})
                for row in self.rows]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def vector_of(self, p: WPoly):
        """The coefficients of p as a sparse vector {column: value}."""
        try:
            return {self.index[e]: c for e, c in p.terms.items()}
        except KeyError:
            raise ValueError("polynomial does not live in this slice's degree") from None

    def contains(self, p: WPoly) -> bool:
        if self._engine is None:
            self._engine = RowEliminator(len(self.monomials), self.rows)
        return self._engine.spans(self.vector_of(p))

    def __eq__(self, other):
        if not isinstance(other, IdealSlice):
            return NotImplemented
        return (self.g, self.d, self.rows) == (other.g, other.d, other.rows)

    def __repr__(self):
        return "IdealSlice(g=%d, d=%d, dim=%d)" % (self.g, self.d, self.dim)


def ideal_slice(g: int, d: int) -> IdealSlice:
    """Degree-d slice of the ideal of the rational normal curve.

    The pullback sends a degree-d monomial e in u to x0^a x1^(d(g-1)-a) with
    a = sum_i i*e_i, so the slice is spanned by the differences of monomials
    in one fibre of a.  The rows m - m_last, for every monomial m that is not
    the last of its fibre in column order, are already the canonical rref.
    Dimension C(g-1+d, d) - (d(g-1)+1).
    """
    from .poly import monomials
    if g < 3 or d < 1:
        raise ValueError("need g >= 3 and d >= 1")
    mons = monomials(g, d, u_only=True)
    fibres = [sum(i * k for i, k in enumerate(e[:g])) for e in mons]
    last = {a: col for col, a in enumerate(fibres)}
    return IdealSlice(g, d, mons, [{col: Fraction(1), last[a]: Fraction(-1)}
                                   for col, a in enumerate(fibres) if col != last[a]])


def ideal_square_slice(g: int, d: int) -> IdealSlice:
    """Degree-d slice of the square of the curve ideal (d >= 4).

    Spanned by m * q_a * q_b over degree-(d-4) monomials m and pairs of
    quadric generators; the square has no elements below degree 4.
    """
    from .poly import WPoly, monomials
    if d < 4:
        raise ValueError("the ideal square has no elements in degree %d" % d)
    gens = hankel_generators(g)
    mults = [WPoly(g, {e: Fraction(1)}) for e in monomials(g, d - 4, u_only=True)]
    polys = []
    for a in range(len(gens)):
        for b in range(a, len(gens)):
            qq = gens[a] * gens[b]
            for m in mults:
                polys.append(m * qq)
    return IdealSlice.from_polys(g, d, polys)
