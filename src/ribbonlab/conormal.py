"""Conormal evaluation of canonical relations and the limit criteria.

A degree-d relation x through the rational normal curve restricts, on the
first infinitesimal neighborhood, to a section of the twisted conormal
bundle.  Concretely: the differential sum_j (dx/du_j) du_j pulled back to
the curve is a unique combination sum_i c_i * beta_i of the generators

    beta_i = du_i (x) x0^2 - 2 du_{i+1} (x) x0 x1 + du_{i+2} (x) x1^2,

with c_i binary forms of degree (d-1)(g-1)-2.  Row i of phi_d(x) is the
coefficient vector of c_i, so the matrix is (g-2) x ((d-1)(g-1)-1).

Matching du_j coefficients gives the triangular system

    iota*(dx/du_j) = x0^2 c_j - 2 x0 x1 c_{j-1} + x1^2 c_{j-2}

(c's outside 0..g-3 are zero).  It is solved by forward substitution with
exact divisibility checks; the two leftover equations are verified, which
is the consistency/uniqueness assertion.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import RatMatrix, left_kernel, rat, rat_from_str, rat_to_str
from .poly import BinaryForm, WPoly, veronese_pullback
from .rnc import IdealSlice, QuadForm, ideal_slice


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

    @classmethod
    def from_json(cls, g: int, data) -> "LambdaFunctional":
        return cls(g, [rat_from_str(c) for c in data])


class ConormalMatrix:
    """phi_d(x): rows indexed by the beta basis, columns by binary monomials."""

    __slots__ = ("g", "d", "mat")

    def __init__(self, g: int, d: int, mat: RatMatrix):
        self.g = g
        self.d = d
        expected = ((g - 2), (d - 1) * (g - 1) - 1)
        if (mat.nrows, mat.ncols) != expected:
            raise ValueError("expected a %d x %d matrix" % expected)
        self.mat = mat

    @property
    def form_degree(self) -> int:
        return (self.d - 1) * (self.g - 1) - 2

    def row_form(self, i: int) -> BinaryForm:
        return BinaryForm(self.form_degree, self.mat.rows[i])

    def rank(self) -> int:
        return self.mat.rank()

    def left_kernel_basis(self):
        """Canonical basis of the left kernel, as coordinates over the beta rows."""
        n = self.mat.nrows
        return [[v.get(i, 0) for i in range(n)]
                for v in left_kernel(self.mat.rows, self.mat.ncols)]

    def __eq__(self, other):
        if not isinstance(other, ConormalMatrix):
            return NotImplemented
        return (self.g, self.d, self.mat) == (other.g, other.d, other.mat)

    def __repr__(self):
        return "ConormalMatrix(g=%d, d=%d)" % (self.g, self.d)

    def to_json(self):
        return {"g": self.g, "d": self.d, "matrix": self.mat.to_json()}


def phi_d(x: WPoly, d: int | None = None) -> ConormalMatrix:
    """Conormal matrix of a degree-d relation x through the curve.

    x must be a u-polynomial with vanishing pullback ("x not in the ideal"
    otherwise).  For nonzero x the degree is inferred; pass d explicitly to
    evaluate the zero relation.
    """
    g = x.g
    if not x.is_u_only():
        raise ValueError("x must be a u-polynomial")
    if x.terms:
        d = x.degree("weighted") if d is None else d
        if x.degree("weighted") != d:
            raise ValueError("x is not homogeneous of degree %d" % d)
    elif d is None:
        raise ValueError("degree needed for the zero relation")
    if d < 2:
        raise ValueError("relations live in degree >= 2")
    n = g - 1
    if x.terms and not veronese_pullback(x).is_zero():
        raise ValueError("x not in the ideal of the curve")
    w_degree = (d - 1) * n
    ws = []
    for j in range(g):
        dj = x.partial(j)
        ws.append(veronese_pullback(dj) if dj else BinaryForm(w_degree))
    c_degree = w_degree - 2
    x0x1 = BinaryForm.monomial(2, 1)
    x1sq = BinaryForm.monomial(2, 0)
    cs: list[BinaryForm] = []
    for j in range(g - 2):
        rhs = ws[j]
        if j >= 1:
            rhs = rhs + 2 * (x0x1 * cs[j - 1])
        if j >= 2:
            rhs = rhs - x1sq * cs[j - 2]
        try:
            cs.append(rhs.divide_exact(2, 0))
        except ValueError:
            raise ArithmeticError("conormal system inconsistent at row %d" % j)
    check_tail = -2 * (x0x1 * cs[g - 3]) + (x1sq * cs[g - 4] if g >= 4 else BinaryForm(w_degree))
    if ws[g - 2] != check_tail:
        raise ArithmeticError("conormal system inconsistent at row %d" % (g - 2))
    if ws[g - 1] != x1sq * cs[g - 3]:
        raise ArithmeticError("conormal system inconsistent at row %d" % (g - 1))
    rows = [c.coeffs for c in cs]
    return ConormalMatrix(g, d, RatMatrix(rows, ncols=c_degree + 1))


def psi_d(lam: LambdaFunctional, x: WPoly, d: int | None = None) -> BinaryForm:
    """Contraction lam . phi_d(x), a binary form of degree (d-1)(g-1)-2."""
    m = phi_d(x, d)
    if lam.g != m.g:
        raise ValueError("genus mismatch")
    out = BinaryForm(m.form_degree)
    for i, c in enumerate(lam.coords):
        if c:
            out = out + c * m.row_form(i)
    return out


def is_limit_quadric(q: QuadForm):
    """Degeneracy test for a quadric direction: det(q) = 0.

    Returns (flag, witness): the witness is a kernel vector of q with first
    nonzero coordinate 1.  The zero form is degenerate by convention, with
    e_0 as its (arbitrary) witness.
    """
    if q.is_zero():
        return True, LambdaFunctional.basis_vector(q.g, 0)
    if q.det() != 0:
        return False, None
    kernel = q.kernel_basis()
    lam = LambdaFunctional(q.g, kernel[0]).normalized()
    return True, lam


def is_limit_relation(x: WPoly, d: int | None = None):
    """Degeneracy test for a relation: rank(phi_d(x)) < g - 2.

    Returns (flag, witness); the witness spans (a line of) the left kernel,
    normalized with first nonzero coordinate 1.
    """
    m = phi_d(x, d)
    if m.rank() < m.g - 2:
        lam = LambdaFunctional(m.g, m.left_kernel_basis()[0]).normalized()
        return True, lam
    return False, None


def phi_map_matrix(slice_: IdealSlice) -> RatMatrix:
    """Matrix of phi_d on a slice: row b = flattened phi_d(basis_b)."""
    g, d = slice_.g, slice_.d
    width = (g - 2) * ((d - 1) * (g - 1) - 1)
    rows = []
    for p in slice_.basis:
        m = phi_d(p, d)
        rows.append([x for row in m.mat.rows for x in row])
    return RatMatrix(rows, ncols=width)


def _kernel_in_slice(slice_: IdealSlice, images) -> IdealSlice:
    """The combinations sum_b a_b basis_b of the slice with sum_b a_b images[b] = 0.

    images[b] is the coefficient sequence of the image of basis element b;
    the result is in canonical form.
    """
    vectors = []
    for relation in left_kernel(images, len(images[0]) if images else 0):
        vec = {}
        for b, a in relation.items():
            for c, v in slice_.rows[b].items():
                vec[c] = vec.get(c, 0) + a * v
        vectors.append(vec)
    return IdealSlice(slice_.g, slice_.d, vectors)


def phi_kernel_slice(slice_: IdealSlice) -> IdealSlice:
    """ker(phi_d) intersected with the given slice, in canonical form."""
    return _kernel_in_slice(slice_, phi_map_matrix(slice_).rows)


def ribbon_slice(lam: LambdaFunctional, g: int, d: int) -> IdealSlice:
    """Relations killed by lam: {x in the degree-d ideal slice : psi_d(lam, x) = 0}.

    For d >= 2 the contraction is onto, so the dimension is
    dim IdealSlice(g, d) - ((d-1)(g-1)-1).
    """
    if lam.g != g:
        raise ValueError("genus mismatch")
    if lam.is_zero():
        raise ValueError("lambda must be nonzero")
    full = ideal_slice(g, d)
    return _kernel_in_slice(full, [psi_d(lam, p, d).coeffs for p in full.basis])
