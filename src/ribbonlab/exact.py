"""Exact scalars and exact linear algebra over the rationals.

Every computation in this package is exact: scalars are `fractions.Fraction`
(already kept in lowest terms with positive denominator) or truncated
polynomials in pi over Q.  Every elimination (rank, rref, kernel) and every
reduction of a vector against stored rows (membership in a span) runs in one
sparse engine, RowEliminator; only the determinant keeps its own Bareiss
loop.  Both are fraction-free: the engine scales each row to a primitive
integer vector on entry, clears leads by integer row operations and stores
integer pivots, and builds `Fraction`s only for its canonical output (the
monic rref and the kernel).  Binomial rows c*(e_a - e_b), which make up most
of the generator-multiple matrices of the models in X_g, are taken by a
union-find pre-pass in that engine rather than by elimination steps.
Floating point is never used.

Values are coerced once, at the boundary: the public constructors check
their input and send it through `rat`, and the `from_json` readers, which
read every document the CLI takes, check each rational field with
`json_rat`.  Arithmetic on the package's own values builds its
results with each class's private `_raw`, which stores them unchecked.

The polynomial kernels follow the engine's rule: integers inside,
`Fraction`s only at the output.  A kernel scales its rational inputs to
integers with `to_integers` (one lcm of the denominators per input), does
every product and sum on ints, and builds its output `Fraction`s once with
`from_integers`.  Values at rest are never ints: every public value stays a
`Fraction` (or a `TruncatedScalar`), so `/` on it stays exact.

Rationals serialize as "p/q" (or just "p" when the denominator is 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce an int, string or Fraction to a Fraction; a bool is refused."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return rat_from_str(value)
    raise TypeError("cannot coerce %r to a rational" % (value,))


def to_integers(values):
    """(L, [L * v for v in values] as ints), L the lcm of the values' denominators.

    values is a sequence or dict view of ints and Fractions; it is read a
    second time only when some denominator is not 1.
    """
    ints = []
    for v in values:
        if v.denominator != 1:
            break
        ints.append(v.numerator)
    else:
        return 1, ints
    pairs = [v.as_integer_ratio() for v in values]
    scale = lcm(*[q for _, q in pairs])
    return scale, [n * (scale // q) for n, q in pairs]


def from_integers(ints, scale: int) -> tuple:
    """The Fractions n / scale for n in ints, as a tuple; every zero is one shared zero."""
    if scale == 1:
        return tuple([Fraction(n) if n else _ZERO for n in ints])
    return tuple([Fraction(n, scale) if n else _ZERO for n in ints])


def rat_to_str(x: Fraction) -> str:
    x = rat(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def _plain_literal(s: str) -> str:
    """s stripped, after refusing by name three literal extras of Fraction and
    int: exponents (Fraction builds 10**exponent in full, so "1e10000000"
    could cost unbounded time and memory), the digit separator "_" ("1_0"
    reads as 10) and non-ASCII digits (Arabic-Indic 12/3 reads as 4)."""
    if not s.isascii():
        raise ValueError("non-ASCII characters are not accepted: %r" % s)
    text = s.strip()
    if "e" in text or "E" in text:
        raise ValueError("exponent notation is not accepted: %r" % s)
    if "_" in text:
        raise ValueError("digit separators are not accepted: %r" % s)
    return text


def rat_from_str(s: str) -> Fraction:
    """Parse an ASCII integer, "p/q" or decimal string (see `_plain_literal`)."""
    if not isinstance(s, str):
        raise ValueError("expected a rational string such as \"p/q\", got %r" % (s,))
    try:
        return Fraction(_plain_literal(s))
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % s) from None


def json_fields(data, what: str, *keys):
    """The values of `keys` in the JSON object `data`, in that order.

    A document that is not an object, or that lacks a key, is refused with
    a ValueError naming it.
    """
    if not isinstance(data, dict):
        raise ValueError("%s must be a JSON object" % what)
    for key in keys:
        if key not in data:
            raise ValueError("%s has no key %r" % (what, key))
    return [data[key] for key in keys]


def json_list(value, what: str) -> list:
    """value, after checking that it is a JSON list; `what` names it otherwise."""
    if not isinstance(value, list):
        raise ValueError("%s must be a list, got %r" % (what, value))
    return value


def json_int(value, what: str) -> int:
    """An integer field of a JSON document: an int, or a string int() reads
    under rat_from_str's literal rule; every refusal names the field, `what`."""
    if isinstance(value, str):
        try:
            text = _plain_literal(value)
        except ValueError as exc:
            raise ValueError("%s: %s" % (what, exc)) from None
        try:
            return int(text)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError("%s must be an integer, got %r" % (what, value))


def json_rat(value, what: str) -> Fraction:
    """A rational field of a JSON document: an int, or a string rat_from_str reads.

    Every refusal names the field, `what`.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return rat_from_str(value)
        except ValueError as exc:
            raise ValueError("%s: %s" % (what, exc)) from None
    raise ValueError("%s must be an integer or a rational string such as \"p/q\", got %r"
                     % (what, value))


class TruncatedScalar:
    """Element of Q[pi]/(pi^order), coefficients stored low degree first.

    The length of `coeffs` is exactly `order`; adding elements of different
    orders is refused rather than silently coerced, since the order tracks
    how far a family is known.  A family's coefficients are only added,
    negated, shifted (multiplied by a power of pi) and truncated: every
    product the package forms is over Q, so there is no other arithmetic,
    and no rational is lifted or compared equal to an element.  Most digits
    are zero, so the arithmetic passes a zero digit through instead of
    adding it, and every zero digit it makes is the one shared constant.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(rat(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("truncation order must be at least 1")

    @classmethod
    def _raw(cls, coeffs: tuple) -> "TruncatedScalar":
        """The element with these coefficients, a nonempty tuple of Fractions."""
        x = object.__new__(cls)
        x.coeffs = coeffs
        return x

    @classmethod
    def from_rational(cls, x, order: int) -> "TruncatedScalar":
        return cls._raw((rat(x),) + (_ZERO,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, TruncatedScalar):
            return NotImplemented
        if other.order != self.order:
            raise ValueError("truncation order mismatch: %d vs %d" % (self.order, other.order))
        return TruncatedScalar._raw(tuple((a + b if a else b) if b else a
                                          for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return TruncatedScalar._raw(tuple(-a if a else _ZERO for a in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, TruncatedScalar):
            return NotImplemented
        return self.coeffs == other.coeffs  # of another order: unequal, not refused

    def __bool__(self):
        return any(self.coeffs)

    def __hash__(self):
        return hash(self.coeffs)

    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def truncate(self, order: int) -> "TruncatedScalar":
        """Reduce mod pi^order (order <= self.order)."""
        if not 1 <= order <= self.order:
            raise ValueError("bad truncation order %d" % order)
        return TruncatedScalar._raw(self.coeffs[:order])

    def shift(self, s: int) -> "TruncatedScalar":
        """Multiply by pi^s.

        For s >= 0 the order is unchanged (top digits fall off the end).  For
        s < 0 the division must be exact (low digits zero) and the order drops
        by |s|, since the discarded head carried that much precision.
        """
        if s >= 0:
            coeffs = (_ZERO,) * s + self.coeffs
            return TruncatedScalar._raw(coeffs[:self.order])
        k = -s
        if k >= self.order:
            raise ValueError("cannot shift down past the truncation order")
        if any(self.coeffs[:k]):
            raise ValueError("inexact division by pi^%d" % k)
        return TruncatedScalar._raw(self.coeffs[k:])

    def __repr__(self):
        return "TruncatedScalar(%s)" % (list(map(rat_to_str, self.coeffs)),)

    def to_json(self):
        return [rat_to_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "TruncatedScalar":
        return cls([json_rat(c, "a truncated series digit")
                    for c in json_list(data, "a truncated series")])


class RatMatrix:
    """Dense matrix over Q, immutable after construction.

    Elimination (rref, rank, kernel) is delegated to the sparse RowEliminator,
    whose canonical forms make subspace bases reproducible byte for byte; the
    determinant keeps its own fraction-free (Bareiss) loop.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows, ncols: int):
        self.rows = tuple(tuple(rat(x) for x in row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = ncols
        if any(len(row) != ncols for row in self.rows):
            raise ValueError("every row must have %d entries" % ncols)

    @classmethod
    def _raw(cls, rows: tuple, ncols: int) -> "RatMatrix":
        """The matrix with these rows, a tuple of length-ncols tuples of Fractions.

        Entries may be ints instead where only the determinant is read.
        """
        m = object.__new__(cls)
        m.rows, m.nrows, m.ncols = rows, len(rows), ncols
        return m

    def rref(self):
        """Reduced row echelon form, padded with zero rows to the row count.

        Returns (RatMatrix, pivot columns).
        """
        reduced = RowEliminator(self.ncols, self.rows).reduced_rows()
        dense = [_dense(row, self.ncols) for row in reduced]
        dense += [(_ZERO,) * self.ncols] * (self.nrows - len(reduced))
        return RatMatrix._raw(tuple(dense), self.ncols), tuple(min(row) for row in reduced)

    def rank(self) -> int:
        return RowEliminator(self.ncols, self.rows).rank

    def kernel_basis(self):
        """Canonical basis of the right kernel as tuples (see RowEliminator.kernel)."""
        return [_dense(v, self.ncols) for v in RowEliminator(self.ncols, self.rows).kernel()]

    def det(self) -> Fraction:
        """Determinant by fraction-free (Bareiss) elimination.

        Each row is first scaled to integers by the lcm of its denominators;
        the Bareiss recurrence then keeps every intermediate value an integer,
        which controls coefficient blowup compared to naive fractional elimination.
        """
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return Fraction(1)
        scale = 1
        m = []
        for row in self.rows:
            row_scale, ints = to_integers(row)
            scale *= row_scale
            m.append(ints)
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                swap = None
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        swap = i
                        break
                if swap is None:
                    return Fraction(0)
                m[k], m[swap] = m[swap], m[k]
                sign = -sign
            pivot = m[k][k]
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = pivot
        return Fraction(sign * m[n - 1][n - 1], scale)

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.rows) == (other.nrows, other.ncols, other.rows)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return "RatMatrix(%d x %d)" % (self.nrows, self.ncols)

    def to_json(self):
        return [[rat_to_str(x) for x in row] for row in self.rows]


def _dense(row, ncols):
    """The sparse row {column: value} as a tuple of length ncols."""
    return tuple(row.get(c, _ZERO) for c in range(ncols))


def row_space_matrix(vectors, ncols):
    """Canonical rref rows of the span of the given vectors (see reduced_rows).

    Dicts {column: Fraction} in ascending lead order, lead value 1 first;
    two collections span the same subspace iff these lists are equal.
    """
    return RowEliminator(ncols, vectors).reduced_rows()


def sparse_rank(rows, ncols) -> int:
    """Rank of a matrix given as rows {column: coefficient}."""
    return RowEliminator(ncols, rows).rank


def sparse_kernel_basis(rows, ncols):
    """Canonical right kernel of the sparse matrix, as dicts (see RowEliminator.kernel)."""
    return RowEliminator(ncols, rows).kernel()


def left_kernel(rows, ncols):
    """Canonical kernel of (a_i) -> sum_i a_i * rows[i]: the relations among rows.

    Rows are dicts {column: value} or dense sequences over ncols columns.
    """
    transposed = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, v in _entries(row):
            if v:
                transposed[c][i] = v
    return sparse_kernel_basis(transposed, len(rows))


class RowEliminator:
    """Sparse exact Gaussian elimination over Q; the package's one engine.

    Rows are dicts {column: value} or dense sequences; every entry goes
    through `rat`, and each row is scaled once, on entry, to a primitive
    integer vector.  Forward elimination is fraction-free: each independent
    row is stored as the pair (a, tail) keyed by its lead, its smallest
    column, where a is the integer lead coefficient and `tail` the integer
    rest of the row, all on columns above the lead.  A stored pair is never
    mutated, so a copy of `pivots` is a snapshot the eliminator can be
    rewound to.  Fractions appear only in the canonical forms below, which
    do not depend on the order rows arrive in.

    Rows given to the constructor go in two passes.  A binomial row
    c*(e_a - e_b) only says that columns a and b are equal, so these rows
    join their columns by union-find; each component is rooted at its
    largest column top, and every other column c of it becomes the pivot
    (1, {top: -1}), already a row of the rref.  The remaining rows are then
    absorbed shortest first, which keeps fill-in low; each of their entries
    on a joined column moves to its top in one step.
    """

    __slots__ = ("ncols", "pivots")

    def __init__(self, ncols: int, rows):
        self.ncols = ncols
        self.pivots = {}
        parent = {}
        rest = []
        for row in map(_sparse, rows):
            if len(row) == 2:
                (a, x), (b, y) = row.items()
                if x == -y:
                    a, b = _find(parent, a), _find(parent, b)
                    if a != b:
                        parent[min(a, b)] = max(a, b)
                    continue
            rest.append(row)
        for c in parent:
            self.pivots[c] = (1, {_find(parent, c): -1})
        # shortest first, in arrival order among equal lengths; each row is
        # popped so that it is freed once absorbed
        rest.sort(key=len)
        rest.reverse()
        while rest:
            self._absorb(rest.pop())

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, vec) -> bool:
        """Reduce vec against the pivots; keep it and return True if independent."""
        return self._absorb(_sparse(vec)) is not None

    def spans(self, vec) -> bool:
        """Whether vec lies in the span of the pivots, which are left as they were."""
        lead = self._absorb(_sparse(vec))
        if lead is not None:
            del self.pivots[lead]
        return lead is None

    def _absorb(self, row):
        """Reduce a primitive integer row, keeping it primitive after each step;
        return the lead it is stored at, or None if it reduced to zero."""
        pivots = self.pivots
        while row:
            lead = min(row)
            b = row.pop(lead)
            pivot = pivots.get(lead)
            if pivot is None:
                # a compact copy: row's table grew and shrank while it was reduced
                pivots[lead] = (b, dict(row))
                return lead
            row = _primitive(_clear(row, b, *pivot)[1])
        return None

    def _back_substituted(self):
        """{lead: tail} of the monic rref; every tail lies on non-pivot columns.

        Pivots are finished in descending lead order, so each pivot column in
        a tail is cleared by one already reduced row, which cannot bring a
        pivot column back.  The clearing stays fraction-free; each finished
        row becomes monic Fractions only once, at the end.
        """
        reduced = {}
        for lead in sorted(self.pivots, reverse=True):
            a, row = self.pivots[lead]
            row = dict(row)
            for p in [c for c in row if c in reduced]:
                scale, row = _clear(row, row.pop(p), *reduced[p])
                a *= scale
            content = gcd(a, *row.values())
            if content != 1:
                a //= content
                row = {c: v // content for c, v in row.items()}
            reduced[lead] = (a, row)
        return {lead: {c: Fraction(v, a) for c, v in row.items()}
                for lead, (a, row) in reduced.items()}

    def reduced_rows(self):
        """The canonical rref as dicts in ascending lead order, lead value 1 first."""
        reduced = self._back_substituted()
        return [{lead: _ONE, **reduced[lead]} for lead in sorted(reduced)]

    def kernel(self):
        """Canonical right kernel, one dict vector per free column f.

        The vector for f has entry 1 at f and -R[p][f] at each pivot column p
        of the rref R, so equality of kernels is equality of these lists.
        """
        basis = {f: {f: _ONE} for f in range(self.ncols) if f not in self.pivots}
        reduced = self._back_substituted()
        for lead in sorted(reduced):
            for c, v in reduced[lead].items():
                basis[c][lead] = -v
        return list(basis.values())


def _find(parent, c):
    """Root of c in the union-find forest `parent`, compressing the path."""
    root = c
    while root in parent:
        root = parent[root]
    while c != root:
        parent[c], c = root, parent[c]
    return root


def _clear(row, x, a, tail):
    """Clear the entry x, already popped from row, against the pivot a*e + tail.

    Returns (s, s*row - t*tail) for the coprime s, t with s*x = t*a; the
    rest of the row is scaled by s whenever s != 1, including s = -1.
    """
    common = gcd(a, x)
    scale = a // common
    if scale != 1:
        row = {c: v * scale for c, v in row.items()}
    _subtract(row, x // common, tail)
    return scale, row


def _subtract(row, factor, other):
    """row -= factor * other, in place, dropping entries that cancel."""
    for c, v in other.items():
        val = row.get(c)
        if val is None:
            row[c] = -factor * v
        else:
            val -= factor * v
            if val:
                row[c] = val
            else:
                del row[c]


def _entries(vec):
    """(column, value) pairs of a dict {column: value} or a dense sequence."""
    return vec.items() if isinstance(vec, dict) else enumerate(vec)


def _sparse(vec):
    """A fresh primitive integer row {column: int} proportional to vec.

    Entries other than ints and Fractions go through `rat`, and zero entries
    are dropped; a row with a non-integral entry is scaled by `to_integers`,
    and the row is divided by the gcd of the resulting integers.
    """
    row = {}
    integral = True
    for c, v in _entries(vec):
        if type(v) is not int and type(v) is not Fraction:
            v = rat(v)  # before the zero test: the string "0" is truthy
        if v:
            if type(v) is Fraction:
                if v.denominator == 1:
                    v = v.numerator
                else:
                    integral = False
            row[c] = v
    if not integral:
        row = dict(zip(row, to_integers(row.values())[1]))
    return _primitive(row)


def _primitive(row):
    """The integer row divided by its content, the gcd of its entries."""
    content = gcd(*row.values())
    if content > 1:
        return {c: v // content for c, v in row.items()}
    return row
