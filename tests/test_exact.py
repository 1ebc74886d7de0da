from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

import pytest

from ribbonlab.exact import (
    RatMatrix,
    RowEliminator,
    TruncatedScalar,
    _entries,
    _sparse,
    rat,
    rat_from_str,
    rat_to_str,
    row_space_matrix,
    sparse_kernel_basis,
    sparse_rank,
)


def rand_fraction(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_matrix(rng, nrows, ncols, span=9):
    return RatMatrix([[rand_fraction(rng, span) for _ in range(ncols)]
                      for _ in range(nrows)], ncols)


def laplace_det(m: RatMatrix) -> Fraction:
    """Independent determinant oracle: cofactor expansion along the first row."""
    n = m.nrows
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m.rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if not m.rows[0][j]:
            continue
        minor = RatMatrix([[m.rows[i][k] for k in range(n) if k != j]
                           for i in range(1, n)], n - 1)
        total += (-1) ** j * m.rows[0][j] * laplace_det(minor)
    return total


def dense_rref(rows, ncols):
    """Test-only oracle: textbook dense Gauss-Jordan with first-nonzero pivots.

    Returns (reduced rows with zero rows dropped, pivot columns).
    """
    rows = [[rat(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in rows[:r]], tuple(pivots)


def dense_kernel(rows, ncols):
    """Oracle kernel: one vector per free column f, 1 at f, -R[i][f] at pivot i."""
    reduced, pivots = dense_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(tuple(v))
    return basis


def rand_entry(rng, span=3):
    """A random rational as a Fraction, an int or a string, zero half the time."""
    if rng.random() < 0.5:
        return rng.choice([0, "0", Fraction(0)])
    x = rand_fraction(rng, span)
    return rng.choice([x, str(x), x.numerator])


def rand_case(rng, max_rows=8, max_cols=8):
    """A random (dense rows, sparse rows, ncols) case, empty and all-zero ones included."""
    ncols = rng.randint(1, max_cols)
    kind = rng.random()
    if kind < 0.1:
        dense = []
    elif kind < 0.2:
        dense = [[0] * ncols for _ in range(rng.randint(1, max_rows))]
    else:
        dense = [[rand_entry(rng) for _ in range(ncols)]
                 for _ in range(rng.randint(1, max_rows))]
    sparse = [{c: x for c, x in enumerate(row) if rng.random() < 0.5 or rat(x)}
              for row in dense]
    return dense, sparse, ncols


def to_dense(vec, ncols):
    return tuple(vec.get(c, Fraction(0)) for c in range(ncols))


def test_rat_string_round_trip():
    assert rat_to_str(Fraction(3, 1)) == "3"
    assert rat_to_str(Fraction(-3, 7)) == "-3/7"
    assert rat_from_str("-3/7") == Fraction(-3, 7)
    assert rat_from_str("5") == Fraction(5)
    assert rat(4) == Fraction(4)


def test_booleans_and_zero_denominators_are_refused():
    for value in (True, False):
        with pytest.raises(TypeError, match="cannot coerce"):
            rat(value)
        with pytest.raises(TypeError):
            RatMatrix([[1, value]], 2)
        with pytest.raises(TypeError, match="cannot coerce"):  # a falsy entry too
            RowEliminator(2, [{0: 1, 1: value}])
    for text in ("1/0", " -3/0 ", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            rat_from_str(text)
    with pytest.raises(ValueError, match="rational string"):
        rat_from_str(1)


def test_exponent_notation_is_refused():
    for text in ("1e5", " 2E-3", "1.5e1", "3/1e2"):
        with pytest.raises(ValueError, match="exponent"):
            rat_from_str(text)
        with pytest.raises(ValueError, match="exponent"):
            rat(text)
    assert rat_from_str(" 1.25 ") == rat("5/4") == Fraction(5, 4)


def test_python_literal_extras_are_refused():
    # Fraction reads "1_0" as 10 and the Arabic-Indic "١٢/٣" as 4; the grammar
    # is ASCII integer, "p/q" or decimal
    for text, reason in (("1_0", "digit separators"), ("1/1_000", "digit separators"),
                         ("١٢/٣", "non-ASCII"), ("１２", "non-ASCII")):
        with pytest.raises(ValueError, match=reason):
            rat_from_str(text)
        with pytest.raises(ValueError, match=reason):
            rat(text)
    assert rat_from_str("12/3") == Fraction(4) and rat_from_str("-0.5") == Fraction(-1, 2)


def test_rat_matrix_rows_have_ncols_entries():
    # one rule for every shape, the empty matrix included
    empty = RatMatrix([], 3)
    assert (empty.nrows, empty.ncols, empty.rank()) == (0, 3, 0)
    for rows in ([[1, 2], [3]], [[1, 2, 3]], [[1], [2]]):
        with pytest.raises(ValueError, match="every row must have 2 entries"):
            RatMatrix(rows, 2)


def test_rref_drops_dependent_row():
    R, pivots = RatMatrix([[2, 4], [1, 2]], 2).rref()
    assert R.rows == ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(0)))
    assert pivots == (0,)


def test_kernel_of_rank_one_matrix():
    basis = RatMatrix([[2, 4], [1, 2]], 2).kernel_basis()
    assert basis == [(Fraction(-2), Fraction(1))]


def test_det_swap_matrix():
    assert RatMatrix([[0, 1], [1, 0]], 2).det() == -1


def test_det_matches_laplace_oracle():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(8):
            m = rand_matrix(rng, n, n)
            assert m.det() == laplace_det(m)


def gauss_det(rows) -> Fraction:
    """Test-only oracle: Fraction Gaussian elimination with row swaps."""
    rows = [[rat(x) for x in row] for row in rows]
    n, det = len(rows), Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return det


def test_det_matches_gaussian_oracle_with_denominators_and_zero_pivots():
    # half the entries are zero, so pivots vanish and rows must be swapped
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = [[rat(rand_entry(rng)) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            rows[0][0] = Fraction(0)
        m = RatMatrix(rows, n)
        assert m.det() == gauss_det(rows)
        assert type(m.det()) is Fraction


def test_sparse_entry_matches_rat_path():
    # the engine's entry conversion against coercing every entry through rat
    def oracle(vec):
        row = {c: rat(v) for c, v in _entries(vec) if rat(v)}
        denominator = math.lcm(*(v.denominator for v in row.values()))
        row = {c: int(v * denominator) for c, v in row.items()}
        content = math.gcd(*row.values())
        return {c: v // content for c, v in row.items()} if content > 1 else row

    rng = random.Random(23)
    for _ in range(300):
        ncols = rng.randint(0, 7)
        dense = [rand_entry(rng) for _ in range(ncols)]
        assert _sparse(dense) == oracle(dense)
        sparse = {c: x for c, x in enumerate(dense) if rng.random() < 0.5}
        got = _sparse(sparse)
        assert got == oracle(sparse)
        assert all(type(v) is int for v in got.values())


def test_det_singular_matrix_is_zero():
    rng = random.Random(11)
    for _ in range(6):
        m = rand_matrix(rng, 3, 3)
        doubled = RatMatrix([m.rows[0], m.rows[1],
                             [2 * a for a in m.rows[0]]], 3)
        assert doubled.det() == 0


def test_rref_is_idempotent_and_preserves_row_space():
    rng = random.Random(3)
    for _ in range(10):
        m = rand_matrix(rng, 4, 6, span=5)
        R, pivots = m.rref()
        R2, pivots2 = R.rref()
        assert R2.rows == R.rows and pivots2 == pivots
        stacked = RatMatrix(list(m.rows) + list(R.rows), m.ncols)
        assert stacked.rank() == len(pivots) == m.rank()


def test_kernel_vectors_annihilate_and_count():
    rng = random.Random(5)
    for _ in range(10):
        m = rand_matrix(rng, 3, 5, span=4)
        kernel = m.kernel_basis()
        assert len(kernel) == m.ncols - m.rank()
        for v in kernel:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m.rows)


def test_sparse_rank_matches_dense():
    rng = random.Random(23)
    for _ in range(60):
        dense, sparse, ncols = rand_case(rng)
        want = len(dense_rref(dense, ncols)[1])
        assert sparse_rank(sparse, ncols) == want
        assert sparse_rank(dense, ncols) == want
        if dense:
            assert RatMatrix(dense, ncols=ncols).rank() == want


def test_sparse_kernel_matches_dense_kernel():
    rng = random.Random(37)
    for _ in range(60):
        dense, sparse, ncols = rand_case(rng)
        want = dense_kernel(dense, ncols)
        kernel = sparse_kernel_basis(sparse, ncols)
        assert all(all(isinstance(x, Fraction) and x for x in v.values()) for v in kernel)
        assert [to_dense(v, ncols) for v in kernel] == want
        if dense:
            assert RatMatrix(dense, ncols=ncols).kernel_basis() == want


def test_rref_and_row_space_match_dense_oracle():
    rng = random.Random(43)
    for _ in range(60):
        dense, sparse, ncols = rand_case(rng)
        reduced, pivots = dense_rref(dense, ncols)
        assert [to_dense(row, ncols) for row in row_space_matrix(sparse, ncols)] == reduced
        assert [to_dense(row, ncols) for row in row_space_matrix(dense, ncols)] == reduced
        if dense:
            R, got_pivots = RatMatrix(dense, ncols=ncols).rref()
            zero = (Fraction(0),) * ncols
            assert got_pivots == pivots
            assert R.rows == tuple(reduced) + (zero,) * (len(dense) - len(reduced))


def test_engine_coerces_every_entry():
    rows = [to_dense(row, 3) for row in row_space_matrix([(1, 2, 0)], 3)]
    assert rows == [(Fraction(1), Fraction(2), Fraction(0))]
    assert all(type(x) is Fraction for x in rows[0])
    assert sparse_kernel_basis([{0: "1/2", 1: 3, 2: "0"}], 3) == [
        {1: Fraction(1), 0: Fraction(-6)}, {2: Fraction(1)}]
    elim = RowEliminator(2, [["0", 0]])
    assert elim.rank == 0 and not elim.add({0: "0"})
    assert elim.reduced_rows() == [] and elim.kernel() == [{0: 1}, {1: 1}]


def test_row_eliminator_tracks_dense_rank():
    rng = random.Random(41)
    for _ in range(10):
        ncols = rng.randint(1, 6)
        elim = RowEliminator(ncols, [])
        seen = []
        for _ in range(rng.randint(1, 10)):
            if rng.random() < 0.4:
                vec = {c: rand_fraction(rng, 3) for c in range(ncols) if rng.random() < 0.5}
                vec = {c: v for c, v in vec.items() if v}
                dense_row = [vec.get(c, Fraction(0)) for c in range(ncols)]
            else:
                dense_row = [rand_fraction(rng, 3) if rng.random() < 0.5 else Fraction(0)
                             for c in range(ncols)]
                vec = dense_row
            before = len(dense_rref(seen, ncols)[1])
            seen.append(dense_row)
            grew = len(dense_rref(seen, ncols)[1]) > before
            assert elim.add(vec) == grew
        assert elim.rank == len(dense_rref(seen, ncols)[1])
        assert elim.reduced_rows() == [
            {c: x for c, x in enumerate(row) if x} for row in dense_rref(seen, ncols)[0]]


def rand_nonzero(rng, span=4):
    x = Fraction(0)
    while not x:
        x = rand_fraction(rng, span)
    return x


def rand_binomial_rows(rng, ncols):
    """Rows mostly c*(e_a - e_b) (chains, cycles, repeated edges), in mixed spellings.

    Mixed in: two-entry rows whose entries do not cancel, single-entry rows,
    empty rows and a few longer ones.
    """
    def edge(a, b):
        c = rng.choice([1, -1, 2, -3, Fraction(2, 3), Fraction(-5, 7)])
        kind = rng.random()
        if kind < 0.2:
            row = {a: str(c), b: str(-c)}
            row.setdefault(rng.randrange(ncols), "0")
            return row
        if kind < 0.3:
            return [c if k == a else -c if k == b else 0 for k in range(ncols)]
        return {a: c, b: -c}

    rows = []
    chain = rng.sample(range(ncols), rng.randint(2, ncols))
    rows += [edge(a, b) for a, b in zip(chain, chain[1:])]
    cycle = rng.sample(range(ncols), rng.randint(2, ncols))
    rows += [edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    for _ in range(rng.randint(0, ncols)):
        rows.append(edge(*rng.sample(range(ncols), 2)))
    rows += [rows[rng.randrange(len(rows))] for _ in range(2)]
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(ncols), 2)
        x = rand_nonzero(rng)
        y = rand_nonzero(rng)
        rows.append({a: x, b: y if y != -x else 2 * y})
    for _ in range(rng.randint(0, 2)):
        rows.append({rng.randrange(ncols): rand_nonzero(rng)})
    rows += [{}] * rng.randint(0, 1)
    for _ in range(rng.randint(0, 1)):
        rows.append({c: rand_nonzero(rng) for c in rng.sample(range(ncols), 3)})
    rng.shuffle(rows)
    return rows


def rand_vector(rng, ncols):
    if rng.random() < 0.5:
        a, b = rng.sample(range(ncols), 2)
        return {a: 1, b: -1}
    return {c: rand_nonzero(rng) for c in range(ncols) if rng.random() < 0.4}


def test_binomial_pre_pass_matches_incremental_adds():
    # the constructor takes c*(e_a - e_b) rows by union-find; adding the same
    # rows one by one, and the dense oracle, must give the same canonical forms
    rng = random.Random(53)
    for _ in range(150):
        ncols = rng.randint(3, 10)
        rows = rand_binomial_rows(rng, ncols)
        fast = RowEliminator(ncols, rows)
        slow = RowEliminator(ncols, [])
        for row in rows:
            slow.add(row)
        dense = [[rat(row.get(c, 0)) for c in range(ncols)] if isinstance(row, dict)
                 else [rat(x) for x in row] for row in rows]
        reduced, _ = dense_rref(dense, ncols)
        assert fast.rank == slow.rank == len(reduced)
        assert fast.reduced_rows() == slow.reduced_rows() == [
            {c: x for c, x in enumerate(row) if x} for row in reduced]
        assert fast.kernel() == slow.kernel()
        assert [to_dense(v, ncols) for v in fast.kernel()] == dense_kernel(dense, ncols)
        # later adds, then a rewind to the constructor's pivots
        snapshot = dict(fast.pivots)
        for _ in range(3):
            vec = rand_vector(rng, ncols)
            assert fast.add(vec) == slow.add(vec)
        assert fast.reduced_rows() == slow.reduced_rows()
        fast.pivots = snapshot
        slow = RowEliminator(ncols, [])
        for row in rows:
            slow.add(row)
        for _ in range(3):
            vec = rand_vector(rng, ncols)
            assert fast.add(vec) == slow.add(vec)
        assert fast.reduced_rows() == slow.reduced_rows()
        assert fast.kernel() == slow.kernel()


class MonicEliminator:
    """Test-only oracle: the monic `Fraction` elimination loop.

    Every pivot is divided by its lead on arrival and stored as the monic
    tail {column: Fraction}; rows are absorbed in the order given, with no
    binomial pre-pass.  The canonical forms are those of RowEliminator.
    """

    def __init__(self, ncols, rows=()):
        self.ncols = ncols
        self.pivots = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self):
        return len(self.pivots)

    def add(self, vec):
        items = vec.items() if isinstance(vec, dict) else enumerate(vec)
        row = {c: rat(v) for c, v in items if rat(v)}
        while row:
            lead = min(row)
            factor = row.pop(lead)
            tail = self.pivots.get(lead)
            if tail is None:
                self.pivots[lead] = {c: v / factor for c, v in row.items()}
                return True
            for c, v in tail.items():
                row[c] = row.get(c, 0) - factor * v
                if not row[c]:
                    del row[c]
        return False

    def _back_substituted(self):
        reduced = {}
        for lead in sorted(self.pivots, reverse=True):
            row = dict(self.pivots[lead])
            for p in [c for c in row if c in reduced]:
                factor = row.pop(p)
                for c, v in reduced[p].items():
                    row[c] = row.get(c, 0) - factor * v
                    if not row[c]:
                        del row[c]
            reduced[lead] = row
        return reduced

    def reduced_rows(self):
        reduced = self._back_substituted()
        return [{lead: Fraction(1), **reduced[lead]} for lead in sorted(reduced)]

    def kernel(self):
        basis = {f: {f: Fraction(1)} for f in range(self.ncols) if f not in self.pivots}
        reduced = self._back_substituted()
        for lead in sorted(reduced):
            for c, v in reduced[lead].items():
                basis[c][lead] = -v
        return list(basis.values())


def rand_oracle_row(rng, ncols):
    """A row for the oracle comparison, in a dict or dense spelling.

    The kinds: rational entries; binomials c*(e_a - e_b); integer rows led
    by -1 or by a non-unit; rational rows that scale to a lead of -1; zero
    rows, empty or with explicit zeros.
    """
    cols = sorted(rng.sample(range(ncols), rng.randint(1, ncols)))
    kind = rng.random()
    if kind < 0.25:
        row = {c: rand_fraction(rng, 5) for c in cols}
    elif kind < 0.45 and ncols >= 2:
        a, b = rng.sample(range(ncols), 2)
        c = rng.choice([1, -1, 3, Fraction(-2, 5)])
        row = {a: c, b: -c}
    elif kind < 0.7:
        lead = rng.choice([-1, -1, 2, -3, 6])
        row = {c: rng.randint(-4, 4) for c in cols[1:]}
        row[cols[0]] = lead
    elif kind < 0.85:
        den = rng.choice([2, 3, 6])
        row = {c: Fraction(rng.randint(-5, 5), den) for c in cols[1:]}
        row[cols[0]] = Fraction(-rng.choice([1, 2, 4]), den)
    elif kind < 0.92:
        row = {}
    else:
        row = {c: 0 for c in cols}
    if rng.random() < 0.3:
        return [row.get(c, 0) for c in range(ncols)]
    return row


def test_integer_engine_matches_monic_oracle():
    # the fraction-free engine against the monic Fraction loop: canonical
    # forms, add decisions, and a snapshot -> add -> restore -> add round
    rng = random.Random(61)
    for _ in range(300):
        ncols = rng.randint(1, 8)
        rows = [rand_oracle_row(rng, ncols) for _ in range(rng.randint(0, 9))]
        fast = RowEliminator(ncols, rows)
        slow = MonicEliminator(ncols, rows)
        assert fast.rank == slow.rank
        assert fast.reduced_rows() == slow.reduced_rows()
        assert fast.kernel() == slow.kernel()
        assert all(type(x) is Fraction for row in fast.reduced_rows() for x in row.values())
        assert all(type(x) is Fraction for v in fast.kernel() for x in v.values())
        for _ in range(rng.randint(0, 3)):
            vec = rand_oracle_row(rng, ncols)
            assert fast.add(vec) == slow.add(vec)
        snapshots = dict(fast.pivots), dict(slow.pivots)
        for _ in range(rng.randint(1, 4)):
            vec = rand_oracle_row(rng, ncols)
            assert fast.add(vec) == slow.add(vec)
        assert fast.reduced_rows() == slow.reduced_rows()
        fast.pivots, slow.pivots = snapshots
        assert fast.rank == slow.rank
        for _ in range(rng.randint(1, 4)):
            vec = rand_oracle_row(rng, ncols)
            assert fast.add(vec) == slow.add(vec)
        assert fast.reduced_rows() == slow.reduced_rows()
        assert fast.kernel() == slow.kernel()


def test_row_space_matrix_is_canonical():
    a = row_space_matrix([(1, 2, 0), (0, 0, 1)], 3)
    b = row_space_matrix([(2, 4, 6), (1, 2, 5), (3, 6, 1)], 3)
    assert a == b


def rand_truncated(rng, order):
    return TruncatedScalar([rand_fraction(rng, 5) for _ in range(order)])


def test_truncated_ring_axioms():
    # the operations a family uses: addition, negation and multiplication by
    # a power of pi (shift), which distributes over the sum
    rng = random.Random(29)
    for _ in range(20):
        order = rng.randint(1, 5)
        a, b, c = (rand_truncated(rng, order) for _ in range(3))
        zero = TruncatedScalar.from_rational(0, order)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + zero == a and not a + -a and -(-a) == a
        s, t = rng.randint(0, order), rng.randint(0, order)
        assert (a + b).shift(s) == a.shift(s) + b.shift(s)
        assert a.shift(s).shift(t) == a.shift(s + t)


def test_truncated_arithmetic_matches_public_constructor():
    # the private constructor stores what the public one would build
    rng = random.Random(37)
    for _ in range(40):
        order = rng.randint(1, 5)
        a, b = rand_truncated(rng, order), rand_truncated(rng, order)
        k = rng.randint(1, order)
        s = rng.randint(0, order)
        results = [a + b, a + -b, -a, a.truncate(k), a.shift(s),
                   TruncatedScalar.from_rational(rand_fraction(rng), order)]
        if order > 1:
            results.append(a.shift(1).shift(-1))
        for x in results:
            public = TruncatedScalar(x.coeffs)
            assert x == public and type(x.coeffs) is tuple
            assert all(type(c) is Fraction for c in x.coeffs)


def test_truncated_arithmetic_on_zero_digits_matches_digitwise_oracle():
    # most digits are zero, which the arithmetic passes through unadded
    rng = random.Random(41)
    for _ in range(80):
        order = rng.randint(1, 6)
        x, y = ([rand_fraction(rng, 5) if rng.random() < 0.4 else Fraction(0)
                 for _ in range(order)] for _ in range(2))
        a, b = TruncatedScalar(x), TruncatedScalar(y)
        for got, want in ((a + b, map(operator.add, x, y)), (a + -b, map(operator.sub, x, y)),
                          (-a, map(operator.neg, x)), (a.shift(1), [Fraction(0)] + x[:-1])):
            assert got.coeffs == tuple(want)
            assert all(type(c) is Fraction for c in got.coeffs)


def test_truncated_hash_agrees_with_equality():
    rng = random.Random(43)
    for _ in range(40):
        order = rng.randint(1, 4)
        a = TruncatedScalar([rng.randint(-1, 1) for _ in range(order)])
        b = TruncatedScalar([rng.randint(-1, 1) for _ in range(order)])
        if a == b:
            assert hash(a) == hash(b)
        assert len({a, b, TruncatedScalar(a.coeffs)}) == (1 if a == b else 2)


def test_truncated_scalar_equals_no_rational():
    # an element is never lifted from Q, so it equals no rational, whatever its digits
    assert not TruncatedScalar([3, 0]) == 3 and TruncatedScalar([3, 0]) != 3
    assert not TruncatedScalar([3, 0, 0]) == Fraction(3)
    assert not Fraction(3) == TruncatedScalar([3])
    assert len({TruncatedScalar([0, 0]), 0, Fraction(0)}) == 2
    assert len({TruncatedScalar([Fraction(1, 2)]), Fraction(1, 2)}) == 2


def test_truncated_scalar_adds_only_its_own_kind():
    x = TruncatedScalar([1, 2])
    for other in (Fraction(1, 2), 1, 0):
        for op in (lambda: x + other, lambda: other + x):
            with pytest.raises(TypeError):
                op()
    for op in (lambda: x - x, lambda: x * x, lambda: 2 * x, lambda: x * Fraction(1, 2)):
        with pytest.raises(TypeError):
            op()


def test_rref_matrix_matches_public_constructor():
    rng = random.Random(39)
    for _ in range(20):
        dense, _, ncols = rand_case(rng)
        if not dense:
            continue
        reduced, _ = RatMatrix(dense, ncols=ncols).rref()
        assert reduced == RatMatrix(reduced.rows, ncols=ncols)
        assert all(type(row) is tuple and all(type(x) is Fraction for x in row)
                   for row in reduced.rows)


def test_truncated_pi_is_nilpotent():
    # pi^k is the shift by k of 1
    one = TruncatedScalar.from_rational(1, 3)
    assert one.shift(1) == TruncatedScalar([0, 1, 0])
    assert not one.shift(3)
    assert bool(one.shift(2))
    assert one.shift(1).shift(1).coeffs == (0, 0, 1)
    assert not TruncatedScalar.from_rational(0, 3)


def test_truncated_scalar_equals_no_bool():
    # == answers False instead of raising, and arithmetic with a bool is refused
    one, zero = TruncatedScalar([1, 0]), TruncatedScalar([0, 0])
    assert not one == True and one != True and not True == one
    assert not zero == False and zero != False
    assert True not in [one] and False not in [zero] and one in [TruncatedScalar([1, 0])]
    for value in (True, False):
        for op in (lambda: one + value, lambda: value + one, lambda: value - one):
            with pytest.raises(TypeError):
                op()


def test_truncated_shift_and_truncate():
    x = TruncatedScalar([0, 0, 3, 5])
    assert x.shift(-2) == TruncatedScalar([3, 5])
    assert x.shift(1) == TruncatedScalar([0, 0, 0, 3])
    assert x.truncate(2) == TruncatedScalar([0, 0])
    with pytest.raises(ValueError):
        TruncatedScalar([1, 0]).shift(-1)
    with pytest.raises(ValueError):
        x.shift(-4)


def test_truncation_is_a_ring_map():
    # on the operations there are: sums, negation and multiplication by pi^s
    rng = random.Random(31)
    for _ in range(15):
        a = rand_truncated(rng, 5)
        b = rand_truncated(rng, 5)
        for m in (1, 2, 4):
            assert (a + b).truncate(m) == a.truncate(m) + b.truncate(m)
            assert (-a).truncate(m) == -a.truncate(m)
            for s in (0, 1, 3):
                assert a.shift(s).truncate(m) == a.truncate(m).shift(s)


def test_truncated_order_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncatedScalar([1, 2]) + TruncatedScalar([1, 2, 3])
    # comparison is not arithmetic: different orders are simply unequal
    assert not TruncatedScalar([1, 0]) == TruncatedScalar([1, 0, 0])
    assert TruncatedScalar([1, 0]) != TruncatedScalar([1, 0, 0])


def test_truncated_json_round_trip():
    x = TruncatedScalar([Fraction(1, 2), 0, -3])
    assert TruncatedScalar.from_json(x.to_json()) == x
    assert x.to_json() == ["1/2", "0", "-3"]


def test_engine_agrees_with_sympy():
    # an independent exact oracle: rank, kernel span and det of small random
    # matrices of every rank, square ones for det
    sympy = pytest.importorskip("sympy")

    def to_sympy(rows):
        return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                             for row in rows])

    rng = random.Random(59)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            ncols = nrows
        basis = [[rand_fraction(rng, 4) for _ in range(ncols)]
                 for _ in range(rng.randint(0, min(nrows, ncols)))]
        rows = [[sum((rng.randint(-2, 2) * v[c] for v in basis), Fraction(0))
                 for c in range(ncols)] for _ in range(nrows)]
        m, s = RatMatrix(rows, ncols), to_sympy(rows)
        assert m.rank() == s.rank()
        assert sparse_rank([{c: x for c, x in enumerate(row) if x} for row in rows],
                           ncols) == s.rank()
        ours, theirs = m.kernel_basis(), s.nullspace()
        assert len(ours) == len(theirs)
        if ours:
            stacked = to_sympy(ours).col_join(sympy.Matrix.hstack(*theirs).T)
            assert stacked.rank() == len(ours)
        if nrows == ncols:
            assert m.det() == Fraction(str(s.det()))
