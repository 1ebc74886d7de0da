"""Matrices of single variables whose maximal minors realize monomial powers.

Near the locus where the multiplication map degenerates, its presentation
matrix reduces to one whose entries are single variables z_i or zero.  Two
shapes matter: the symmetric-square map phi2 (square case, r = m) and the
block matrix (z_1*I_r | ... | z_m*I_r) (surjective case).  For both, every
monomial of degree r is +/- one maximal minor, picked by an explicit
deterministic column selection; this puts the r-th power of (z_1..z_m)
inside the ideal of maximal minors, while the reverse inclusion is
automatic because all entries are linear.
"""

from __future__ import annotations

from itertools import combinations_with_replacement


class LinFormMatrix:
    """Matrix whose entries are single variables among z_1..z_m, or zero.

    An entry is the index of its variable (an int in range(m)) or None for
    zero, so the minors take integer signs only.  col_labels records what
    each column means ((a, b) for the quadratic monomial z_a z_b in phi2
    mode; (a, t) for block a, row t in blocks mode).
    """

    __slots__ = ("m", "nrows", "ncols", "entries", "kind", "col_labels")

    def __init__(self, m, entries, kind, col_labels):
        self.m = m
        self.entries = tuple(map(tuple, entries))
        self.nrows = len(self.entries)
        self.ncols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")
            for entry in row:
                if not (entry is None or type(entry) is int and 0 <= entry < m):
                    raise ValueError("entry %r is not None or an index in range(%d)"
                                     % (entry, m))
        self.kind = kind
        self.col_labels = tuple(col_labels)
        if len(self.col_labels) != self.ncols:
            raise ValueError("need one label per column")


def phi2_symbolic(m: int) -> LinFormMatrix:
    """The symmetric-square multiplication matrix: m rows, one column per
    quadratic monomial z_a z_b (a <= b); column z_a z_b is z_a e_b + z_b e_a,
    column z_a^2 is z_a e_a."""
    if m < 1:
        raise ValueError("m must be positive")
    labels = [(a, b) for a in range(m) for b in range(a, m)]
    entries = [[None] * len(labels) for _ in range(m)]
    for col, (a, b) in enumerate(labels):
        entries[b][col] = a
        entries[a][col] = b
    return LinFormMatrix(m, entries, "phi2", labels)


def phid_symbolic_blocks(m: int, r: int) -> LinFormMatrix:
    """The r x rm block matrix (z_1*I_r | ... | z_m*I_r)."""
    if m < 1 or r < 1:
        raise ValueError("m and r must be positive")
    labels = [(a, t) for a in range(m) for t in range(r)]
    entries = [[None] * len(labels) for _ in range(r)]
    for col, (a, t) in enumerate(labels):
        entries[t][col] = a
    return LinFormMatrix(m, entries, "blocks", labels)


def symbolic_minor(matrix: LinFormMatrix, cols):
    """Exact determinant of the square submatrix on the given column indices.

    Returns a polynomial as {exponent tuple: int coefficient}.  Laplace
    expansion along the rows, depth first: row k takes each column still
    free whose entry is a variable, with sign (-1)^(its position among the
    free columns); zero entries cut their branch at once.
    """
    r = matrix.nrows
    if len(cols) != r:
        raise ValueError("need exactly %d columns" % r)
    entries = matrix.entries
    total = {}

    def expand(row, free, exps, sign):
        if row == r:
            total[exps] = total.get(exps, 0) + sign
            return
        for pos, col in enumerate(free):
            var = entries[row][col]
            if var is not None:
                expand(row + 1, free[:pos] + free[pos + 1:],
                       exps[:var] + (exps[var] + 1,) + exps[var + 1:],
                       -sign if pos % 2 else sign)

    expand(0, list(cols), (0,) * matrix.m, 1)
    return {exps: c for exps, c in total.items() if c}


def _canonical_partition(m, support, mults):
    """Split the unused indices into parts of sizes mults[t]-1, smallest
    indices filling the earliest parts."""
    rest = [j for j in range(m) if j not in support]
    parts = []
    pos = 0
    for a in mults:
        parts.append(rest[pos:pos + a - 1])
        pos += a - 1
    return parts


def minor_for_monomial(matrix: LinFormMatrix, monomial):
    """Column selection realizing the monomial as +/- one maximal minor.

    `monomial` is an exponent tuple of degree r = matrix.nrows.  Returns
    (column labels, minor polynomial); raises ArithmeticError if the
    computed determinant is not +/- the requested monomial, which would
    falsify the construction.
    """
    monomial = tuple(int(a) for a in monomial)
    if len(monomial) != matrix.m or any(a < 0 for a in monomial):
        raise ValueError("bad exponent vector")
    r = matrix.nrows
    if sum(monomial) != r:
        raise ValueError("monomial degree must be %d" % r)
    label_index = {lab: t for t, lab in enumerate(matrix.col_labels)}
    if matrix.kind == "phi2":
        support = [i for i, a in enumerate(monomial) if a]
        mults = [monomial[i] for i in support]
        parts = _canonical_partition(matrix.m, set(support), mults)
        labels = []
        for i, part in zip(support, parts):
            labels.append((i, i))
            for j in part:
                labels.append((min(i, j), max(i, j)))
    elif matrix.kind == "blocks":
        labels = []
        row = 0
        for a, mult in enumerate(monomial):
            for _ in range(mult):
                labels.append((a, row))
                row += 1
    else:
        raise ValueError("unknown matrix kind %r" % matrix.kind)
    cols = [label_index[lab] for lab in labels]
    det = symbolic_minor(matrix, cols)
    if set(det) != {monomial} or abs(det[monomial]) != 1:
        raise ArithmeticError("minor is not +/- the requested monomial")
    return labels, det


def verify_power_ideal(m: int, r: int, mode: str):
    """Check every degree-r monomial is +/- a maximal minor; JSON-able report.

    Establishes (z_1..z_m)^r inside the ideal of maximal minors by
    exhaustive witness construction.  The reverse inclusion needs every
    minor to be homogeneous of degree r, which holds because every entry
    is one variable or zero, as the constructor checks.
    """
    if mode == "phi2":
        if r != m:
            raise ValueError("phi2 mode requires r = m")
        matrix = phi2_symbolic(m)
    elif mode == "blocks":
        matrix = phid_symbolic_blocks(m, r)
    else:
        raise ValueError("unknown mode %r" % mode)
    witnesses = []
    for combo in combinations_with_replacement(range(m), r):
        monomial = tuple(combo.count(i) for i in range(m))
        try:
            labels, det = minor_for_monomial(matrix, monomial)
        except ArithmeticError:
            witnesses.append({"monomial": list(monomial), "columns": None,
                              "sign": None})
            continue
        witnesses.append({
            "monomial": list(monomial),
            "columns": [list(lab) for lab in labels],
            "sign": int(det[monomial]),
        })
    return {"m": m, "r": r, "mode": mode, "monomials_checked": len(witnesses),
            "all_realized": all(w["columns"] is not None for w in witnesses),
            "witnesses": witnesses}
