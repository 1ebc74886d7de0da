"""Test-only oracles for `ribbonlab.xg.syzygies_by_degree`: two loops it
ran before, kept unchanged.

`all_kernels_syzygies` builds the full left kernel of the generator
multiples in every degree and greedily reduces every kernel vector against
the monomial multiples of the lower-degree representatives, which it lifts
through the per-degree layouts it keeps.  It returns the records as plain
dicts of the seven `SyzygyRecord` fields.  Only the elimination engine and
the matrix builder are shared with the code it checks.

`rank_count_syzygies` is the loop that counted by ranks before its shape
check reused the pivots of the lifted rows: it ranks all the multiples,
keeps the kernel vectors outside the lifted span greedily, and its shape
check eliminates the lifted rows a second time, together with the pure
syzygies.

The code under test takes its representatives from the left kernel of only
the multiples whose row is not a lead of the lifted span, so its basis
differs from the oracles' greedy choice; `counts` compares the other six
fields, and the tests check the representatives by what defines them.
"""

from operator import add

from ribbonlab.exact import RowEliminator, left_kernel, sparse_rank
from ribbonlab.poly import WPoly, monomials
from ribbonlab.xg import SYZYGY_SHAPE_TABLES, generator_multiples

FIELDS = ("degree", "kernel_dim", "from_lower_dim", "minimal_count",
          "shape_name", "shape_matched", "representatives")


def counts(records):
    """{degree: {field: value}} of every field but the representatives, for
    SyzygyRecords and for the oracles' dicts alike."""
    return {d: {name: rec[name] if isinstance(rec, dict) else getattr(rec, name)
                for name in FIELDS[:-1]}
            for d, rec in records.items()}


def all_kernels_syzygies(ideal, max_degree, shape_table="ribbon"):
    g = ideal.g
    shapes = SYZYGY_SHAPE_TABLES[shape_table]
    groups = ideal.generator_groups()
    records = {}
    minimal_reps = {}
    layouts = {}
    min_gen_degree = min(p.degree() for p in ideal.generators())
    for degree in range(min_gen_degree + 1, max_degree + 1):
        layout, rows, columns = generator_multiples(ideal.generators(), degree)
        kernel = left_kernel(rows, len(columns))
        layouts[degree] = layout
        index_to = {col_key: i for i, col_key in enumerate(layout)}
        lifted_rows = []
        for lower_degree, reps in minimal_reps.items():
            shift = degree - lower_degree
            lower_layout = layouts[lower_degree]
            for m_extra in monomials(g, shift):
                for vec in reps:
                    lifted = {}
                    for col, c in vec.items():
                        e, m = lower_layout[col]
                        lifted[index_to[(e, tuple(a + b for a, b in zip(m, m_extra)))]] = c
                    lifted_rows.append(lifted)
        elim = RowEliminator(len(layout), lifted_rows)
        low_dim = elim.rank
        new_reps = [v for v in kernel if elim.add(v)]
        minimal_count = len(new_reps)
        shape_entry = shapes.get(degree)
        shape_name = shape_entry[0] if shape_entry else None
        shape_matched = None
        if minimal_count:
            if shape_entry is None:
                shape_matched = False
            else:
                allowed = dict(shape_entry[1])
                pure_cols = []
                for col, (e, m) in enumerate(layout):
                    want = allowed.get(groups[e])
                    if want is not None and (sum(m[:g]), sum(m[g:])) == want:
                        pure_cols.append(col)
                pure = [{pure_cols[local]: c for local, c in v.items()}
                        for v in left_kernel([rows[col] for col in pure_cols],
                                             len(columns))]
                # the pure syzygies cover the minimal ones exactly when the
                # lifted and pure rows together span the whole kernel
                shape_matched = (RowEliminator(len(layout), lifted_rows + pure).rank
                                 == elim.rank)
        records[degree] = {
            "degree": degree, "kernel_dim": len(kernel), "from_lower_dim": low_dim,
            "minimal_count": minimal_count, "shape_name": shape_name,
            "shape_matched": shape_matched,
            "representatives": [_vectors_to_polys(ideal, layout, v) for v in new_reps]}
        minimal_reps[degree] = new_reps
    return records


def rank_count_syzygies(ideal, max_degree, shape_table="ribbon"):
    g = ideal.g
    shapes = SYZYGY_SHAPE_TABLES[shape_table]
    groups = ideal.generator_groups()
    gens = ideal.generators()
    records = {}
    min_gen_degree = min(p.degree() for p in gens)
    for degree in range(min_gen_degree + 1, max_degree + 1):
        layout, rows, columns = generator_multiples(gens, degree)
        kernel_dim = len(rows) - sparse_rank(rows, len(columns))
        row_of = {key: i for i, key in enumerate(layout)}
        lifted_rows = [{row_of[e, tuple(map(add, m, shift))]: c
                        for e, coeff in enumerate(rep) for m, c in coeff.terms.items()}
                       for lower in records.values()
                       for shift in monomials(g, degree - lower["degree"])
                       for rep in lower["representatives"]]
        elim = RowEliminator(len(layout), lifted_rows)
        from_lower_dim = elim.rank
        new_reps = ([v for v in left_kernel(rows, len(columns)) if elim.add(v)]
                    if kernel_dim > from_lower_dim else [])
        shape_name, pattern = shapes.get(degree, (None, None))
        shape_matched = False if new_reps else None
        if new_reps and pattern is not None:
            allowed = dict(pattern)
            pure_cols = [col for col, (e, m) in enumerate(layout)
                         if allowed.get(groups[e]) == (sum(m[:g]), sum(m[g:]))]
            pure = [{pure_cols[local]: c for local, c in v.items()}
                    for v in left_kernel([rows[col] for col in pure_cols], len(columns))]
            shape_matched = RowEliminator(len(layout), lifted_rows + pure).rank == kernel_dim
        records[degree] = {
            "degree": degree, "kernel_dim": kernel_dim, "from_lower_dim": from_lower_dim,
            "minimal_count": len(new_reps), "shape_name": shape_name,
            "shape_matched": shape_matched,
            "representatives": [_vectors_to_polys(ideal, layout, v) for v in new_reps]}
    return records


def _vectors_to_polys(ideal, layout, vec):
    """Repackage a kernel vector as one coefficient WPoly per generator."""
    g = ideal.g
    per_gen = {}
    for col, c in vec.items():
        e, m = layout[col]
        per_gen.setdefault(e, {})[m] = c
    n_gens = len(ideal.generators())
    return [WPoly(g, per_gen.get(e, {})) for e in range(n_gens)]
