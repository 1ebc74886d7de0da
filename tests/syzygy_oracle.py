"""The first-syzygy loop `ribbonlab.xg.syzygies_by_degree` ran before its
counts became ranks, kept as a test-only oracle.

`all_kernels_syzygies` builds the full left kernel of the generator
multiples in every degree and greedily reduces every kernel vector against
the monomial multiples of the lower-degree representatives, which it lifts
through the per-degree layouts it keeps.  It returns the records as plain
dicts of the seven `SyzygyRecord` fields.  Only the elimination engine and
the matrix builder are shared with the code it checks.
"""

from ribbonlab.exact import RowEliminator, left_kernel
from ribbonlab.poly import WPoly, monomials
from ribbonlab.xg import SYZYGY_SHAPE_TABLES, generator_multiples

FIELDS = ("degree", "kernel_dim", "from_lower_dim", "minimal_count",
          "shape_name", "shape_matched", "representatives")


def record_fields(record):
    """The seven fields of a SyzygyRecord as a dict."""
    return {name: getattr(record, name) for name in FIELDS}


def all_kernels_syzygies(ideal, max_degree, shape_table="ribbon"):
    g = ideal.g
    shapes = SYZYGY_SHAPE_TABLES[shape_table]
    groups = ideal.generator_groups()
    records = {}
    minimal_reps = {}
    layouts = {}
    min_gen_degree = min(p.degree("weighted") for p in ideal.generators())
    for degree in range(min_gen_degree + 1, max_degree + 1):
        layout, rows, columns = generator_multiples(ideal.generators(), degree,
                                                    "weighted")
        kernel = left_kernel(rows, len(columns))
        layouts[degree] = layout
        index_to = {col_key: i for i, col_key in enumerate(layout)}
        lifted_rows = []
        for lower_degree, reps in minimal_reps.items():
            shift = degree - lower_degree
            lower_layout = layouts[lower_degree]
            for m_extra in monomials(g, shift, "weighted"):
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


def _vectors_to_polys(ideal, layout, vec):
    """Repackage a kernel vector as one coefficient WPoly per generator."""
    g = ideal.g
    per_gen = {}
    for col, c in vec.items():
        e, m = layout[col]
        per_gen.setdefault(e, {})[m] = c
    n_gens = len(ideal.generators())
    return [WPoly(g, per_gen.get(e, {})) for e in range(n_gens)]
