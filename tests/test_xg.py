import random
from fractions import Fraction

import pytest

from ribbonlab.conormal import LambdaFunctional, phi_d, ribbon_slice
from ribbonlab.exact import _find, left_kernel, row_space_matrix, sparse_kernel_basis, sparse_rank
from ribbonlab.families import constant_family
from ribbonlab.poly import BinaryForm, WPoly, monomials, quartic_lift, veronese_pullback
from ribbonlab.rnc import IdealSlice, hankel_generators, ideal_slice
from ribbonlab import xg
from ribbonlab.xg import (
    XgIdeal,
    buchberger,
    canonical_ribbon_ideal,
    certify_groebner,
    eliminate_v_degree,
    generator_multiples,
    hilbert_function,
    hyperelliptic_model,
    random_ribbon_ell,
    ribbon_ell,
    ribbon_ell_space,
    split_ribbon_evaluation,
    split_ribbon_ideal,
    syzygies_by_degree,
    uu_base_poly,
    uu_keys,
    uv_base_poly,
    uv_keys,
    vv_base_poly,
    vv_keys,
)

from groebner_oracle import all_pairs_criterion, completed_buchberger, full_scan_normal_count
from syzygy_oracle import all_kernels_syzygies, record_fields
from test_exact import dense_kernel, dense_rref, to_dense


def u(g, i):
    return WPoly.u_var(g, i)


def v(g, j):
    return WPoly.v_var(g, j)


def split_ribbon_contains(p):
    if not p.terms:
        return True
    first, second = split_ribbon_evaluation(p)
    return first.is_zero() and second.is_zero()


def random_ell(g, rng, bound=3):
    """Random unconstrained v-linear forms aligned with uu_keys(g).

    Arbitrary corrections generally do NOT give a ribbon: the subscheme they
    cut out can be smaller than a ribbon in low degrees.
    """
    out = []
    for _ in uu_keys(g):
        terms = {}
        for j in range(g - 2):
            c = rng.randint(-bound, bound)
            if c:
                e = [0] * (2 * g - 2)
                e[g + j] = 1
                terms[tuple(e)] = Fraction(c)
        out.append(WPoly(g, terms))
    return out


def syzygy_ell_space(g):
    """Oracle: the admissible corrections, from the linear syzygies of the split model.

    A correction list ell is admissible iff for every linear syzygy
    sum_e sigma_e (uu)_{0,e} + (uv-part) = 0 of the split equations, the
    combination sum_e sigma_e ell_e lies in the span of the UV relations;
    otherwise new degree-3 elements appear and the subscheme is smaller
    than a ribbon.  Degree 4 and higher impose nothing extra because the
    VV group spans all v-quadratics.  Returns the canonical rref basis.
    """
    split = split_ribbon_ideal(g)
    layout, rows, columns = generator_multiples(split.generators(), 3, "weighted")
    kernel = left_kernel(rows, len(columns))
    nuu = len(split.UU)
    nv = g - 2
    nz = nuu * nv
    uv_gens = [p for _, p in split.UV]
    uv_monos = [(i, n) for i in range(g) for n in range(nv)]
    mono_idx = {m: t for t, m in enumerate(uv_monos)}
    conditions = []
    for vec in kernel:
        sigma = {}
        for col, c in vec.items():
            e, m = layout[col]
            if e < nuu:
                i = next(t for t in range(g) if m[t])
                sigma.setdefault(e, {})[i] = c
        if sigma:
            conditions.append(sigma)
    ny = len(uv_gens)
    total = nz + len(conditions) * ny
    eqs = []
    for r, sigma in enumerate(conditions):
        block = [{} for _ in uv_monos]
        for e, lin in sigma.items():
            for i, c in lin.items():
                for n in range(nv):
                    row = block[mono_idx[(i, n)]]
                    row[e * nv + n] = row.get(e * nv + n, 0) + c
        for f, gen in enumerate(uv_gens):
            ycol = nz + r * ny + f
            for exp, c in gen.terms.items():
                i = next(t for t in range(g) if exp[t])
                n = next(t for t in range(nv) if exp[g + t])
                row = block[mono_idx[(i, n)]]
                row[ycol] = row.get(ycol, 0) - c
        eqs.extend(block)
    zvecs = [{c: v for c, v in vec.items() if c < nz}
             for vec in sparse_kernel_basis(eqs, total)]
    out = []
    for row in row_space_matrix(zvecs, nz):
        row = to_dense(row, nz)
        ell = []
        for e in range(nuu):
            terms = {}
            for n in range(nv):
                if row[e * nv + n]:
                    exp = [0] * (2 * g - 2)
                    exp[g + n] = 1
                    terms[tuple(exp)] = row[e * nv + n]
            ell.append(WPoly(g, terms))
        out.append(ell)
    return out


def test_generator_group_sizes():
    for g in range(3, 8):
        ideal = split_ribbon_ideal(g)
        assert len(ideal.UU) == (g - 1) * (g - 2) // 2
        assert len(ideal.UV) == (g - 1) * (g - 3)
        assert len(ideal.VV) == (g - 2) * (g - 1) // 2
        for p in ideal.generators():
            assert p.is_homogeneous("weighted")
    with pytest.raises(ValueError):
        split_ribbon_ideal(2)


def test_small_genus_generators_explicit():
    i3 = split_ribbon_ideal(3)
    assert [p for _, p in i3.UU] == [u(3, 0) * u(3, 2) - u(3, 1) * u(3, 1)]
    assert i3.UV == []
    assert [p for _, p in i3.VV] == [v(3, 0) * v(3, 0)]

    i4 = split_ribbon_ideal(4)
    assert [p for _, p in i4.UV] == [
        u(4, 0) * v(4, 1) - u(4, 1) * v(4, 0),
        u(4, 1) * v(4, 1) - u(4, 2) * v(4, 0),
        u(4, 2) * v(4, 1) - u(4, 3) * v(4, 0),
    ]


def test_uu_group_spans_quadric_slice():
    # the degree-2 u-part must be exactly the curve's quadric space
    for g in range(3, 7):
        polys = [p for _, p in split_ribbon_ideal(g).UU]
        assert IdealSlice.from_polys(g, 2, polys) == ideal_slice(g, 2)


def test_membership_oracle_on_generator_multiples():
    rng = random.Random(7)
    for g in (3, 4, 5):
        ideal = split_ribbon_ideal(g)
        for p in ideal.generators():
            assert split_ribbon_contains(p)
            m = WPoly.u_monomial(g, [rng.randrange(g), rng.randrange(g)])
            assert split_ribbon_contains(m * p)
            assert split_ribbon_contains(v(g, rng.randrange(g - 2)) * p)


def test_membership_oracle_rejects():
    g = 4
    assert not split_ribbon_contains(u(g, 0) * u(g, 0))
    assert not split_ribbon_contains(v(g, 0))
    assert not split_ribbon_contains(u(g, 2) * v(g, 1))
    first, second = split_ribbon_evaluation(u(g, 1))
    assert first == BinaryForm.monomial(g - 1, 1)
    assert second.is_zero()


def test_hilbert_function_split():
    for g in range(3, 7):
        ideal = split_ribbon_ideal(g)
        values = hilbert_function(ideal, "weighted", range(7))
        assert values[0] == 1
        assert values[1] == g
        for d in range(2, 7):
            assert values[d] == (2 * d - 1) * (g - 1)


def test_hilbert_function_hyperelliptic_matches_split():
    for g in (3, 4):
        h = BinaryForm.monomial(2 * g + 2, 2 * g + 2) - BinaryForm.monomial(2 * g + 2, 0)
        ideal = hyperelliptic_model(g, h)
        values = hilbert_function(ideal, "weighted", range(2, 6))
        assert values == [(2 * d - 1) * (g - 1) for d in range(2, 6)]


def test_hilbert_function_hyperelliptic_g7():
    g = 7
    rng = random.Random(17)
    h = BinaryForm(2 * g + 2, [rng.randint(-5, 5) for _ in range(2 * g + 3)])
    values = hilbert_function(hyperelliptic_model(g, h), "weighted", range(2, 7))
    assert values == [(2 * d - 1) * (g - 1) for d in range(2, 7)]


def all_multiples_hilbert(ideal, grading, degrees):
    """Test-only oracle: the rank of every generator multiple over the monomials."""
    out = []
    for degree in degrees:
        _, rows, columns = generator_multiples(ideal.generators(), degree, grading)
        out.append(len(columns) - sparse_rank(rows, len(columns)))
    return out


def split_key(e, g):
    """(u count, v count, index sum) of a monomial with a u factor; else e itself."""
    u_part, v_part = e[:g], e[g:]
    if not any(u_part):
        return e
    return (sum(u_part), sum(v_part),
            sum(i * k for i, k in enumerate(u_part)) + sum(j * k for j, k in enumerate(v_part)))


def scaled_v(ideal, t):
    """The model with v_j replaced by t * v_j."""
    g = ideal.g
    return XgIdeal(g, *ideal.mapped(
        lambda name, key, p: WPoly(g, {e: c * t ** sum(e[g:]) for e, c in p.terms.items()})))


def degenerate_forms(g, rng):
    n = 2 * g + 2
    return [BinaryForm(n, [rng.randint(-5, 5) for _ in range(n + 1)]),
            squarefree_h(g),
            BinaryForm.monomial(n, n),
            BinaryForm.monomial(n, n) + BinaryForm.monomial(n, 0),
            BinaryForm(n)]


def test_split_binomials_join_exactly_the_key_classes():
    # the components of the UU and UV multiples are the fibres of the key,
    # and the closed-form count is their number
    for g in range(3, 9):
        split = split_ribbon_ideal(g)
        for grading in ("weighted", "koszul"):
            for degree in range(-2, 7 if g == 8 else 8):
                _, rows, columns = generator_multiples(
                    [p for _, p in split.UU + split.UV], degree, grading)
                parent = {}
                for row in rows:
                    a, b = (_find(parent, c) for c in row)
                    if a != b:
                        parent[a] = b
                pairs = {(_find(parent, c), split_key(e, g)) for c, e in enumerate(columns)}
                roots = {root for root, _ in pairs}
                keys = {key for _, key in pairs}
                assert len(pairs) == len(roots) == len(keys), (g, grading, degree)
                v_weight = 2 if grading == "weighted" else 1
                assert xg._class_count(g, degree, v_weight) == len(keys), (g, grading, degree)


def test_split_quotient_matches_all_multiples():
    rng = random.Random(36)
    for g in range(3, 9):
        degrees = range(-1, 8 if g <= 6 else 7)
        models = [split_ribbon_ideal(g)] + [hyperelliptic_model(g, h)
                                            for h in degenerate_forms(g, rng)]
        for ideal in models:
            assert hilbert_function(ideal, "weighted", degrees) == \
                all_multiples_hilbert(ideal, "weighted", degrees)
        koszul = range(-1, 7 if g <= 5 else 5)
        assert hilbert_function(models[0], "koszul", koszul) == \
            all_multiples_hilbert(models[0], "koszul", koszul)


def test_generic_branch_matches_all_multiples():
    rng = random.Random(37)
    for g in (3, 4, 5):
        ribbon = canonical_ribbon_ideal(g, random_ribbon_ell(g, rng))
        scaled = scaled_v(hyperelliptic_model(g, squarefree_h(g)), Fraction(2, 3))
        for ideal in (ribbon, scaled):
            assert hilbert_function(ideal, "weighted", range(7)) == \
                all_multiples_hilbert(ideal, "weighted", range(7))
        scaled_split = scaled_v(split_ribbon_ideal(g), Fraction(-3))
        assert hilbert_function(scaled_split, "koszul", range(6)) == \
            all_multiples_hilbert(scaled_split, "koszul", range(6))


def test_split_quotient_builds_no_monomial_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("generator_multiples called")

    monkeypatch.setattr(xg, "generator_multiples", refuse)
    assert hilbert_function(hyperelliptic_model(8, squarefree_h(8)), "weighted", [6]) == [77]
    assert hilbert_function(split_ribbon_ideal(5), "koszul", [3]) == [24]


def test_split_quotient_keeps_the_generic_refusals():
    ideal = hyperelliptic_model(4, squarefree_h(4))
    assert hilbert_function(ideal, "weighted", [-3, -1]) == [0, 0]
    with pytest.raises(ValueError, match="unknown grading"):
        hilbert_function(ideal, "lex", [2])
    with pytest.raises(ValueError, match="inhomogeneous in the koszul grading"):
        hilbert_function(ideal, "koszul", [2])
    # a family's coefficients live in Q[pi]/(pi^N), which the rank refuses
    with pytest.raises(TypeError):
        hilbert_function(constant_family(ideal, 3), "weighted", [2])


def per_generator_multiples(gens, degree, grading, columns=None):
    """Test-only oracle: the matrix builder enumerating multipliers once per generator."""
    gens = list(gens)
    if columns is None:
        columns = monomials(gens[0].g, degree, grading) if gens else []
    idx = {e: i for i, e in enumerate(columns)}
    layout, rows = [], []
    for e, gen in enumerate(gens):
        if not gen.is_homogeneous(grading):
            raise ValueError("generator is inhomogeneous in the %s grading" % grading)
        w = gen.degree(grading)
        if w is None or w > degree:
            continue
        terms = list(gen.terms.items())
        for m in monomials(gen.g, degree - w, grading):
            layout.append((e, m))
            rows.append({idx[tuple(a + b for a, b in zip(m, t))]: c for t, c in terms})
    return layout, rows, columns


def test_generator_multiples_matches_per_generator_builder():
    rng = random.Random(29)
    for g in range(3, 7):
        h = BinaryForm(2 * g + 2, [rng.randint(-3, 3) for _ in range(2 * g + 3)])
        models = {"split": split_ribbon_ideal(g),
                  "hyperelliptic": hyperelliptic_model(g, h),
                  "ribbon": canonical_ribbon_ideal(
                      g, ribbon_ell(g, [rng.randint(1, 5) for _ in range(g - 2)]))}
        for name, ideal in models.items():
            gens = ideal.generators()
            for degree in range(2, 7 if g < 6 else 6):
                basis = monomials(g, degree, "weighted")
                v_first = [e for e in basis if any(e[g:])] + [e for e in basis if not any(e[g:])]
                for columns in (None, v_first):
                    assert generator_multiples(gens, degree, "weighted", columns) == \
                        per_generator_multiples(gens, degree, "weighted", columns)
                # v, u_i u_j and v_i v_j all have Koszul degree 2, but the
                # v-linear and u-quartic corrections bend it
                if name == "split":
                    assert generator_multiples(gens, degree, "koszul") == \
                        per_generator_multiples(gens, degree, "koszul")
                else:
                    with pytest.raises(ValueError, match="inhomogeneous"):
                        generator_multiples(gens, degree, "koszul")


def test_hilbert_function_canonical_matches_split():
    rng = random.Random(21)
    for g in (3, 4, 5):
        ideal = canonical_ribbon_ideal(g, random_ribbon_ell(g, rng))
        values = hilbert_function(ideal, "weighted", range(2, 6))
        assert values == [(2 * d - 1) * (g - 1) for d in range(2, 6)]


def test_admissible_correction_space():
    # one parameter per coordinate of the classifying functional
    for g in (3, 4, 5):
        assert len(ribbon_ell_space(g)) == g - 2


def test_ribbon_ell_space_matches_syzygy_oracle():
    for g in range(3, 8):
        assert ribbon_ell_space(g) == syzygy_ell_space(g), g


def test_lambda_dictionary_recovers_lambda():
    # the u-only quadrics of the ribbon with functional lam are killed by
    # psi_2(lam, -) and by no other direction: solving psi_2(mu, x) = 0 for mu
    # over them gives back the line of lam, and its ribbon slice is exactly
    # the eliminated slice, in every degree up to 4
    rng = random.Random(29)
    for g in range(4, 8):
        lam = [Fraction(rng.randint(-4, 4)) for _ in range(g - 2)]
        while not any(lam):
            lam = [Fraction(rng.randint(-4, 4)) for _ in range(g - 2)]
        ideal = canonical_ribbon_ideal(g, ribbon_ell(g, lam))
        rows = []
        for p in eliminate_v_degree(ideal, 2).basis:
            m = phi_d(p, 2)
            for a in range(m.form_degree + 1):
                rows.append([m.row_form(i).coeff(a) for i in range(g - 2)])
        kernel = dense_kernel(rows, g - 2)
        assert len(kernel) == 1, g
        assert (LambdaFunctional(g, kernel[0]).normalized()
                == LambdaFunctional(g, lam).normalized()), g
        for d in (2, 3, 4):
            assert (ribbon_slice(LambdaFunctional(g, lam), g, d)
                    == eliminate_v_degree(ideal, d)), (g, d)


def test_random_ribbon_ell_draws_one_integer_per_coordinate():
    for g in range(3, 8):
        rng, twin = random.Random(g), random.Random(g)
        ell = random_ribbon_ell(g, rng)
        draws = [twin.randint(-5, 5) for _ in range(g - 2)]
        assert rng.getstate() == twin.getstate()
        assert ell == ribbon_ell(g, draws)


def test_random_ribbon_ell_redraws_the_zero_direction():
    # Random(7) draws 0 first, so at g = 3 the split ribbon comes up and is drawn again
    rng, twin = random.Random(7), random.Random(7)
    assert twin.randint(-5, 5) == 0
    ell = random_ribbon_ell(3, rng)
    assert any(ell) and ell == ribbon_ell(3, [twin.randint(-5, 5)])
    assert rng.getstate() == twin.getstate()
    with pytest.raises(ValueError):
        random_ribbon_ell(2, rng)  # no nonzero direction exists below g = 3


def test_arbitrary_correction_can_shrink_the_scheme():
    # with an inadmissible correction, extra degree-3 elements appear and
    # the quotient drops below the ribbon values
    g = 4
    ell = [v(g, 1), WPoly.zero(g), WPoly.zero(g)]
    ideal = canonical_ribbon_ideal(g, ell)
    assert hilbert_function(ideal, "weighted", [3])[0] < 5 * (g - 1)


def test_koszul_grading_guard():
    rng = random.Random(3)
    ell = random_ell(4, rng)
    while all(not e for e in ell):
        ell = random_ell(4, rng)
    with pytest.raises(ValueError):
        hilbert_function(canonical_ribbon_ideal(4, ell), "koszul", [2])
    h = BinaryForm.monomial(10, 10) - BinaryForm.monomial(10, 0)
    with pytest.raises(ValueError):
        hilbert_function(hyperelliptic_model(4, h), "koszul", [2])
    # the split ribbon is homogeneous in both gradings
    assert hilbert_function(split_ribbon_ideal(4), "koszul", [2]) == [12]


def test_v_rescaling_preserves_hilbert_function():
    rng = random.Random(11)
    g = 4
    ell = random_ell(g, rng)
    t = Fraction(5, 3)
    scaled = [e * t for e in ell]
    a = hilbert_function(canonical_ribbon_ideal(g, ell), "weighted", range(6))
    b = hilbert_function(canonical_ribbon_ideal(g, scaled), "weighted", range(6))
    assert a == b


def test_groebner_certificate_split():
    for g in range(3, 7):
        res = certify_groebner(split_ribbon_ideal(g))
        assert res is not None
        assert res.order == "grlex"
        assert res.input_is_groebner
        assert len(res.basis) == len(split_ribbon_ideal(g).generators())


def test_groebner_principal_ideal():
    res = buchberger([u(3, 0) * u(3, 2) - u(3, 1) * u(3, 1)])
    assert res.input_is_groebner


def squarefree_h(g):
    """x0^(2g+2) - x1^(2g+2): its roots are distinct roots of unity."""
    return BinaryForm.monomial(2 * g + 2, 2 * g + 2) - BinaryForm.monomial(2 * g + 2, 0)


def test_buchberger_criterion_on_quadrics():
    # two of the three quadrics at g=4 are not a Groebner basis by themselves
    g = 4
    two = [u(g, 0) * u(g, 2) - u(g, 1) * u(g, 1),
           u(g, 0) * u(g, 3) - u(g, 1) * u(g, 2)]
    three = two + [u(g, 1) * u(g, 3) - u(g, 2) * u(g, 2)]
    for order in ("grlex", "grevlex"):
        res = buchberger(two, order)
        assert not res.input_is_groebner
        assert res.basis == two  # the criterion never completes the basis
        assert buchberger(three, order).input_is_groebner
    assert buchberger(hankel_generators(5), "grlex").input_is_groebner
    assert not buchberger(hankel_generators(5), "grevlex").input_is_groebner


def test_buchberger_criterion_matches_completion_oracle():
    inputs = [hankel_generators(4)[:2]] + [hankel_generators(g) for g in (4, 5, 6)]
    for g in (3, 4, 5):
        inputs += [split_ribbon_ideal(g).generators(),
                   hyperelliptic_model(g, squarefree_h(g)).generators(),
                   canonical_ribbon_ideal(g, ribbon_ell(g, range(1, g - 1))).generators()]
    for gens in inputs:
        for order in ("grlex", "grevlex"):
            _, oracle, _ = completed_buchberger(gens, order)
            assert all_pairs_criterion(gens, order) == oracle
            assert buchberger(gens, order).input_is_groebner == oracle


def test_buchberger_skips_coprime_pairs(monkeypatch):
    built = []
    s_poly = xg._s_poly

    def counting(*args):
        built.append(args[:2])
        return s_poly(*args)

    monkeypatch.setattr(xg, "_s_poly", counting)
    gens = split_ribbon_ideal(7).generators()
    assert len(gens) == 54  # 1431 pairs, 1015 of them with coprime leads
    assert buchberger(gens, "grlex").input_is_groebner
    assert len(built) == 416


def test_hyperelliptic_certificates():
    # at g=3 only grevlex certifies; at g=5 neither order does
    assert certify_groebner(hyperelliptic_model(3, squarefree_h(3))).order == "grevlex"
    assert certify_groebner(hyperelliptic_model(5, squarefree_h(5))) is None


def test_normal_monomial_counts_match_hilbert():
    for g in (3, 4):
        ideal = split_ribbon_ideal(g)
        res = certify_groebner(ideal)
        for grading, top in (("koszul", 7), ("weighted", 6)):
            hf = hilbert_function(ideal, grading, range(top + 1))
            counts = [res.normal_monomial_count(d, grading) for d in range(top + 1)]
            assert counts == hf


def test_normal_monomial_count_matches_full_scan():
    for g in range(3, 9):
        res = certify_groebner(split_ribbon_ideal(g))
        leads = res.leading_exponents()
        for grading in ("koszul", "weighted"):
            for d in range(8):
                assert (res.normal_monomial_count(d, grading)
                        == full_scan_normal_count(leads, g, d, grading))


def test_normal_quadratic_monomial_patterns():
    for g in (4, 5):
        res = certify_groebner(split_ribbon_ideal(g))
        leads = res.leading_exponents()
        normal = {e for e in monomials(g, 2, "koszul")
                  if not any(all(a >= b for a, b in zip(e, lead)) for lead in leads)}
        for i in range(g - 1):
            e = [0] * (2 * g - 2)
            e[i] += 1
            e[i + 1] += 1
            assert tuple(e) in normal
        for i in range(g):
            e = [0] * (2 * g - 2)
            e[i] += 1
            e[g] += 1
            assert tuple(e) in normal


def _check_records_are_syzygies(ideal, records):
    gens = ideal.generators()
    for rec in records.values():
        for rep in rec.representatives:
            total = WPoly.zero(ideal.g)
            for coeff, gen in zip(rep, gens):
                total = total + coeff * gen
            assert not total


def test_syzygies_split_g3():
    ideal = split_ribbon_ideal(3)
    records = syzygies_by_degree(ideal, 7)
    assert [records[d].minimal_count for d in range(3, 8)] == [0, 0, 0, 1, 0]
    assert records[6].kernel_dim == 1
    # the complete intersection's only syzygy mixes coefficient degrees,
    # so the v(vv)0 schematic shape cannot account for it
    assert records[6].shape_matched is False
    _check_records_are_syzygies(ideal, records)


def test_syzygies_split_g4():
    ideal = split_ribbon_ideal(4)
    records = syzygies_by_degree(ideal, 6)
    assert {d: records[d].minimal_count for d in records} == {3: 2, 4: 6, 5: 6, 6: 2}
    assert all(records[d].shape_matched for d in (3, 4, 5, 6))
    _check_records_are_syzygies(ideal, records)


def test_syzygies_hyperelliptic_g3():
    h = BinaryForm.monomial(8, 8) - BinaryForm.monomial(8, 0)
    ideal = hyperelliptic_model(3, h)
    records = syzygies_by_degree(ideal, 7, shape_table="hyperelliptic")
    # two coprime generators: the Koszul pair in degree 6 is everything
    assert [records[d].minimal_count for d in range(3, 8)] == [0, 0, 0, 1, 0]
    assert records[5].kernel_dim == 0
    assert records[6].shape_matched is False
    _check_records_are_syzygies(ideal, records)


def syzygy_models():
    """(name, ideal, max_degree, shape table) of the split, hyperelliptic and
    canonical-ribbon models at g=3, 4 (degree <= 7) and g=5 (degree <= 6)."""
    for g, max_degree in ((3, 7), (4, 7), (5, 6)):
        rng = random.Random(g)
        h = BinaryForm(2 * g + 2, [rng.randint(-5, 5) for _ in range(2 * g + 3)])
        yield "split", split_ribbon_ideal(g), max_degree, "ribbon"
        yield "hyperelliptic", hyperelliptic_model(g, h), max_degree, "hyperelliptic"
        if g < 5:
            ribbon = canonical_ribbon_ideal(g, random_ribbon_ell(g, rng))
            yield "ribbon", ribbon, max_degree, "ribbon"
    # a random functional at g=5 costs the oracle about 10 s; the unit
    # functionals cover both catalecticant ranks
    for k, ell in enumerate(ribbon_ell_space(5)):
        yield "ribbon e_%d" % k, canonical_ribbon_ideal(5, ell), 6, "ribbon"


def test_syzygy_records_match_the_all_kernels_oracle():
    for name, ideal, max_degree, table in syzygy_models():
        records = syzygies_by_degree(ideal, max_degree, table)
        got = {d: record_fields(rec) for d, rec in records.items()}
        assert got == all_kernels_syzygies(ideal, max_degree, table), (name, ideal.g)


def _kernel_table(records):
    return {d: (rec.kernel_dim, rec.minimal_count) for d, rec in records.items()}


def test_canonical_ribbon_syzygy_tables():
    for seed in range(3):
        ell = random_ribbon_ell(4, random.Random(seed))
        records = syzygies_by_degree(canonical_ribbon_ideal(4, ell), 7)
        assert _kernel_table(records) == {3: (2, 2), 4: (14, 6), 5: (51, 3),
                                          6: (139, 0), 7: (313, 0)}
        _check_records_are_syzygies(canonical_ribbon_ideal(4, ell), records)
    space = ribbon_ell_space(5)
    records = syzygies_by_degree(canonical_ribbon_ideal(5, space[1]), 6)
    assert _kernel_table(records) == {3: (8, 8), 4: (61, 21), 5: (249, 0), 6: (758, 0)}
    # e_0 and e_2 have catalecticant rank 1: six more minimal syzygies in degree 5
    for k in (0, 2):
        records = syzygies_by_degree(canonical_ribbon_ideal(5, space[k]), 6)
        assert _kernel_table(records) == {3: (8, 8), 4: (61, 21), 5: (249, 6),
                                          6: (758, 0)}


def test_syzygies_build_no_kernel_without_a_minimal_syzygy(monkeypatch):
    ideal = canonical_ribbon_ideal(4, random_ribbon_ell(4, random.Random(1)))
    calls = []

    def counting_left_kernel(rows, ncols):
        calls.append(len(rows))
        return left_kernel(rows, ncols)

    monkeypatch.setattr(xg, "left_kernel", counting_left_kernel)
    counts = {}
    for max_degree in (5, 7):
        calls.clear()
        records = syzygies_by_degree(ideal, max_degree)
        counts[max_degree] = len(calls)
    # degrees 6 and 7 have no minimal syzygy, so they build no kernel
    assert [records[d].minimal_count for d in (6, 7)] == [0, 0]
    assert counts[7] == counts[5]


def test_eliminate_v_canonical_g3():
    conic = u(3, 0) * u(3, 2) - u(3, 1) * u(3, 1)
    ideal = canonical_ribbon_ideal(3, [v(3, 0)])
    slices = [eliminate_v_degree(ideal, d) for d in range(5)]
    assert [s.dim for s in slices] == [0, 0, 0, 0, 1]
    assert slices[4] == IdealSlice.from_polys(3, 4, [conic * conic])


def test_eliminate_v_split_gives_quadric_slice():
    for g in (3, 4, 5):
        assert eliminate_v_degree(split_ribbon_ideal(g), 2) == ideal_slice(g, 2)


def test_hyperelliptic_g3_example():
    h = BinaryForm.monomial(8, 8) + BinaryForm.monomial(8, 0)
    ideal = hyperelliptic_model(3, h)
    expected = (v(3, 0) * v(3, 0)
                - WPoly.u_monomial(3, [2, 2, 2, 2])
                - WPoly.u_monomial(3, [0, 0, 0, 0]))
    assert [p for _, p in ideal.VV] == [expected]


def _pure_u(p):
    return WPoly(p.g, {e: c for e, c in p.terms.items() if not any(e[p.g:])})


def test_hyperelliptic_lift_round_trip():
    g = 4
    h = (BinaryForm.monomial(10, 10) + 3 * BinaryForm.monomial(10, 4)
         - BinaryForm.monomial(10, 0))
    ideal = hyperelliptic_model(g, h)
    for (i, j), p in ideal.VV:
        p_ij = _pure_u(p).map_coeffs(lambda c: -c)
        shifted = BinaryForm.monomial(2 * g - 6, i + j) * h
        assert veronese_pullback(p_ij) == shifted


def test_hyperelliptic_zero_h_is_split():
    g = 4
    zero_h = BinaryForm(2 * g + 2)
    assert hyperelliptic_model(g, zero_h).generators() == \
        split_ribbon_ideal(g).generators()
    with pytest.raises(ValueError):
        hyperelliptic_model(g, BinaryForm.monomial(4, 0))


def per_key_model(g, ell=None, h=None):
    """The canonical ribbon (ell) or hyperelliptic model (h), built key by key.

    UU_k = uu_base_poly(g, k) - ell_k and VV_ij = vv_base_poly(g, (i, j)) -
    quartic_lift(x0^(i+j) x1^(2g-6-i-j) h); every other generator is its base
    polynomial.
    """
    uu = [(k, uu_base_poly(g, k) - (WPoly.zero(g) if ell is None else ell[t]))
          for t, k in enumerate(uu_keys(g))]
    vv = [((i, j), vv_base_poly(g, (i, j))) for i, j in vv_keys(g)]
    if h is not None:
        vv = [((i, j), p - quartic_lift(BinaryForm.monomial(2 * g - 6, i + j) * h, g))
              for (i, j), p in vv]
    return XgIdeal(g, uu, [(k, uv_base_poly(g, k)) for k in uv_keys(g)], vv)


def test_models_match_the_per_key_oracle():
    rng = random.Random(29)
    for g in range(3, 7):
        assert split_ribbon_ideal(g) == per_key_model(g)
        for ell in (random_ribbon_ell(g, rng), random_ell(g, rng)):
            assert canonical_ribbon_ideal(g, ell) == per_key_model(g, ell=ell)
        h = BinaryForm(2 * g + 2, [rng.randint(-5, 5) for _ in range(2 * g + 3)])
        assert hyperelliptic_model(g, h) == per_key_model(g, h=h)


def test_xg_ideal_json_round_trip():
    rng = random.Random(5)
    ideal = canonical_ribbon_ideal(4, random_ell(4, rng))
    loaded = XgIdeal.from_json(ideal.to_json())
    assert loaded.g == ideal.g
    assert loaded.UU == ideal.UU
    assert loaded.UV == ideal.UV
    assert loaded.VV == ideal.VV


def test_eliminate_v_degree_matches_dense_oracle():
    # dense rows of all generator multiples over v-first columns, textbook
    # rref, and the rows with no v entry: the u-only part of the slice
    rng = random.Random(19)
    for g in (3, 4):
        models = [split_ribbon_ideal(g), canonical_ribbon_ideal(g, random_ribbon_ell(g, rng))]
        for ideal in models:
            for degree in range(2, 6 - (g - 3)):
                basis = monomials(g, degree, "weighted")
                cols = [e for e in basis if any(e[g:])] + [e for e in basis if not any(e[g:])]
                nv = sum(1 for e in basis if any(e[g:]))
                rows = []
                for gen in ideal.generators():
                    w = gen.degree("weighted")
                    if w > degree:
                        continue
                    for m in monomials(g, degree - w, "weighted"):
                        p = WPoly(g, {m: Fraction(1)}) * gen
                        rows.append([p.terms.get(e, Fraction(0)) for e in cols])
                reduced, _ = dense_rref(rows, len(cols))
                want = IdealSlice.from_polys(g, degree, [
                    WPoly(g, {e: c for e, c in zip(cols[nv:], row[nv:]) if c})
                    for row in reduced if not any(row[:nv])])
                assert eliminate_v_degree(ideal, degree) == want, (g, degree)
