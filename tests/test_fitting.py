import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

import ribbonlab
from ribbonlab.exact import RatMatrix
from ribbonlab.fitting import (
    LinFormMatrix,
    minor_for_monomial,
    phi2_symbolic,
    phid_symbolic_blocks,
    symbolic_minor,
    verify_power_ideal,
)


def test_phi2_shapes_and_columns():
    m2 = phi2_symbolic(2)
    assert (m2.nrows, m2.ncols) == (2, 3)
    assert m2.col_labels == ((0, 0), (0, 1), (1, 1))
    # z_0^2 column is z_0 e_0; z_0 z_1 column is z_1 e_0 + z_0 e_1
    assert m2.entries == ((0, 1, None), (None, 0, 1))

    m1 = phi2_symbolic(1)
    assert (m1.nrows, m1.ncols) == (1, 1)
    assert m1.entries == ((0,),)

    assert (phi2_symbolic(3).nrows, phi2_symbolic(3).ncols) == (3, 6)


def test_block_matrix_layout():
    b = phid_symbolic_blocks(2, 2)
    assert (b.nrows, b.ncols) == (2, 4)
    assert b.col_labels == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert b.entries == ((0, None, 1, None), (None, 0, None, 1))
    row = phid_symbolic_blocks(3, 1)
    assert row.nrows == 1 and row.ncols == 3


def test_minor_examples():
    m2 = phi2_symbolic(2)
    labels, det = minor_for_monomial(m2, (1, 1))
    assert labels == [(0, 0), (1, 1)]
    assert det == {(1, 1): Fraction(1)}

    labels, det = minor_for_monomial(m2, (2, 0))
    assert labels == [(0, 0), (0, 1)]
    assert set(det) == {(2, 0)} and abs(det[(2, 0)]) == 1

    b = phid_symbolic_blocks(2, 2)
    labels, det = minor_for_monomial(b, (1, 1))
    assert labels == [(0, 0), (1, 1)]
    assert det == {(1, 1): Fraction(1)}


def test_minor_rejects_bad_degree():
    with pytest.raises(ValueError):
        minor_for_monomial(phi2_symbolic(3), (1, 1, 0))
    with pytest.raises(ValueError):
        minor_for_monomial(phi2_symbolic(2), (1, -1))


def test_all_maximal_minors_homogeneous():
    # the containment of the minor ideal in the r-th power needs exactly this
    mat = phi2_symbolic(3)
    for cols in combinations(range(mat.ncols), 3):
        det = symbolic_minor(mat, list(cols))
        for exps in det:
            assert sum(exps) == 3


def test_symbolic_minor_against_numeric_determinant():
    rng = random.Random(13)
    mat = phi2_symbolic(4)
    for _ in range(10):
        cols = sorted(rng.sample(range(mat.ncols), 4))
        det = symbolic_minor(mat, cols)
        z = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        numeric = RatMatrix(
            [[0 if mat.entries[row][col] is None else z[mat.entries[row][col]]
              for col in cols] for row in range(4)], 4).det()
        via_poly = sum(
            (c * _eval_monomial(z, exps) for exps, c in det.items()),
            Fraction(0))
        assert numeric == via_poly


def permutation_minor(matrix, cols):
    """Oracle: the determinant as a signed sum over all r! permutations.

    Each permutation picks one entry per row; with every entry a single
    variable or zero, its term is 0 or +/- the product of those variables.
    """
    total = {}
    for perm in permutations(range(matrix.nrows)):
        picked = [matrix.entries[row][cols[pos]] for row, pos in enumerate(perm)]
        if None in picked:
            continue
        inversions = sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])
        exps = tuple(picked.count(var) for var in range(matrix.m))
        total[exps] = total.get(exps, 0) + (-1) ** inversions
    return {exps: c for exps, c in total.items() if c}


def test_symbolic_minor_matches_permutation_expansion():
    matrices = [phi2_symbolic(m) for m in range(1, 5)]
    matrices += [phid_symbolic_blocks(m, r) for m in range(1, 4) for r in range(1, 5)]
    rng = random.Random(31)
    for r, m in ((2, 2), (3, 2), (3, 3), (4, 3), (5, 2)):
        # random variables, with zero entries and a variable repeated along rows
        entries = [[rng.choice([None, None] + list(range(m))) for _ in range(r + 2)]
                   for _ in range(r)]
        matrices.append(LinFormMatrix(m, entries, "random", range(r + 2)))
    checked = 0
    for mat in matrices:
        for cols in combinations(range(mat.ncols), mat.nrows):
            det = symbolic_minor(mat, list(cols))
            assert det == permutation_minor(mat, cols), cols
            assert all(type(c) is int for c in det.values())
            checked += 1
    assert checked == 995


def _eval_monomial(z, exps):
    out = Fraction(1)
    for var, a in enumerate(exps):
        out *= z[var] ** a
    return out


def test_verify_power_ideal_small():
    for m in (1, 2, 3):
        report = verify_power_ideal(m, m, "phi2")
        assert report["all_realized"]
        # every degree-m monomial in m variables, each once
        assert report["monomials_checked"] == comb(2 * m - 1, m)
        assert len({tuple(w["monomial"]) for w in report["witnesses"]}) == comb(2 * m - 1, m)
        for w in report["witnesses"]:
            assert w["sign"] in (1, -1)
    report = verify_power_ideal(2, 3, "blocks")
    assert report["all_realized"]
    assert all(w["sign"] == 1 for w in report["witnesses"])


def test_verify_power_ideal_guards():
    with pytest.raises(ValueError):
        verify_power_ideal(3, 2, "phi2")
    with pytest.raises(ValueError):
        verify_power_ideal(2, 2, "nope")


def test_entries_must_be_linear():
    # an entry is one variable index in range(m) or None for zero
    LinFormMatrix(2, [[0, None, 1]], "random", range(3))
    for bad in (2, -1, (1, 0), 0.5, True, "0"):
        with pytest.raises(ValueError, match="entry %s is not" % re.escape(repr(bad))):
            LinFormMatrix(2, [[0, bad]], "random", range(2))


def test_power_ideal_check_survives_python_O():
    # python -O strips assert statements; the check must still see bad minors
    script = ("import ribbonlab.fitting as f\n"
              "exact = f.symbolic_minor\n"
              "f.symbolic_minor = lambda m, cols: {e: 2 * c for e, c in exact(m, cols).items()}\n"
              "print(f.verify_power_ideal(3, 3, 'phi2')['all_realized'])\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ribbonlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
