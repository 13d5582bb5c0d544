"""Exact linear algebra helpers: solve, determinants, rank, lattices."""
from fractions import Fraction
from itertools import combinations, permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrtensor import linalg

F = Fraction


def test_solve_exact():
    x = linalg.solve([[2, 1], [1, 3]], [5, 10])
    assert x == [F(1), F(3)]


def test_solve_singular_raises():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.solve([[1, 2], [2, 4]], [1, 1])


def test_invert_round_trip():
    a = [[2, 1, 0], [1, 3, 1], [0, 1, 1]]
    inv = linalg.invert(a)
    for i in range(3):
        for j in range(3):
            s = sum(a[i][k] * inv[k][j] for k in range(3))
            assert s == (1 if i == j else 0)


def leibniz_det(a):
    """Determinant as the signed sum over permutations (sign by inversion count)."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(a[i][perm[i]] for i in range(n))
    return total


def test_det_matches_int_det():
    cases = [[[3]], [[1, 2], [3, 4]], [[2, 0, 1], [1, 1, 1], [0, 3, 1]],
             [[1, 2, 3], [2, 4, 6], [0, 1, 1]]]
    for m in cases:
        assert leibniz_det(m) == linalg.int_det(m)


def _int_matrices(rows, cols):
    return st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


square_matrices = st.integers(1, 5).flatmap(lambda n: _int_matrices(n, n))
matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: _int_matrices(*shape))


@settings(max_examples=200, deadline=None)
@given(square_matrices, st.lists(st.integers(-3, 3), min_size=5, max_size=5))
def test_square_reductions_agree_with_bareiss(a, b):
    n = len(a)
    b = b[:n]
    assert leibniz_det(a) == linalg.int_det(a)
    if linalg.int_det(a) == 0:
        with pytest.raises(linalg.SingularMatrixError):
            linalg.invert(a)
        with pytest.raises(linalg.SingularMatrixError):
            linalg.solve(a, b)
        return
    inv = linalg.invert(a)
    assert all(sum(inv[i][k] * a[k][j] for k in range(n)) == (i == j)
               for i in range(n) for j in range(n))
    x = linalg.solve(a, b)
    assert all(sum(row[j] * x[j] for j in range(n)) == rhs for row, rhs in zip(a, b))


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_rank_is_largest_nonsingular_minor(a):
    rows, cols = len(a), len(a[0])
    largest = max((k for k in range(1, min(rows, cols) + 1)
                   for r in combinations(range(rows), k) for c in combinations(range(cols), k)
                   if linalg.int_det([[a[i][j] for j in c] for i in r])), default=0)
    assert linalg.rank(a) == largest


def test_bareiss_determinant_values():
    assert linalg.int_det([[1, 2], [3, 4]]) == -2
    assert linalg.int_det([]) == 1
    assert linalg.int_det([[0, 1], [1, 0]]) == -1


def test_rank():
    assert linalg.rank([[1, 2, 3], [2, 4, 6]]) == 1


def test_generalized_cross_orthogonal():
    vecs = [(1, 2, 0), (0, 1, 1)]
    n = linalg.generalized_cross(vecs, 3)
    assert all(sum(a * b for a, b in zip(n, v)) == 0 for v in vecs)
    assert linalg.generalized_cross([], 1) == (1,)


def test_primitive():
    assert linalg.primitive((4, -6, 8)) == (2, -3, 4)
    with pytest.raises(ValueError):
        linalg.primitive((0, 0))


def test_affine_rank():
    assert linalg.affine_rank([(0, 0), (1, 1), (2, 2)]) == 1
    assert linalg.affine_rank([(0, 0), (1, 0), (0, 1)]) == 2
    assert linalg.affine_rank([(5, 5)]) == 0


def test_smith_left_transform_properties():
    cases = [
        [[1, 0], [0, 1], [1, 2]],
        [[2, 0], [0, 3], [0, 0]],
        [[1, -1], [1, 2], [2, 1]],      # index-3 column lattice
        [[3, 1, 4], [1, 5, 9], [2, 6, 5]],
    ]
    for m in cases:
        rows, cols = len(m), len(m[0])
        u, s = linalg.smith_unimodular_left(m)
        assert abs(linalg.int_det(u)) == 1
        # s is diagonal up to rank and u recovers the column space
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
        # saturation: every column of m is an integer combination of the
        # first rank columns of u
        rk = sum(1 for i in range(min(rows, cols)) if s[i][i] != 0)
        basis = [[u[i][k] for i in range(rows)] for k in range(rk)]
        for j in range(cols):
            col = [m[i][j] for i in range(rows)]
            gram = [[sum(basis[a][i] * basis[b][i] for i in range(rows))
                     for b in range(rk)] for a in range(rk)]
            rhs = [sum(basis[a][i] * col[i] for i in range(rows)) for a in range(rk)]
            sol = linalg.solve(gram, rhs)
            assert all(x.denominator == 1 for x in sol)
            recon = [sum(int(sol[a]) * basis[a][i] for a in range(rk))
                     for i in range(rows)]
            assert recon == col
