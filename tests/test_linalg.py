"""Exact linear algebra helpers: determinants, inverses, rank, affine bases."""
import random
from fractions import Fraction
from itertools import combinations
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrtensor import linalg
from ehrtensor.polytopes import DegenerateInputError, convex_hull

from conftest import fraction_inverse, fraction_rref, leibniz_det


def test_invert_round_trip():
    a = [[2, 1, 0], [1, 3, 1], [0, 1, 1]]
    m, dabs = linalg.int_inverse(a)
    assert dabs == 3
    for i in range(3):
        for j in range(3):
            s = sum(a[i][k] * m[k][j] for k in range(3))
            assert s == (dabs if i == j else 0)


def test_reduce_det_matches_leibniz():
    cases = [[[3]], [[1, 2], [3, 4]], [[2, 0, 1], [1, 1, 1], [0, 3, 1]],
             [[1, 2, 3], [2, 4, 6], [0, 1, 1]]]
    for m in cases:
        assert leibniz_det(m) == linalg._reduce(m)[2]


def _int_matrices(rows, cols):
    return st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


square_matrices = st.integers(1, 5).flatmap(lambda n: _int_matrices(n, n))
matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: _int_matrices(*shape))


@settings(max_examples=200, deadline=None)
@given(square_matrices)
def test_square_reductions_agree_with_bareiss(a):
    n = len(a)
    det = linalg._reduce(a)[2]
    assert det == leibniz_det(a)
    if det == 0:
        with pytest.raises(linalg.SingularMatrixError):
            linalg.int_inverse(a)
        return
    m, dabs = linalg.int_inverse(a)
    assert dabs == abs(det)
    assert all(sum(a[i][k] * m[k][j] for k in range(n)) == dabs * (i == j)
               for i in range(n) for j in range(n))


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_rank_is_largest_nonsingular_minor(a):
    rows, cols = len(a), len(a[0])
    largest = max((k for k in range(1, min(rows, cols) + 1)
                   for r in combinations(range(rows), k) for c in combinations(range(cols), k)
                   if leibniz_det([[a[i][j] for j in c] for i in r])), default=0)
    assert len(linalg._reduce(a)[1]) == largest


def _low_rank(shape):
    # a rows x cols product through an inner dimension k, so rank <= k
    rows, cols, k = shape
    return st.tuples(_int_matrices(rows, k), _int_matrices(k, cols)).map(
        lambda bc: [[sum(x * y for x, y in zip(row, col)) for col in zip(*bc[1])]
                    for row in bc[0]])


wide_tall_deficient = st.one_of(
    matrices,
    st.tuples(st.integers(1, 3), st.integers(4, 7)).flatmap(lambda s: _int_matrices(*s)),
    st.tuples(st.integers(4, 7), st.integers(1, 3)).flatmap(lambda s: _int_matrices(*s)),
    st.tuples(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2)).flatmap(_low_rank))


@settings(max_examples=300, deadline=None)
@given(wide_tall_deficient)
def test_reduce_over_its_pivot_is_the_fraction_rref(a):
    rows, pivots, det = linalg._reduce(a)
    expected, expected_pivots = fraction_rref(a)
    assert pivots == expected_pivots
    pivot = rows[0][pivots[0]] if pivots else 1
    assert all(row[c] == pivot for row, c in zip(rows, pivots))
    assert [[Fraction(x, pivot) for x in row] for row in rows] == expected
    minor = [[row[c] for c in pivots] for row in a]
    assert det == (leibniz_det(minor) if len(pivots) == len(a) else 0)


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(3), 2.0, True],
                         ids=["fraction", "integral-fraction", "float", "bool"])
def test_int_inverse_refuses_non_int_entries(entry):
    # the floor divisions of _reduce would truncate a Fraction or float silently
    with pytest.raises(TypeError):
        linalg.int_inverse([[2, 1], [entry, 3]])


def forward_affine_basis(pts):
    """First d+1 affinely independent points by forward integer elimination.

    Returns ``(basis, affine_dim)``; the basis is short when the points are
    degenerate.
    """
    d = len(pts[0])
    basis, rows = [0], []       # rows: (pivot column, reduced difference)
    for i, q in enumerate(pts):
        v = [a - b for a, b in zip(q, pts[0])]
        for piv, row in rows:
            if v[piv]:
                v = [row[piv] * x - v[piv] * y for x, y in zip(v, row)]
        piv = next((k for k, x in enumerate(v) if x), None)
        if piv is not None:
            rows.append((piv, v))
            basis.append(i)
            if len(basis) == d + 1:
                break
    return tuple(basis), len(rows)


def _point_sets(d):
    # points in an affine subspace spanned by k random directions
    point = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    return st.integers(0, d).flatmap(lambda k: st.tuples(
        point, st.lists(point, min_size=k, max_size=k),
        st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k), min_size=1, max_size=8)))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(st.just(d), _point_sets(d))))
def test_affine_basis_matches_forward_elimination(case):
    d, (origin, directions, coords) = case
    pts = [tuple(o + sum(c * v[j] for c, v in zip(cs, directions)) for j, o in enumerate(origin))
           for cs in coords]
    basis, affine_dim = forward_affine_basis(pts)
    assert linalg.affine_basis(pts) == basis
    # the hull refuses exactly the short bases, the 2D chain included
    if len(basis) == d + 1:
        assert convex_hull(pts).dim == d
    else:
        with pytest.raises(DegenerateInputError) as err:
            convex_hull(pts)
        assert (err.value.affine_dim, err.value.ambient_dim) == (affine_dim, d)


def _independent(vectors):
    # integer vectors are independent iff their Gram determinant is nonzero
    return not vectors or leibniz_det([[sum(map(mul, u, v)) for v in vectors]
                                       for u in vectors]) != 0


@pytest.mark.parametrize("seed", range(6))
def test_reductions_on_seeded_matrices(seed):
    # every _reduce caller against Fraction inverses and Leibniz determinants,
    # on the sizes the half-open cells and hull starts (lifted simplices) use
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = [[rng.choice((0, 0, 1, -1, 2, -3, 5)) for _ in range(n)] for _ in range(n)]
        det = linalg._reduce(a)[2]
        assert det == leibniz_det(a)
        expected = fraction_inverse(a)
        if det == 0:
            assert expected is None
            with pytest.raises(linalg.SingularMatrixError):
                linalg.int_inverse(a)
        else:
            m, dabs = linalg.int_inverse(a)
            assert dabs == abs(det)
            assert [[Fraction(x, dabs) for x in row] for row in m] == expected
        points = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 8))]
        basis = linalg.affine_basis(points)
        diffs = [[x - y for x, y in zip(q, points[0])] for q in points]
        # greedy: a point joins the basis iff its difference is independent of the earlier ones
        chosen = []
        for i, v in enumerate(diffs[1:], start=1):
            if _independent([diffs[j] for j in chosen] + [v]):
                chosen.append(i)
        assert basis == (0, *chosen)


def test_bareiss_determinant_values():
    assert linalg._reduce([[1, 2], [3, 4]])[2] == -2
    assert linalg._reduce([])[2] == 1
    assert linalg._reduce([[0, 1], [1, 0]])[2] == -1


def test_rank():
    assert len(linalg._reduce([[1, 2, 3], [2, 4, 6]])[1]) == 1


def test_affine_rank():
    assert len(linalg.affine_basis([(0, 0), (1, 1), (2, 2)])) - 1 == 1
    assert len(linalg.affine_basis([(0, 0), (1, 0), (0, 1)])) - 1 == 2
    assert len(linalg.affine_basis([(5, 5)])) - 1 == 0
    assert linalg.affine_basis([]) == ()
