"""Exact linear algebra helpers over Z for small matrices.

Plain list-of-lists matrices of ints.  One fraction-free Gauss-Jordan
elimination (Bareiss) on integer rows serves inversion, integer normals and
affine bases; an inverse is an integer matrix over one common denominator.
Determinants take only its forward half.
Pivoting is "first nonzero": matrices here are tiny (d <= 5 or so) and
exactness is the only requirement.
"""
from __future__ import annotations

import math
from typing import Sequence


class SingularMatrixError(ValueError):
    pass


def _reduce(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan (Bareiss) of an integer matrix: ``(rows, pivots, det)``.

    Pivots on the first nonzero entry of each column until every row has one;
    each step sets every other row to ``(p * row - f * top) // prev``, which is
    exact and keeps every entry a minor of the input.  A row with f = 0 is only
    rescaled by p / prev, and kept as it is when p = prev.  Every pivot entry
    ends equal to the last one; ``det`` is the minor on the pivot columns,
    signed by the row swaps, or 0 when some row has no pivot.
    """
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(ncols):
        k = len(pivots)
        if k == len(m):
            break
        for piv in range(k, len(m)):
            if m[piv][col]:
                break
        else:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top = m[k]
        p = top[col]
        for r, row in enumerate(m):
            if r == k:
                continue
            f = row[col]
            if f:
                m[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                m[r] = [p * x // prev for x in row]
        prev = p
        pivots.append(col)
    return m, pivots, sign * prev if len(pivots) == len(m) else 0


def int_inverse(a: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """``(m, D)`` with integer m, ``D = |det a| > 0`` and ``a^-1 = m / D``.

    Reduces ``[a | I]``; raises :class:`SingularMatrixError` when a is singular
    and ``TypeError`` on a non-``int`` entry, which :func:`_reduce` would floor.
    """
    n = len(a)
    if any(type(x) is not int for row in a for x in row):
        raise TypeError("int_inverse needs int entries")
    rows, pivots, _ = _reduce([list(row) + [int(i == j) for j in range(n)]
                               for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("singular matrix")
    sign = -1 if rows and rows[0][0] < 0 else 1
    return [[sign * x for x in row[n:]] for row in rows], sign * rows[0][0] if rows else 1


def int_det(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix.

    The forward half of :func:`_reduce`'s elimination: each step clears the
    pivot column below the pivot only, ``(p * row - f * top) // prev`` on the
    columns right of it, so the rows shrink by one entry per step and the
    last pivot, signed by the row swaps, is the determinant.
    """
    m = list(a)
    sign, prev = 1, 1
    while m:
        for piv, row in enumerate(m):
            if row[0]:
                break
        else:
            return 0
        if piv:
            m[0], m[piv] = m[piv], m[0]
            sign = -sign
        p, *top = m[0]
        m = [[(p * x - f * y) // prev for x, y in zip(rest, top)] for f, *rest in m[1:]]
        prev = p
    return sign * prev


def gcd_vector(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = math.gcd(g, x)
    return g


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (sign kept)."""
    g = gcd_vector(v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in v)


def generalized_cross(vectors: Sequence[Sequence[int]], dim: int) -> tuple[int, ...]:
    """Integer normal to d-1 vectors in Z^d: entry j is (-1)^j times the minor without column j.

    It is the null vector of the reduced vectors with ``(-1)^j det`` at their
    one non-pivot column j; (1,) for d = 1, zero iff the vectors are dependent.
    """
    if len(vectors) != dim - 1:
        raise ValueError(f"need {dim - 1} vectors in dimension {dim}")
    rows, pivots, det = _reduce(vectors)
    if det == 0:
        return (0,) * dim
    j = next(c for c in range(dim) if c not in pivots)
    normal = [0] * dim
    normal[j] = (-1) ** j * det
    for row, c in zip(rows, pivots):
        normal[c] = -row[j] * normal[j] // row[c]
    return tuple(normal)


def cross2(o: Sequence[int], a: Sequence[int], b: Sequence[int]) -> int:
    """2D cross product (a - o) x (b - o); sign gives orientation."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def affine_basis(points: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """0, then each point whose difference from ``points[0]`` is independent of the
    earlier ones: the pivot columns of the matrix with those differences as columns."""
    if not points:
        return ()
    origin = points[0]
    cols = [[p[i] - origin[i] for p in points[1:]] for i in range(len(origin))]
    return (0,) + tuple(c + 1 for c in _reduce(cols)[1])

