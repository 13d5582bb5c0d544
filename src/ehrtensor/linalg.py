"""Exact linear algebra helpers over Z for small matrices.

Plain list-of-lists matrices of ints.  One fraction-free Gauss-Jordan
elimination (Bareiss) on integer rows, :func:`_reduce`, serves inversion and
affine bases; an inverse is an integer matrix over one common denominator,
and its rows give a simplex's facet planes
(:func:`~ehrtensor.polytopes.barycentric_facets`).
Pivoting is "first nonzero": matrices here are tiny (d <= 5 or so) and
exactness is the only requirement.
"""
from __future__ import annotations

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

