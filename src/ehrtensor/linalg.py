"""Exact linear algebra helpers over Z (and Q) for small matrices.

Plain list-of-lists matrices.  One fraction-free Gauss-Jordan elimination
(Bareiss) on integer rows serves determinants, solving, inversion,
integer normals and affine bases; rational input is scaled to integer rows
first.  Pivoting is "first nonzero": matrices here are tiny (d <= 5 or so)
and exactness is the only requirement.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


class SingularMatrixError(ValueError):
    pass


def _reduce(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan (Bareiss) of an integer matrix: ``(rows, pivots, det)``.

    Pivots on the first nonzero entry of each column until every row has one;
    each step sets every other row to ``(p * row - f * top) // prev``, which is
    exact and keeps every entry a minor of the input.  Every pivot entry ends
    equal to the last one; ``det`` is the minor on the pivot columns, signed by
    the row swaps, or 0 when some row has no pivot.
    """
    m = [list(row) for row in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(ncols):
        k = len(pivots)
        if k == len(m):
            break
        piv = next((r for r in range(k, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        top = m[k]
        p = top[col]
        for r, row in enumerate(m):
            if r != k:
                f = row[col]
                m[r] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
    return m, pivots, sign * prev if len(pivots) == len(m) else 0


def _integer_rows(a: Sequence[Sequence]) -> list[list[int]]:
    """Each row of a rational matrix times the lcm of its denominators."""
    scales = [math.lcm(*(x.denominator for x in row)) for row in a]
    return [[int(x * k) for x in row] for row, k in zip(a, scales)]


def _divide(a: Sequence[Sequence], rhs: Sequence[Sequence],
            message: str) -> tuple[list[list[int]], int]:
    """``(x, D)`` with ``D > 0`` and ``a^-1 rhs = x / D``, reducing ``[a | rhs]``.

    Raises :class:`SingularMatrixError` with ``message`` when a is singular.
    """
    n = len(a)
    rows, pivots, _ = _reduce(_integer_rows([list(row) + list(b)
                                             for row, b in zip(a, rhs, strict=True)]))
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError(message)
    sign = -1 if rows and rows[0][0] < 0 else 1
    return [[sign * x for x in row[n:]] for row in rows], sign * rows[0][0] if rows else 1


def solve(a: Sequence[Sequence], b: Sequence) -> list[Fraction]:
    """Solve the square system a x = b exactly; raises if singular."""
    x, dabs = _divide(a, [[y] for y in b], "singular system")
    return [Fraction(y, dabs) for y, in x]


def int_inverse(a: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """``(m, D)`` with integer m, ``D > 0`` and ``a^-1 = m / D``; ``D = |det a|`` for integer a."""
    n = len(a)
    return _divide(a, [[int(i == j) for j in range(n)] for i in range(n)], "singular matrix")


def invert(a: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact inverse of a square matrix; raises if singular."""
    m, dabs = int_inverse(a)
    return [[Fraction(x, dabs) for x in row] for row in m]


def int_det(a: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix."""
    return _reduce(a)[2]


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


def affine_rank(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of a point set."""
    return max(len(affine_basis(points)) - 1, 0)


def smith_unimodular_left(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Left transform of the Smith decomposition ``m = u @ s @ v``.

    Returns ``(u, s)`` with ``u`` unimodular and ``s`` diagonal up to rank;
    the right transform is not tracked.  The first ``rank`` columns of ``u``
    are a lattice basis of the saturation
    ``span_Q(columns of m) cap Z^rows``.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    s = [list(map(int, row)) for row in m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]

    def row_op(i, j, c):  # row_i += c * row_j, tracked inversely in u
        for k in range(cols):
            s[i][k] += c * s[j][k]
        # maintaining m = u @ s: compensate with column op on u
        for k in range(rows):
            u[k][j] -= c * u[k][i]

    def row_swap(i, j):
        s[i], s[j] = s[j], s[i]
        for k in range(rows):
            u[k][i], u[k][j] = u[k][j], u[k][i]

    def col_op(i, j, c):  # col_i += c * col_j (right transform, untracked)
        for k in range(rows):
            s[k][i] += c * s[k][j]

    def col_swap(i, j):
        for k in range(rows):
            s[k][i], s[k][j] = s[k][j], s[k][i]

    t = 0
    while t < min(rows, cols):
        # find a pivot
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if s[i][j] != 0:
                    piv = (i, j)
                    break
            if piv:
                break
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        # clear row and column t by gcd reduction
        while True:
            for i in range(t + 1, rows):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    row_op(i, t, -q)
                    if s[i][t] != 0:
                        row_swap(t, i)
            if all(s[i][t] == 0 for i in range(t + 1, rows)):
                for j in range(t + 1, cols):
                    if s[t][j] != 0:
                        q = s[t][j] // s[t][t]
                        col_op(j, t, -q)
                        if s[t][j] != 0:
                            col_swap(t, j)
                if all(s[t][j] == 0 for j in range(t + 1, cols)) \
                        and all(s[i][t] == 0 for i in range(t + 1, rows)):
                    break
            # otherwise loop again
        t += 1
    return u, s
