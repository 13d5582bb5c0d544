"""Exact linear algebra helpers over Q and Z for small matrices.

Plain list-of-lists matrices, Fraction arithmetic, no pivoting heuristics
beyond "first nonzero": matrices here are tiny (d <= 5 or so) and exactness
is the only requirement.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


class SingularMatrixError(ValueError):
    pass


def _frac_rows(a) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in a]


def _gauss_jordan(a: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a, pivoting on the first nonzero entry.

    Returns ``(rows, pivots)``: ``pivots[k]`` is the pivot column of row k.
    Stops once every row has a pivot.
    """
    rows = _frac_rows(a)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    for col in range(ncols):
        rk = len(pivots)
        if rk == len(rows):
            break
        piv = next((r for r in range(rk, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = 1 / rows[rk][col]
        rows[rk] = [x * inv for x in rows[rk]]
        for r in range(len(rows)):
            if r != rk and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rk])]
        pivots.append(col)
    return rows, pivots


def solve(a: Sequence[Sequence], b: Sequence) -> list[Fraction]:
    """Solve the square system a x = b exactly; raises if singular."""
    n = len(a)
    rows, pivots = _gauss_jordan([list(row) + [x] for row, x in zip(a, b, strict=True)])
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("singular system")
    return [row[n] for row in rows]


def invert(a: Sequence[Sequence]) -> list[list[Fraction]]:
    """Exact inverse of a square matrix; raises if singular."""
    n = len(a)
    rows, pivots = _gauss_jordan([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError("singular matrix")
    return [row[n:] for row in rows]


def rank(a: Sequence[Sequence]) -> int:
    return len(_gauss_jordan(a)[1])


def int_det(a: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix (fraction-free Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


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
    """Integer normal to d-1 vectors in Z^d via cofactor expansion.

    For d = 1 (no input vectors) returns (1,).  The result is zero iff the
    vectors are linearly dependent.
    """
    if len(vectors) != dim - 1:
        raise ValueError(f"need {dim - 1} vectors in dimension {dim}")
    normal = []
    for j in range(dim):
        minor = [[row[c] for c in range(dim) if c != j] for row in vectors]
        normal.append((-1) ** j * int_det(minor))
    return tuple(normal)


def cross2(o: Sequence[int], a: Sequence[int], b: Sequence[int]) -> int:
    """2D cross product (a - o) x (b - o); sign gives orientation."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def affine_rank(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of a point set."""
    if len(points) <= 1:
        return 0
    origin = points[0]
    diffs = [[p[i] - origin[i] for i in range(len(origin))] for p in points[1:]]
    return rank(diffs)


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
