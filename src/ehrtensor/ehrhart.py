"""Discrete moment tensors and their dilation polynomials.

The rank-r discrete moment of a lattice polytope is the sum of r-fold
symmetric outer powers over its lattice points.  As a function of the
dilation factor n it is a polynomial L(n) of degree at most m = dim + r.

One row scan of nP gives the closed moment L(nP) and the interior moment
L(nP°): every row of the scan contributes its prefix monomials times the
power sums of the last coordinate over its closed and strict intervals,
summed for every rank in one column pass, for only the sides a caller reads
(:func:`~ehrtensor.tensors.row_moments`).
The scan runs in the polytope's own axis order, and a cached plan per
(dim, rank, order) reads the entries straight into the original frame.
0P = {0} needs neither: L(0P) is 1 at rank 0 and 0 above, and 0P° is empty.
The h-tensor vector is the numerator of the moment series,
``sum_n L(nP) t^n = sum_i h_i t^i / (1-t)^(m+1)``, and Ehrhart-Macdonald
reciprocity for moment tensors gives the interior series the reversed
numerator, ``sum_{n>=1} L(nP°) t^n = sum_i h_i t^(m+1-i) / (1-t)^(m+1)``.
So alternating binomial sums of the closed moments give the lower half of h
and those of the interior moments the upper half, from the rows of nP for
n = 1..ceil(m/2) only, asked for from the largest down, so that P is read off
the rows of 2P with no scan of its own.  The polynomial is the binomial
expansion of h, ``L(n) = sum_i h_i C(n+m-i, m)``, so its two top coefficients
are two sums of h: ``sum_i h_i = V``, the volume moment times m!, and
``sum_i (m+1-2i) h_i = F``, the facet-moment sum.  A second scan stops one
dilate earlier, and these two identities give the missing middle entries of h:
one at odd m from V, two at even m from V and F (:func:`_scan`).

The rows of nP do not depend on the rank: :func:`~ehrtensor.polytopes.dilate_rows`
makes them once per dilate, by a scan or off the rows of a stored multiple, and one
pass over them gives the moments of ranks 0..2, or 0..r above, for each side of nP
that lacks rank r (:func:`_moments`).  Both are kept under their own keys of
:attr:`~ehrtensor.polytopes.Polytope.dilates` and freed with the polytope.  A CLI
request asks :func:`hr_vectors` once.

Four routes give h, every rank asked for from one call (:class:`Route`): the two
dilate scans, the half-open cells of one pulling triangulation of the stored
boundary, and the closed moments at n = 0..m-2 with the top two entries from the
sums (:func:`_closed_moment_oracle`).  :data:`ROUTES` is the one place that pairs
the production h (:func:`hr_vectors`) with the oracle that ``ehrtensor verify`` and
:func:`reciprocity_check` meet it with (:func:`_oracle`).  ``verify`` reads each
oracle h twice: its top entry against L(P°), and at -n in the binomial basis
against L(nP°), n = 1, 2, 3, in one pass per rank (:func:`_reciprocity_holds`).
Below d = 4 it meets the production h with V and F as the two integer sums above
(:func:`_sum_gaps`, which :func:`_fill_from_sums` solves with), and expands it into
polynomials only for the Pick checks, of ranks 1 and 2 at d = 2.
The volume and facet moments are one integer pass over the faces of the
boundary, kept by the same rule beside the dilates: the Newton kernel of the
vertex parts, :func:`~ehrtensor.tensors._newton_columns`, with weights c!, where
by Euler's identity for homogeneous integrands the volume sum is the facet sum
with each face weighted by its plane's right-hand side (Lasserre, 1998).  The
routes read their integer sums, the public functions divide each entry once.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Callable, NamedTuple

from .halfopen import HalfOpenSimplex, _hr_sums, box_slices, half_open_decomposition
from .polytopes import Polytope, dilate_rows
# the scan-row moment kernel lives in tensors and stays importable from here
from .tensors import (BOTH, CLOSED, INTERIOR, HrVector, SymTensor, TensorPolynomial,
                      _newton_columns, multi_indices, row_moments)


def _moments(p: Polytope, r: int, n: int, sides=BOTH) -> list[tuple[int, ...]]:
    """Entries of L^r(nP) and/or L^r(nP°), per side asked for, each side of nP kept
    under ``(n, side)`` in ``p.dilates``: the sides missing there or holding no rank r
    take one pass over the rows of nP, for ranks 0..max(r, 2).  At n = 0 no scan and
    no pass: 0P = {0}, so L^r(0P) is 1 at r = 0 and 0 above, and 0P° is empty."""
    if r < 0 or n < 0:
        raise ValueError("rank and dilation must be nonnegative")
    if n == 0:
        zero = (0,) * len(multi_indices(p.dim, r))
        return [(1,) if side == "closed" and r == 0 else zero for side in sides]
    store = p.dilates
    missing = [side for side in sides if len(store.get((n, side), ())) <= r]
    if missing:
        passes = row_moments(dilate_rows(p, n), max(r, 2), p.dim, missing, p.scan_order)
        for side, ranks in zip(missing, zip(*passes)):
            store[n, side] = tuple(map(tuple, ranks))
    return [store[n, side][r] for side in sides]


def discrete_moment(p: Polytope, r: int, n: int) -> SymTensor:
    """Sum of outer powers x^r over the lattice points of n*P."""
    return SymTensor.from_entries(r, p.dim, _moments(p, r, n, CLOSED)[0])


def discrete_moment_interior(p: Polytope, r: int, n: int) -> SymTensor:
    """Sum of outer powers over lattice points strictly inside n*P (n >= 1)."""
    if n < 1:
        raise ValueError("interior enumeration needs n >= 1")
    return SymTensor.from_entries(r, p.dim, _moments(p, r, n, INTERIOR)[0])


# ---------------------------------------------------------------------------
# h-vectors from the moment series, polynomials from h-vectors

def _numerator(values: list[tuple[int, ...]], m: int) -> list[list[int]]:
    """Coefficients 0..len(values)-1 of ``(1-t)^(m+1) sum_n values[n] t^n``, entry by entry.

    Coefficient i is ``sum_{n<=i} (-1)^(i-n) C(m+1, i-n) values[n]``, so it
    reads the values at n = 0..i only.
    """
    signs = [(-1) ** j * math.comb(m + 1, j) for j in range(len(values))]
    columns = list(zip(*values))
    return [[sum(map(mul, row, col)) for col in columns]
            for row in (signs[i::-1] for i in range(len(values)))]


def _hr(p: Polytope, r: int, entries) -> HrVector:
    """The h-tensor vector with these entry lists."""
    return HrVector(tuple(SymTensor.from_entries(r, p.dim, e) for e in entries))


def _scan(p: Polytope, ranks, sums: bool) -> list[HrVector]:
    """The h-tensor vector of each rank in ``ranks``, in that order, from the dilate scans,
    each distinct rank once, the highest first, so the moment pass of each dilate holds
    every lower rank (:func:`_moments`).  The closed moments of nP, n = 0..k, give
    h_0..h_k and the interior moments, n = 1..k, h_m down to h_(m-k+1), m = dim + r.
    Without the ``sums`` k = ceil(m/2), and that is all of h.  With them k is one less:
    ``V = sum_i h_i`` gives the one missing entry at odd m, and at even m ``F = sum_i
    (m+1-2i) h_i`` weighs the two missing ones +1 and -1, so each is half of an integer
    sum, divided exactly (:func:`_fill_from_sums`).  The top entry is L^r(P°) and, for
    r >= 1, entry 0 vanishes and entry 1 is L^r(P)."""
    out = {}
    for r in sorted(set(ranks), reverse=True):
        m = p.dim + r
        known = 2 - m % 2 if sums else 0
        k = (m - known + 1) // 2
        # the largest dilate first, so the smaller ones are read off its rows
        both = [_moments(p, r, n) for n in range(k, -1, -1)][::-1]     # 0P° is empty
        h = (_numerator([c for c, _ in both], m)[:m // 2 + 1]
             + _numerator([i for _, i in both], m)[:0:-1])
        if known:
            _fill_from_sums(p, r, h, k + 1, known)
        out[r] = _hr(p, r, h)
    return [out[r] for r in ranks]


def hr_vectors(p: Polytope, ranks) -> list[HrVector]:
    """The h-tensor vector of each rank in ``ranks``, in order, by the :data:`ROUTES` production."""
    ranks = tuple(ranks)
    if not ranks or min(ranks) < 0:
        raise ValueError("rank and dilation must be nonnegative" if ranks else "no rank asked for")
    return routes(p.dim)[0].h(p, ranks)


def to_hr_vector(p: Polytope, r: int) -> HrVector:
    """The h-tensor vector of P of rank r: the one-rank case of :func:`hr_vectors`."""
    return hr_vectors(p, (r,))[0]


def _sum_gaps(p: Polytope, r: int, h, held) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(V - sum_j h_j, F - sum_j (m+1-2j) h_j)`` per entry, m = dim + r, the sums of rank r
    (:func:`_simplex_sums`) less the entry lists ``h`` holds at the indices ``held``: on a
    whole h, m! and 2 (m-1)! times the top two coefficients of its polynomial less V and F."""
    volume, facets = (sums[r] for sums in _simplex_sums(p, r))
    weights = [p.dim + r + 1 - 2 * j for j in held]
    return tuple(zip(*((v - sum(col), f - sum(map(mul, weights, col)))
                       for v, f, *col in zip(volume, facets, *h))))


def _fill_from_sums(p: Polytope, r: int, h: list, i: int, count: int) -> None:
    """Insert into ``h`` at i the ``count`` (1 or 2) entries it lacks, m = dim + r: with A, B
    the gaps :func:`_sum_gaps` leaves over the entries held, one is A; two, weighing w + 2 and
    w = m-1-2i in F, are ``h_i = (B - w A)/2``, divided exactly, and ``h_(i+1) = A - h_i``."""
    m = p.dim + r
    a, b = _sum_gaps(p, r, h, (*range(i), *range(i + count, m + 1)))
    if count == 1:
        h.insert(i, list(a))
        return
    twice = [y - (m - 1 - 2 * i) * x for x, y in zip(a, b)]
    if any(t % 2 for t in twice):
        raise ArithmeticError("the volume and facet moments do not fit the scanned moments")
    h[i:i] = [[t // 2 for t in twice], [x - t // 2 for x, t in zip(a, twice)]]


@lru_cache(maxsize=None)
def _binomial_expansion(m: int) -> tuple[tuple[int, ...], ...]:
    """Row k, column i: the coefficient of n^k in ``m! C(n+m-i, m) = prod_{j<m} (n+m-i-j)``;
    column i+1 is column i times (n - i), divided exactly by (n + m - i) from the top down."""
    column = [1]
    for j in range(1, m + 1):
        column = [j * a + b for a, b in zip(column + [0], [0] + column)]
    columns = [column]
    for i in range(m):
        product = [b - i * a for a, b in zip(columns[-1] + [0], [0] + columns[-1])]
        column = [product[-1]]
        for c in product[-2:0:-1]:
            column.append(c - (m - i) * column[-1])
        columns.append(column[::-1])
    return tuple(zip(*columns))


def hr_vector_to_polynomial(h: HrVector) -> TensorPolynomial:
    """Expand an h-tensor vector in the shifted binomial basis to powers of n: the rows
    of one integer matrix applied to the entries, then one division by m!."""
    m = len(h) - 1
    fact, columns = math.factorial(m), list(zip(*(e.entries for e in h.entries)))
    return TensorPolynomial(tuple(
        SymTensor(h.rank, h.dim, tuple(Fraction(sum(map(mul, row, col)), fact) for col in columns))
        for row in _binomial_expansion(m)))


def ehrhart_tensor_polynomial(p: Polytope, r: int) -> TensorPolynomial:
    """The unique degree <= dim+r polynomial with L(n) = L^r(nP) for n >= 0.

    The binomial expansion of :func:`to_hr_vector`; the constant term is
    automatically zero for r >= 1.
    """
    return hr_vector_to_polynomial(to_hr_vector(p, r))


def _closed_moment_oracle(p: Polytope, r: int) -> HrVector:
    """h-vector from the closed moments of nP, n = 0..m-2, m = dim + r, with h_(m-1) and
    h_m from the volume and facet sums (:func:`_fill_from_sums`): no interior side, so
    reciprocity and h-top meet a route that does not read what they test."""
    m = p.dim + r
    h = _numerator([_moments(p, r, n, CLOSED)[0] for n in range(m - 1)], m)
    _fill_from_sums(p, r, h, m - 1, 2)
    return _hr(p, r, h)


def _halfopen_cells(p: Polytope) -> list[HalfOpenSimplex]:
    """Half-open cells that partition P: the point of
    :attr:`~ehrtensor.polytopes.Polytope.boundary` that is a corner of the
    most boundary faces (the first of them), coned over the boundary faces
    whose plane misses it (a pulling triangulation, built on the stored
    boundary and its planes with no hull of its own), split by
    :func:`~ehrtensor.halfopen.half_open_decomposition`.  Each cell costs
    about the same whatever its volume, and the faces through the apex
    make none."""
    points, boundary = p.boundary
    corners = Counter(i for face, _, _ in boundary for i in face)
    k = max(range(len(points)), key=corners.__getitem__)
    return half_open_decomposition(points, [(k, *face) for face, (normal, rhs), _ in boundary
                                            if sum(map(mul, normal, points[k])) != rhs])


class Route(NamedTuple):
    """An h route: ``h(p, ranks)``, the h-tensor vector of each rank in ``ranks``, in that
    order, from one call, and whether it reads the volume and facet sums."""
    h: Callable[[Polytope, tuple], list[HrVector]]
    reads_sums: bool


SCAN = Route(lambda p, ranks: _scan(p, ranks, False), False)
SCAN_WITH_SUMS = Route(lambda p, ranks: _scan(p, ranks, True), True)
HALFOPEN_CELLS = Route(
    lambda p, ranks: _hr_sums([(s, box_slices(s)) for s in _halfopen_cells(p)], ranks), False)
CLOSED_MOMENTS = Route(lambda p, ranks: [_closed_moment_oracle(p, r) for r in ranks], True)

# The dimension policy: from the first dimension of each row on, the production h route
# and its oracle, which reads the volume and facet sums only where production does not.
# The half-open cells (Koeppe-Verdoolaege, 2008) share no enumeration, moment pass or
# numerator map with a scan.  Each route looks up what it calls in this module as it runs.
ROUTES = ((0, SCAN, CLOSED_MOMENTS), (4, SCAN_WITH_SUMS, HALFOPEN_CELLS))


def routes(dim: int) -> tuple[Route, Route]:
    """``(production, oracle)`` in dimension ``dim``: the last :data:`ROUTES` row at or below."""
    return next(row[1:] for row in reversed(ROUTES) if row[0] <= dim)


def _oracle(p: Polytope, ranks) -> list[HrVector]:
    """The h-vector of each rank in ``ranks`` by the oracle of :data:`ROUTES`, which meets
    :func:`hr_vectors` in ``ehrtensor verify`` and :func:`reciprocity_check`."""
    return routes(p.dim)[1].h(p, ranks)


def reciprocity_check(p: Polytope, r: int, n: int) -> bool:
    """Exact check that the moment polynomial at -n matches the interior sum.

    ``L^r(-n) = sum_i h_i C(-n+m-i, m) = (-1)^m sum_i h_i C(n+i-1, m)``, so
    reciprocity ``L^r(-n) = (-1)^m L^r(nP°)`` reads ``sum_i h_i C(n+i-1, m)
    = L^r(nP°)``.  The left side reads the h of :func:`_oracle`, which reads
    no interior moment; the right side is strict enumeration.
    """
    if r < 0 or n < 1:
        raise ValueError("reciprocity check needs r >= 0 and n >= 1")
    return _reciprocity_holds(p, _oracle(p, (r,))[0], (n,))


def _reciprocity_holds(p: Polytope, h: HrVector, ns) -> bool:
    """:func:`reciprocity_check` at each n >= 1 in ``ns``, in order, on an oracle h
    already built, so ``verify`` builds one per rank: h's entry columns are read
    once, and each n compares one weighted row with
    :func:`discrete_moment_interior`, stopping at the first that differs."""
    m = len(h) - 1
    columns = list(zip(*(e.entries for e in h.entries)))
    for n in ns:
        weights = [math.comb(n + i - 1, m) for i in range(m + 1)]
        if [sum(map(mul, weights, col)) for col in columns] \
                != list(discrete_moment_interior(p, h.rank, n).entries):
            return False
    return True


# ---------------------------------------------------------------------------
# exact volume and facet moments

def _simplex_sums(p: Polytope, r: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``(V, F)``, per rank q = 0..top, top >= r, the entries of ``F_q = sum_F g_F H_q(F)``
    over the faces of :attr:`~ehrtensor.polytopes.Polytope.boundary`, g_F the
    face's lattice volume, and of ``V_q = (dim+q)! integral_P x^q``, the same
    sum weighted by ``rhs_F g_F``: x^q is homogeneous, so ``(dim+q)
    integral_P x^q = sum_F rhs_F integral_F x^q`` with the signed ``rhs_F`` of
    each face's plane (Euler's identity; Lasserre, "Integration on a convex
    polytope", 1998).  A k-simplex of normalized volume g has ``integral x^q
    = g H_q / (k+q)!``, ``H_q = q! h_q`` with h_q the complete homogeneous
    tensor of its vertices (Baldoni et al., "How to integrate a polynomial
    over a simplex", 2011): :func:`~ehrtensor.tensors._newton_columns` with
    weights c!, one column per face, kept under ``"boundary"`` in
    :attr:`~ehrtensor.polytopes.Polytope.dilates` by the rule of :func:`_moments`.
    """
    store, top = p.dilates, max(r, 2)
    if "boundary" not in store or len(store["boundary"][0]) <= r:
        points, boundary = p.boundary
        hs = _newton_columns(points, [face for face, _, _ in boundary], top, p.dim,
                             [(math.factorial(c),) for c in range(top + 1)])
        store["boundary"] = tuple(
            tuple(tuple(sum(map(mul, weights, column)) for column in h[0]) for h in hs)
            for weights in ([rhs * g for _, (_, rhs), g in boundary], [g for _, _, g in boundary]))
    return store["boundary"]


def moment_tensor(p: Polytope, r: int) -> SymTensor:
    """Exact integral of x^r over P, in any dimension and rank.

    The volume sum of :func:`_simplex_sums`, each boundary face's ``rhs * g``
    times its H_r (Euler's identity; Lasserre 1998), with each entry divided
    once, by (dim+r)!.
    """
    den = math.factorial(p.dim + r)
    return SymTensor(r, p.dim, tuple(Fraction(a, den) for a in _simplex_sums(p, r)[0][r]))


def second_coefficient_facets(p: Polytope, r: int) -> SymTensor:
    """Half the facet-moment sum: the coefficient of n^(dim+r-1), in any dimension.

    ``1/2 * sum_F integral_F x^r`` in the lattice measure of each facet's
    hyperplane (Brion-Vergne, "Lattice points in simple polytopes", 1997):
    the facet sum of :func:`_simplex_sums`, each boundary face's lattice
    volume g times its H_r, from the pass that gives the volume sum
    (Lasserre 1998), with one division per entry, by 2 (dim-1+r)!.
    """
    den = 2 * math.factorial(p.dim - 1 + r)
    return SymTensor(r, p.dim, tuple(Fraction(a, den) for a in _simplex_sums(p, r)[1][r]))
