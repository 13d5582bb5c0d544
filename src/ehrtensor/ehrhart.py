"""Discrete moment tensors and their dilation polynomials.

The rank-r discrete moment of a lattice polytope is the sum of r-fold
symmetric outer powers over its lattice points.  As a function of the
dilation factor n it is a polynomial L(n) of degree at most m = dim + r.

One row scan of nP gives the closed moment L(nP) and the interior moment
L(nP°): every row of the scan contributes its prefix monomials times the
power sums of the last coordinate over its closed and strict intervals,
summed for every rank in one column pass, for only the sides a caller reads.
The h-tensor vector is the numerator of the moment series,
``sum_n L(nP) t^n = sum_i h_i t^i / (1-t)^(m+1)``, and Ehrhart-Macdonald
reciprocity for moment tensors gives the interior series the reversed
numerator, ``sum_{n>=1} L(nP°) t^n = sum_i h_i t^(m+1-i) / (1-t)^(m+1)``.
So alternating binomial sums of the closed moments give the lower half of h
and those of the interior moments the upper half, from the scans of nP for
n = 0..ceil(m/2) only.  The polynomial is the binomial expansion of h,
``L(n) = sum_i h_i C(n+m-i, m)``.

The rows of nP do not depend on the rank: :func:`~ehrtensor.polytopes.dilate_rows`
scans each dilate once, and one pass over its rows gives the moments of ranks
0..max(r, 2).  Both are kept on the polytope, each side of a pass under its
own key of :attr:`~ehrtensor.polytopes.Polytope.dilates`, and freed with it,
so a large dilate (``moments --n`` big) is held until its request ends.  A
CLI request derives each rank's h once.

The closed moments at every n = 0..m survive only as the cross-check of
``ehrtensor verify``: :func:`_all_dilates_oracle` maps them to h by the same
alternating binomial sums, asking for the closed side only above
n = ceil((dim + max(r, 2))/2), where the h route reads neither side.
``verify`` builds that h once per rank and reads it twice: its top entry
against L(P°), and at -n in the binomial basis against L(nP°), n = 1, 2, 3
(:func:`_reciprocity_holds`).  The volume and facet moments are one integer
pass each, one division per entry.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul, sub

from .polytopes import Polytope, dilate_rows
from .tensors import (HrVector, SymTensor, TensorPolynomial, _moment_entries,
                      _product_entries, multi_indices)


# ---------------------------------------------------------------------------
# moment kernel: scan rows

BOTH, CLOSED, INTERIOR = ("closed", "interior"), ("closed",), ("interior",)


@lru_cache(maxsize=None)
def _power_sum_poly(k: int) -> tuple[tuple[int, ...], int]:
    """``F_k(n) = sum_{t=1..n} t^k`` as integer coefficients over one denominator.

    Built from ``(n+1)^(k+1) - 1 = sum_{j<=k} C(k+1, j) F_j(n)``.  Since
    ``F_k(n) - F_k(n-1) = n^k`` is a polynomial identity, the power sum over
    any integer interval is ``F_k(hi) - F_k(lo - 1)``.
    """
    lower = [_power_sum_poly(j) for j in range(k)]
    coeffs = [Fraction(math.comb(k + 1, i)) for i in range(k + 2)]
    coeffs[0] -= 1
    for j, (num, den) in enumerate(lower):
        for i, c in enumerate(num):
            coeffs[i] -= Fraction(math.comb(k + 1, j) * c, den)
    coeffs = [c / (k + 1) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * den) for c in coeffs), den


@lru_cache(maxsize=None)
def _row_plan(dim: int, r: int):
    """Split each stored multi-index into a prefix monomial and a last-axis power.

    The prefix monomials (over coordinates 0..dim-2, ranks 0..r) are built
    from 1 by ``steps``: monomial s+1 is monomial ``j`` times coordinate
    ``i``.  ``plans[q]`` gives, per stored entry of rank q, the position j of its
    prefix monomial and the power k of coordinate dim-1; ``need`` holds every
    pair (j, i), i = 1..k+1, that the power sums ``F_k`` read.
    """
    last = dim - 1
    prefixes = [pm for j in range(r + 1) for pm in multi_indices(last, j)]
    pos = {pm: s for s, pm in enumerate(prefixes)}
    steps = tuple((pos[pm[:-1]], pm[-1]) for pm in prefixes[1:])
    plans = tuple(tuple((pos[m[:len(m) - m.count(last)]], m.count(last))
                        for m in multi_indices(dim, q)) for q in range(r + 1))
    need = {(j, i) for plan in plans for j, k in plan for i in range(1, k + 2)}
    return steps, plans, need


def row_moments(rows, r: int, dim: int, sides=BOTH) -> list[tuple[list[int], ...]]:
    """Moments of ranks 0..r of :func:`~ehrtensor.polytopes.scan_rows` rows, per side asked for.

    A row ``(prefix, lo, hi, slo, shi)`` adds, for each stored multi-index,
    its prefix monomial times ``sum t^k`` over ``[lo, hi]`` to the closed
    moment and over ``[slo, shi]`` to the interior (strict) one, k being the
    power of the last coordinate.  That sum is ``F_k(hi) - F_k(lo-1)``, an
    integer combination of ``hi^i - (lo-1)^i`` over one denominator, so one
    column pass serves every rank: one ``sum(map(mul, ...))`` per (monomial,
    power).  Only the ``sides`` asked for are read and computed, sharing the
    prefix monomials.  Scan rows have lo <= hi; an empty strict interval has
    shi raised to slo - 1, so it adds nothing.  Returns, per rank, the entry
    lists of the sides in the order asked, in storage order.
    """
    steps, plans, need = _row_plan(dim, r)
    prefixes, lo, hi, slo, shi = list(zip(*rows)) or [()] * 5
    coords = list(zip(*prefixes)) or [()] * (dim - 1)
    monos = [None]      # the monomial 1 sums a column as it is
    for j, i in steps:
        monos.append(coords[i] if j == 0 else list(map(mul, monos[j], coords[i])))
    polys = [_power_sum_poly(k) for k in range(r + 1)]
    out = []
    for side in sides:
        low, top = (lo, hi) if side == "closed" else (slo, shi)
        below = [x - 1 for x in low]
        if side == "interior":
            top = list(map(max, top, below))
        diffs, a, b = [None, list(map(sub, top, below))], top, below
        for _ in range(r):      # diffs[i] = top^i - below^i
            a, b = list(map(mul, a, top)), list(map(mul, b, below))
            diffs.append(list(map(sub, a, b)))
        table = {(j, i): sum(map(mul, monos[j], diffs[i])) if j else sum(diffs[i])
                 for j, i in need}
        out.append([[sum(c * table[j, i] for i, c in enumerate(polys[k][0]) if c)
                     // polys[k][1] for j, k in plan] for plan in plans])
    return list(zip(*out))


def _moments(p: Polytope, r: int, n: int, sides=BOTH) -> list[tuple[int, ...]]:
    """Entries of L^r(nP) and/or L^r(nP°), per side asked for: one pass over the rows
    of nP computes the sides ``p.dilates`` lacks, kept under ``(top, n, side)``;
    ranks 0..2 share the pass of ``top = max(r, 2)``."""
    if r < 0 or n < 0:
        raise ValueError("rank and dilation must be nonnegative")
    top, store = max(r, 2), p.dilates
    missing = [side for side in sides if (top, n, side) not in store]
    if missing:
        passes = row_moments(dilate_rows(p, n), top, p.dim, missing)
        for side, ranks in zip(missing, zip(*passes)):
            store[top, n, side] = tuple(map(tuple, ranks))
    return [store[top, n, side][r] for side in sides]


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


def to_hr_vector(p: Polytope, r: int) -> HrVector:
    """h-tensor vector of P, ``sum_n L^r(nP) t^n = sum_i h_i t^i / (1-t)^(m+1)``, m = dim + r.

    The closed moments of nP, n = 0..floor(m/2), give h_0..h_floor(m/2).
    By reciprocity ``sum_{n>=1} L^r(nP°) t^n = sum_i h_i t^(m+1-i) / (1-t)^(m+1)``,
    so the interior moments, n = 1..ceil(m/2), give h_m, h_(m-1), ... as
    numerator coefficients 1..ceil(m/2).  The top entry is L^r(P°) and, for
    r >= 1, entry 0 vanishes and entry 1 is L^r(P).
    """
    if r < 0:
        raise ValueError("rank and dilation must be nonnegative")
    m = p.dim + r
    both = [_moments(p, r, n) for n in range((m + 1) // 2 + 1)]    # 0P° is empty
    closed, interior = [c for c, _ in both[:m // 2 + 1]], [i for _, i in both]
    return _hr(p, r, _numerator(closed, m) + _numerator(interior, m)[:0:-1])


@lru_cache(maxsize=None)
def _binomial_expansion(m: int) -> tuple[tuple[int, ...], ...]:
    """Row k, column i: the coefficient of n^k in ``m! C(n+m-i, m) = prod_{j<m} (n+m-i-j)``."""
    columns = []
    for i in range(m + 1):
        coeffs = [1]
        for j in range(m):
            coeffs = [(m - i - j) * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
        columns.append(coeffs)
    return tuple(zip(*columns))


def hr_vector_to_polynomial(h: HrVector) -> TensorPolynomial:
    """Expand an h-tensor vector in the shifted binomial basis to powers of n.

    ``L(n) = sum_i h_i C(n+m-i, m)``: one integer matrix applied to the
    entries, then one division by m!.
    """
    m = len(h) - 1
    fact = math.factorial(m)
    columns = list(zip(*(e.entries for e in h.entries)))
    return TensorPolynomial(tuple(
        SymTensor(h.rank, h.dim, tuple(Fraction(sum(map(mul, row, col)), fact) for col in columns))
        for row in _binomial_expansion(m)))


def ehrhart_tensor_polynomial(p: Polytope, r: int) -> TensorPolynomial:
    """The unique degree <= dim+r polynomial with L(n) = L^r(nP) for n >= 0.

    The binomial expansion of :func:`to_hr_vector`; the constant term is
    automatically zero for r >= 1.
    """
    return hr_vector_to_polynomial(to_hr_vector(p, r))


def _all_dilates_oracle(p: Polytope, r: int) -> HrVector:
    """h-vector from the closed moments of nP, n = 0..dim+r.

    The cross-check route of ``ehrtensor verify``: the same numerator map on
    closed moments only, with no interior moment and no reciprocity.
    """
    m, half = p.dim + r, (p.dim + max(r, 2) + 1) // 2    # the h route reads both sides to half
    closed = [_moments(p, r, n, BOTH if n <= half else CLOSED)[0] for n in range(m + 1)]
    return _hr(p, r, _numerator(closed, m))


def reciprocity_check(p: Polytope, r: int, n: int) -> bool:
    """Exact check that the moment polynomial at -n matches the interior sum.

    ``L^r(-n) = sum_i h_i C(-n+m-i, m) = (-1)^m sum_i h_i C(n+i-1, m)``, so
    reciprocity ``L^r(-n) = (-1)^m L^r(nP°)`` reads ``sum_i h_i C(n+i-1, m)
    = L^r(nP°)``.  The left side reads the h of :func:`_all_dilates_oracle`,
    closed moments only; the right side is strict enumeration.
    """
    if n < 1:
        raise ValueError("reciprocity check needs n >= 1")
    return _reciprocity_holds(p, _all_dilates_oracle(p, r), n)


def _reciprocity_holds(p: Polytope, h: HrVector, n: int) -> bool:
    """:func:`reciprocity_check` at n >= 1 on an oracle h already built, so
    ``verify`` builds one per rank."""
    m = len(h) - 1
    weights = [math.comb(n + i - 1, m) for i in range(m + 1)]
    columns = zip(*(e.entries for e in h.entries))
    lhs = SymTensor.from_entries(h.rank, p.dim, [sum(map(mul, weights, col)) for col in columns])
    return lhs == discrete_moment_interior(p, h.rank, n)


# ---------------------------------------------------------------------------
# exact volume and facet moments

def _simplex_entries(verts: list, r: int, dim: int) -> list[int]:
    """Entries of ``H_r = r! h_r``, h_r the complete homogeneous tensor of the vertices.

    The integral of x^r over a k-simplex of normalized volume ``volume``
    (k! vol) is ``volume * H_r / (k+r)!`` (Baldoni et al., "How to integrate
    a polynomial over a simplex", 2011).  H_r comes from the vertex power
    sums p_i of one :func:`~ehrtensor.tensors._moment_entries` pass by
    Newton's identity, which with the unnormalized
    :func:`~ehrtensor.tensors.sym_product` reads
    ``j H_j = sum_{i=1..j} i! sym_product(p_i, H_(j-i))``, exactly.
    """
    powers, hs = _moment_entries(verts, r, dim), [[1]]
    for j in range(1, r + 1):
        weights = [math.factorial(i) for i in range(1, j + 1)]
        terms = [_product_entries(powers[i], hs[j - i], dim, i, j - i) for i in range(1, j + 1)]
        hs.append([sum(map(mul, weights, col)) // j for col in zip(*terms)])
    return hs[r]


def _simplex_sum(p: Polytope, r: int, faces, volumes, den: int) -> SymTensor:
    """``sum volume * H_r`` over k-simplices of the vertices, each entry divided once,
    by ``den (k+r)!``."""
    acc = [0] * len(multi_indices(p.dim, r))
    for face, volume in zip(faces, volumes):
        h = _simplex_entries([p.vertices[i] for i in face], r, p.dim)
        acc = [a + volume * b for a, b in zip(acc, h)]
    den *= math.factorial(len(faces[0]) - 1 + r)
    return SymTensor(r, p.dim, tuple(Fraction(a, den) for a in acc))


def moment_tensor(p: Polytope, r: int) -> SymTensor:
    """Exact integral of x^r over P, in any dimension and rank.

    One integer pass over the simplices of the placing triangulation of the
    vertices: each adds its stored ``|det|`` times :func:`_simplex_entries`,
    and each entry is divided once, by (dim+r)!.
    """
    return _simplex_sum(p, r, p.placing_triangulation[0], p.simplex_volumes, 1)


def second_coefficient_facets(p: Polytope, r: int) -> SymTensor:
    """Half the facet-moment sum: the coefficient of n^(dim+r-1), in any dimension.

    ``1/2 * sum_F integral_F x^r`` in the lattice measure of each facet's
    hyperplane (Brion-Vergne, "Lattice points in simple polytopes", 1997):
    one integer pass over the boundary simplices of the placing
    triangulation, each adding its stored facet-lattice volume times
    :func:`_simplex_entries`, and one division per entry, by 2 (dim-1+r)!.
    """
    faces = [face for face, _, _ in p.placing_triangulation[1]]
    return _simplex_sum(p, r, faces, p.facet_volumes, 2)
