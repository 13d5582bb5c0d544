"""Half-open lattice simplices and their moment generating functions.

A half-open simplex is a simplex with a subset of facets removed (facet i
is the one opposite vertex i; indices are 0-based).  Lifting the vertices to
height 1 tiles the cone over the simplex by translates of a half-open
parallelepiped; its integer points, graded by height, are the box points.
The h-tensor vector of the half-open simplex then comes out of an explicit
numerator formula whose polynomial ingredients are Eulerian polynomials, the
generating numerators of ``sum_n n^j t^n``.  It is assembled on plain
integer entry lists: the vertex parts of every rank come from the vertex
power sums by Newton's recurrence (:func:`~ehrtensor.tensors._newton_columns`),
the box is enumerated once into coordinate columns grouped by height, each
box slice's moments of every rank come from those columns, and only the
d+r+1 output entries become :class:`~ehrtensor.tensors.SymTensor` values.

The box residues become points through packed-integer columns
(:func:`box_slices`): each residue column is one int with a slot of 64 L
bits per residue, L taken from the bit length of D times the largest sum of
|coordinates| over the lifted rows, so large and small coordinates take the
same path.  A lifted coordinate of every point is then one integer
combination of those ints plus an offset that keeps every slot nonnegative,
divided by D once, with every slot checked to be divisible by D; the slots
are read back with ``array('Q')`` in ``sys.byteorder``.

Any triangulation of a polytope, in any dimension, splits into half-open
cells that partition it (:func:`half_open_decomposition`), so the moments
and h-vectors of the cells add up to the polytope's with no
inclusion-exclusion.  One assembly (:func:`_hr_sums`) takes the vertex parts
of all its cells from one kernel call, adds the cells' numerators of every
rank asked for on entry lists and builds the tensors once; a single simplex
(:func:`hr_halfopen`) is its one-cell, one-rank case.
"""
from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache
from itertools import product, repeat
from operator import add, itemgetter, lshift, mod, mul, sub

from . import linalg
from .polytopes import barycentric_facets, checked_int, scan_rows, shadow_levels
from .tensors import (CLOSED, HrVector, IntPoint, SymTensor, _column_moments, _newton_columns,
                      _product_entries, dot, entry_count, moment_of_points, outer_power,
                      row_moments, sym_product)


# ---------------------------------------------------------------------------
# Eulerian polynomials

@lru_cache(maxsize=None)
def eulerian_polynomial(j: int) -> tuple[int, ...]:
    """Numerator of sum_{n>=0} n^j t^n over (1-t)^(j+1), with 0^0 = 1, as its
    integer coefficients, low degree first.

    ``A_j(t) = sum_{n=0..j} sum_{i=0..n} (-1)^i C(j+1, i) (n-i)^j t^n``;
    the coefficients are positive and add up to j!.
    """
    if j < 0:
        raise ValueError("index must be nonnegative")
    return tuple(sum((-1) ** i * math.comb(j + 1, i) * (n - i) ** j for i in range(n + 1))
                 for n in range(j + 1))


# ---------------------------------------------------------------------------
# half-open simplices

@dataclass(frozen=True)
class HalfOpenSimplex:
    """Lattice simplex with the facets opposite ``removed`` vertices deleted."""

    vertices: tuple[IntPoint, ...]
    removed: frozenset[int]
    inverse: InitVar[tuple | None] = None   # linalg.lifted_inverse(vertices), if made

    def __post_init__(self, inverse):
        if not self.vertices or not self.vertices[0]:
            raise ValueError("a simplex needs vertices with at least one coordinate")
        d = len(self.vertices[0])
        if any(len(v) != d for v in self.vertices):
            raise ValueError("vertices have mixed dimensions")
        if len(self.vertices) != d + 1:
            raise ValueError(f"a {d}-simplex needs {d + 1} vertices")
        if inverse is None and len(linalg.affine_basis(self.vertices)) <= d:
            raise ValueError("vertices are affinely dependent")
        if inverse is not None:
            object.__setattr__(self, "_inverse", inverse)
        if not all(0 <= i <= d for i in self.removed):
            raise ValueError("removed facet indices out of range")
        if len(self.removed) > d:
            # no point sees every facet; keeping one also caps the box
            # heights at d, which the h-vector degree bound relies on
            raise ValueError("at least one facet must remain")

    @classmethod
    def make(cls, vertices, removed=()) -> "HalfOpenSimplex":
        return cls(tuple(tuple(map(checked_int, v)) for v in vertices),
                   frozenset(map(checked_int, removed)))

    @property
    def dim(self) -> int:
        return len(self.vertices[0])

    @cached_property
    def _inverse(self) -> tuple[list[list[int]], int]:
        return linalg.lifted_inverse(self.vertices)

    def normalized_volume(self) -> int:
        return self._inverse[1]

    def barycentric_rows(self) -> tuple[list[list[int]], int]:
        """``(rows, D)``: D = |det| and rows a_i of D times the inverse of the
        matrix with columns (v_j, 1).

        A point z of Z^(d+1) has barycentric coordinate ``a_i.z / D`` for vertex i.
        """
        return self._inverse

    def facets(self) -> list[tuple[IntPoint, int]]:
        """Facet i as (normal, rhs), polytope side normal.x <= rhs, for i = 0..d:
        the primitive plane of ``a_i.(x, 1) >= 0`` with a_i the barycentric row
        (:func:`~ehrtensor.polytopes.barycentric_facets`)."""
        return [plane for plane, _ in barycentric_facets(self.barycentric_rows()[0])]

    def constraints(self, n: int) -> list[tuple[IntPoint, int]]:
        """``(normal, rhs)`` pairs of n*S for :func:`~ehrtensor.polytopes.scan_rows`;
        a removed facet is strict, ``normal . x <= n*rhs - 1``."""
        return [(normal, n * rhs - 1 if i in self.removed else n * rhs)
                for i, (normal, rhs) in enumerate(self.facets())]

    def bounds(self, n: int) -> list[tuple[int, int]]:
        return [(n * min(c), n * max(c)) for c in zip(*self.vertices)]


def half_open_decomposition(points, simplices) -> list[HalfOpenSimplex]:
    """Half-open cells of a triangulation, one per simplex, in the same order.

    ``simplices`` are tuples of d+1 indices into ``points``.  Each simplex
    loses the facets that the reference point ``c + (e, e^2, ..., e^d)``
    strictly sees, where c is the centroid of ``simplices[0]`` and e > 0 is
    infinitesimal (the lexicographic perturbation of Koeppe-Verdoolaege):
    facet ``(normal, rhs)`` is removed iff the first nonzero entry of
    ``(normal.sum(v) - (d+1) rhs, normal_0, ..., normal_(d-1))`` is positive,
    with v the vertices of ``simplices[0]``.  The perturbed point lies on no
    facet hyperplane, so the cells partition the triangulated polytope and
    ``simplices[0]`` stays closed; reorder ``simplices`` to move the point.
    Facet i is ``(-a_i[:d], a_i[d])`` times a positive factor (see
    :meth:`HalfOpenSimplex.facets`), so it is removed iff the first nonzero
    entry of ``(a_i.(sum(v), d+1), a_i[:d])`` is negative: one inverse per cell.
    Each point that a simplex uses is checked once, and its cells share the tuple.
    """
    if not simplices:
        return []
    used = {i: tuple(map(checked_int, points[i])) for i in set().union(*simplices)}
    d = len(points[0])
    lifted_sum = [sum(used[i][j] for i in simplices[0]) for j in range(d)] + [d + 1]
    cells = []
    for simplex in simplices:
        vertices = tuple(map(used.__getitem__, simplex))
        inverse = linalg.lifted_inverse(vertices)
        removed = frozenset(i for i, a in enumerate(inverse[0])
                            if next(x for x in (dot(a, lifted_sum),) + tuple(a[:d]) if x) < 0)
        cells.append(HalfOpenSimplex(vertices, removed, inverse))
    return cells


@dataclass(frozen=True)
class BoxSlices:
    """Integer points of the half-open parallelepiped as coordinate columns
    grouped by height: slice i, the points at last (lifted) coordinate i
    projected back to Z^d, is positions ``bounds[i]:bounds[i+1]`` of every
    column, i = 0..d.  The total count equals the normalized volume.
    """

    columns: tuple[tuple[int, ...], ...]
    bounds: tuple[int, ...]

    @cached_property
    def slices(self) -> tuple[tuple[IntPoint, ...], ...]:
        """``slices[i]``: the points of slice i as sorted tuples."""
        return tuple(tuple(sorted(zip(*(col[a:b] for col in self.columns))))
                     for a, b in zip(self.bounds, self.bounds[1:]))

    @property
    def total(self) -> int:
        return self.bounds[-1]

    def moments(self, r: int) -> list[list[list[int]]]:
        """``moments[k][i]``: the entries of the rank-k moment of slice i, k = 0..r."""
        d = len(self.columns)
        per_slice = [_column_moments([col[a:b] for col in self.columns], b - a, r, d)
                     for a, b in zip(self.bounds, self.bounds[1:])]
        return [list(ranks) for ranks in zip(*per_slice)]


def box_slices(s: HalfOpenSimplex) -> BoxSlices:
    """The box points, enumerated once, as coordinate columns grouped by height.

    They are one representative per coset of the lattice spanned by the
    lifted vertices ``(v_j, 1)``, listed as in Koeppe-Verdoolaege (primal
    Barvinok, 2008) and Normaliz (Bruns-Ichim-Soeger, 2016).  With rows a_i
    of ``s.barycentric_rows()`` and D = |det|, the numerators ``a.z mod D``
    of z in Z^(d+1) form the group generated by the columns of the rows; it
    has D elements, found by closing {0} under each generator.  The group is
    kept as one residue column per coordinate, and each generator adds its
    cosets in one comprehension per column (:func:`_residue_columns`).
    Residue a maps to ``z = sum_j a_j (v_j, 1) / D``, with a_j = D instead of
    0 on removed facets.

    The map packs each residue column once into one int of D slots, 64 L bits
    each, residue p in slot p (:func:`_pack`), so one integer combination of
    those ints, with a lifted coordinate of the vertices as weights, holds
    every numerator of that coordinate.  With S the largest sum of |weights|
    over the coordinates, each numerator lies in [-DS, DS]; an offset of DS
    in every slot keeps each slot in 0..2DS, and L, one more than the 64-bit
    words in the bit length of DS, lets 2DS fit, so every coordinate size
    takes this one path.  The sum is divided by D once.  A remainder of 0
    with every quotient slot at most 2S means that D times each quotient
    slot is the sum's slot, so every slot is divisible by D and each point is
    integral; anything else raises.  The quotient slots are read back as
    64-bit words in the machine's byte order (:func:`_unpack`), and a point's
    coordinate is its slot less S.  One sort of the integer keys
    ``(z[d] + S) D + index`` groups the columns z[:d] into slices by height
    z[d], each in residue order; the slice bounds are bisected out of the
    keys and every column is read out by one ``itemgetter``.
    """
    d = s.dim
    rows, dabs = s.barycentric_rows()
    cols = _residue_columns(rows, dabs)
    for j in s.removed:
        cols[j] = [x or dabs for x in cols[j]]
    lifted = [list(c) for c in zip(*s.vertices)] + [[1] * (d + 1)]     # columns (v_j, 1)
    shift = max(sum(map(abs, c)) for c in lifted)
    limbs = (dabs * shift).bit_length() // 64 + 1
    packed = [_pack(col, limbs) for col in cols]
    # shift * D in every slot: a 1 in the low byte of each slot, times shift * D
    offset = dabs * shift * int.from_bytes(b"\1".ljust(8 * limbs, b"\0") * dabs, "little")
    z = []
    for c in lifted:
        quotient, remainder = divmod(sum(map(mul, c, packed), offset), dabs)
        z.append(_unpack(quotient, dabs, limbs))
        if remainder or max(z[-1]) > 2 * shift:
            raise AssertionError("a box residue is not a lattice point")
    # the point indices by height, as (height + shift) * D + index, sorted as plain ints
    keys = sorted(map(add, map(mul, z.pop(), repeat(dabs)), range(dabs)))
    bounds = tuple(bisect_left(keys, (i + shift) * dabs) for i in range(d + 2))
    # one more index, so that one box point still gives a tuple; repeat(shift, D) drops it
    pick = itemgetter(*map(mod, keys, repeat(dabs)), 0)
    return BoxSlices(tuple(tuple(map(sub, pick(col), repeat(shift, dabs))) for col in z), bounds)


def _pack(values, limbs: int) -> int:
    """``sum_p values[p] 2^(64 limbs p)``: value p, below 2^64, in the low word of slot p."""
    low = array("Q", values)
    words = array("Q", bytes(8 * limbs * len(low)))
    words[::limbs] = low
    if sys.byteorder == "big":      # native words, most significant first
        words.reverse()
    return int.from_bytes(words, sys.byteorder)


def _unpack(n: int, count: int, limbs: int):
    """The ``count`` slots of ``limbs`` 64-bit words each that make up n >= 0."""
    words = array("Q", n.to_bytes(8 * limbs * count, sys.byteorder))
    if sys.byteorder == "big":
        words.reverse()
    values = words[::limbs]
    for k in range(1, limbs):
        values = list(map(add, values, map(lshift, words[k::limbs], repeat(64 * k))))
    return values


def _residue_columns(rows: list[list[int]], dabs: int) -> list[list[int]]:
    """The group generated mod D by the columns of ``rows``, one residue column
    per row; raises when it does not have D elements.  The closure stops at
    the generator that completes the group.  The cosets it adds are disjoint
    from each other and from the subgroup so far, by the choice of m below,
    so the residues are distinct; the set of them is kept only while a later
    generator is tested against it."""
    cols = [[0] for _ in rows]
    members = {(0,) * len(rows)}
    for gen in zip(*rows):
        # the cosets H + k*gen, 0 < k < m, of the subgroup H so far; the least
        # m > 0 with m*gen in H divides the order of gen, so only divisors are tried
        m = next(k for k in _divisors(dabs // math.gcd(dabs, *gen))
                 if tuple(k * x % dabs for x in gen) in members)
        if m > 1:
            # k*gen for k = 1..m-1 as one range per entry, each step g mod D + D > 0
            steps = [range(y, m * y, y) for y in (g % dabs + dabs for g in gen)]
            cosets = [[(x + s) % dabs for s, x in product(ks, col)]
                      for col, ks in zip(cols, steps)]
            for col, new in zip(cols, cosets):
                col += new
            if len(cols[0]) == dabs:    # the whole group: no later generator adds to it
                break
            members.update(zip(*cosets))
    if len(cols[0]) != dabs:
        raise AssertionError(f"{len(cols[0])} box residues for normalized volume {dabs}")
    return cols


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    """The divisors of n >= 1, ascending."""
    low = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return tuple(low + [n // k for k in reversed(low) if k * k != n])


def moment_halfopen(s: HalfOpenSimplex, r: int, n: int) -> SymTensor:
    """Rank-r moment of the dilate n*S*, by direct strict/weak enumeration."""
    if n < 0 or r < 0:
        raise ValueError("rank and dilation must be nonnegative")
    shadows = [[(a, n * c) for a, c in level] for level in shadow_levels(s.facets(), s.vertices)]
    rows = scan_rows(s.bounds(n), s.constraints(n), shadows)
    (closed,) = row_moments(rows, r, s.dim, CLOSED)[r]
    return SymTensor.from_entries(r, s.dim, closed)


def hr_halfopen(s: HalfOpenSimplex, r: int) -> HrVector:
    """h-tensor vector of a half-open simplex from its box points.

    The numerator of ``sum_n L^r(nS*) t^n`` over ``(1-t)^(d+r+1)`` is a sum
    over compositions ``r = k_0 + ... + k_(d+1)`` of unnormalized symmetric
    products of vertex powers ``v_j^(k_j)`` with rank-k_0 slice moments (the
    chain carries the multinomial ``r!/(k_0! ... k_(d+1)!)``), times
    ``(1-t)^(k_0) A_(k_1)(t) ... A_(k_(d+1))(t)`` and the slice height
    marker t^i.  The product is bilinear, so the sum factors through the
    vertex parts of each rank (see :func:`_hr_sums`, whose one-cell, one-rank
    case this is).  Works in any dimension and rank.
    """
    return _hr_sums([(s, box_slices(s))], (r,))[0]


def _hr_sums(cells, ranks) -> list[HrVector]:
    """The h-tensor vectors, one per rank in ``ranks``, of the union of the
    half-open ``cells``, given as ``(simplex, box)`` pairs with box its
    :func:`box_slices`; cells that partition a polytope give the polytope's.

    ``parts[k](t)`` is the rank-k vertex part of a cell: the sum over
    compositions ``k = k_1 + ... + k_(d+1)`` of the products of the
    ``v_j^(k_j)``, weighted by ``A_(k_1)(t) ... A_(k_(d+1))(t)``.  As a power
    series in z, one vertex contributes ``F(v z)`` with ``log F(z) = log sum_c
    A_c(t) z^c/c! = log(1-t) - log(1 - t e^((1-t)z)) = sum_(c>=1) B_c(t)
    z^c/c!``, where ``B_c = A_(max(c-1, 1))``, so the parts come from the
    vertex power sums by Newton's recurrence with weights ``c B_c(t)``: one
    call of :func:`~ehrtensor.tensors._newton_columns` for all the cells, one
    column per cell, serves every rank up to the largest asked for.  It
    takes each distinct vertex once and each cell as a tuple of indices, so
    a vertex that several cells share has its powers built once.  The
    rank-q numerator is ``sum_(k_0) (1-t)^(k_0) parts[q-k_0](t) S_(k_0)(t)``,
    where ``S_k(t) = sum_i t^i (rank-k moment of slice i)``; the slice
    moments of every rank come from the box's coordinate columns, enumerated
    once and grouped by height (:meth:`BoxSlices.moments`).  The products
    ``parts[q-k_0](t) S_(k_0)(t)`` are added up on integer entry lists
    across the cells, the sums are weighed by ``(1-t)^(k_0)`` once, by
    Horner's rule in (1-t) from k_0 = q down, and only the numerators become
    :class:`~ehrtensor.tensors.SymTensor` values.
    """
    if min(ranks) < 0:
        raise ValueError("rank must be nonnegative")
    top = max(ranks)
    d = cells[0][0].dim
    points: dict[IntPoint, int] = {}       # each distinct vertex once, shared by its cells
    faces = [tuple(points.setdefault(v, len(points)) for v in s.vertices) for s, _ in cells]
    weights = [[c * a for a in eulerian_polynomial(max(c - 1, 1))] for c in range(top + 1)]
    # parts[k][deg][j]: the entries of the t^deg coefficient of the rank-k vertex part of cell j
    parts = [{deg: list(zip(*cols)) for deg, cols in by_deg.items()}
             for by_deg in _newton_columns(list(points), faces, top, d, weights)]
    # sums[j][k_0][deg]: the t^deg entries of parts[r-k_0](t) S_(k_0)(t), r = ranks[j]
    sums: list[list[dict[int, list[int]]]] = [[{} for _ in range(r + 1)] for r in ranks]
    for j, (_, box) in enumerate(cells):
        moments = box.moments(top)
        nonempty = [i for i, (count,) in enumerate(moments[0]) if count]
        for by_k0, r in zip(sums, ranks):
            for k0, products in enumerate(by_k0):
                for deg, xs in parts[r - k0].items():
                    x = xs[j]
                    for i in nonempty:
                        _add_scaled(products, deg + i,
                                    _product_entries(x, moments[k0][i], d, r - k0, k0), 1)
    hs = []
    for by_k0, r in zip(sums, ranks):
        out: dict[int, list[int]] = {}      # sum_(k_0) (1-t)^(k_0) sums[j][k_0]
        for products in reversed(by_k0):    # out <- products + (1-t) out, k_0 = r..0
            shifted = dict(out)
            for deg, x in out.items():
                _add_scaled(shifted, deg + 1, x, -1)
            for deg, x in products.items():
                _add_scaled(shifted, deg, x, 1)
            out = shifted
        if max(out) > d + r:
            raise AssertionError("numerator degree exceeded d+r")
        zero = (0,) * entry_count(d, r)
        hs.append(HrVector(tuple(SymTensor(r, d, tuple(out.get(n, zero)))
                                 for n in range(d + r + 1))))
    return hs


def _add_scaled(poly: dict[int, list[int]], deg: int, x: list[int], c: int) -> None:
    """``poly[deg] += c * x`` on entry lists, c = 1 or -1, creating the coefficient
    if absent.

    The lists are never changed in place, so ``poly[deg]`` may be x itself."""
    if deg not in poly:
        poly[deg] = x if c == 1 else [-b for b in x]
    else:
        poly[deg] = list(map(add if c == 1 else sub, poly[deg], x))


def _slice_lookup(s: HalfOpenSimplex, max_rank: int):
    """``l(k, i)``: rank-k moment of box slice i of a triangle, zero off 0..2."""
    if s.dim != 2:
        raise ValueError("closed form is two-dimensional")
    lk = [[SymTensor(k, 2, tuple(m)) for m in ms]
          for k, ms in enumerate(box_slices(s).moments(max_rank))]
    return lambda k, i: lk[k][i] if 0 <= i <= 2 else SymTensor.zero(k, 2)


def h1_halfopen_2d(s: HalfOpenSimplex) -> HrVector:
    """Closed 2D vector form: h_i = L^1(S_i) - L^1(S_(i-1)) + L(S_(i-1)) (v1+v2+v3)."""
    l = _slice_lookup(s, 1)
    vsum = outer_power([sum(v[i] for v in s.vertices) for i in range(2)], 1, 2)
    entries = []
    for i in range(4):
        term = l(1, i) - l(1, i - 1) + vsum * l(0, i - 1).as_scalar()
        entries.append(term)
    return HrVector(tuple(entries))


def h2_halfopen_2d(s: HalfOpenSimplex) -> HrVector:
    """Closed 2D matrix form built from slice moments of rank 0..2."""
    l = _slice_lookup(s, 2)
    vsum_vec = outer_power([sum(v[i] for v in s.vertices) for i in range(2)], 1, 2)
    sq_sum = moment_of_points(s.vertices, 2, 2)
    vsum_sq = outer_power([sum(v[i] for v in s.vertices) for i in range(2)], 2, 2)
    entries = []
    for i in range(5):
        term = l(2, i) - l(2, i - 1) * 2 + l(2, i - 2)
        term = term + sym_product(vsum_vec, l(1, i - 1) - l(1, i - 2))
        term = term + sq_sum * l(0, i - 1).as_scalar()
        term = term + vsum_sq * l(0, i - 2).as_scalar()
        entries.append(term)
    return HrVector(tuple(entries))


# ---------------------------------------------------------------------------
# JSON: {"vertices": [[...], ...], "removed": [0-based indices]}

def halfopen_to_json(s: HalfOpenSimplex) -> dict:
    return {"vertices": [list(v) for v in s.vertices],
            "removed": sorted(s.removed)}


def halfopen_from_json(data: dict) -> HalfOpenSimplex:
    if not isinstance(data, dict) or "vertices" not in data:
        raise ValueError("half-open simplex JSON needs a 'vertices' array")
    return HalfOpenSimplex.make(data["vertices"], data.get("removed", ()))
