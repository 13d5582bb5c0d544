"""Half-open lattice simplices and their moment generating functions.

A half-open simplex is a simplex with a subset of facets removed (facet i
is the one opposite vertex i; indices are 0-based).  Lifting the vertices to
height 1 tiles the cone over the simplex by translates of a half-open
parallelepiped; its integer points, graded by height, are the box points.
The h-tensor vector of the half-open simplex then comes out of an explicit
numerator formula whose polynomial ingredients are Eulerian polynomials, the
generating numerators of ``sum_n n^j t^n``.

Any triangulation of a polytope, in any dimension, splits into half-open
cells that partition it (:func:`half_open_decomposition`), so the moments
and h-vectors of the cells add up to the polytope's with no
inclusion-exclusion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from operator import mul

from . import linalg
from .ehrhart import row_moments
from .polytopes import checked_int, scan_rows
from .tensors import (HrVector, IntPoint, SymTensor, dot, moment_of_points,
                      outer_power, sym_product)


# ---------------------------------------------------------------------------
# integer univariate polynomials

@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial with exact integer coefficients, low degree first."""

    coeffs: tuple[int, ...]

    @staticmethod
    def _trim(cs) -> tuple[int, ...]:
        cs = list(cs)
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly(self._trim(map(sum, zip_longest(self.coeffs, other.coeffs, fillvalue=0))))

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.coeffs or not other.coeffs:
            return UniPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(self._trim(out))

    def __pow__(self, k: int) -> "UniPoly":
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        result = UniPoly((1,))
        for _ in range(k):
            result = result * self
        return result


ONE_MINUS_T = UniPoly((1, -1))


@lru_cache(maxsize=None)
def eulerian_polynomial(j: int) -> UniPoly:
    """Numerator of sum_{n>=0} n^j t^n over (1-t)^(j+1), with 0^0 = 1.

    ``A_j(t) = sum_{n=0..j} sum_{i=0..n} (-1)^i C(j+1, i) (n-i)^j t^n``;
    the coefficients are positive and add up to j!.
    """
    if j < 0:
        raise ValueError("index must be nonnegative")
    return UniPoly(UniPoly._trim(
        sum((-1) ** i * math.comb(j + 1, i) * (n - i) ** j for i in range(n + 1))
        for n in range(j + 1)))


# ---------------------------------------------------------------------------
# half-open simplices

def _lifted(vertices) -> list[list[int]]:
    """The matrix with columns (v_j, 1)."""
    return [list(c) for c in zip(*vertices)] + [[1] * len(vertices)]


@dataclass(frozen=True)
class HalfOpenSimplex:
    """Lattice simplex with the facets opposite ``removed`` vertices deleted."""

    vertices: tuple[IntPoint, ...]
    removed: frozenset[int]

    def __post_init__(self):
        if not self.vertices or not self.vertices[0]:
            raise ValueError("a simplex needs vertices with at least one coordinate")
        d = len(self.vertices[0])
        if any(len(v) != d for v in self.vertices):
            raise ValueError("vertices have mixed dimensions")
        if len(self.vertices) != d + 1:
            raise ValueError(f"a {d}-simplex needs {d + 1} vertices")
        if self.lifted_det() == 0:
            raise ValueError("vertices are affinely dependent")
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

    def lifted_det(self) -> int:
        return linalg.int_det(_lifted(self.vertices))

    def normalized_volume(self) -> int:
        return abs(self.lifted_det())

    def barycentric_rows(self) -> tuple[list[list[int]], int]:
        """``(rows, D)``: D = |det| and rows a_i of D times the inverse of the
        matrix with columns (v_j, 1).

        A point z of Z^(d+1) has barycentric coordinate ``a_i.z / D`` for vertex i.
        """
        return linalg.int_inverse(_lifted(self.vertices))

    def facets(self) -> list[tuple[IntPoint, int]]:
        """Facet i as (normal, rhs), polytope side normal.x <= rhs, for i = 0..d.

        From ``a_i.(x, 1) >= 0`` with the barycentric row a_i and g the gcd of
        ``a_i[:d]``: normal ``-a_i[:d]/g``, rhs ``a_i[d]/g``.
        """
        d = self.dim
        out = []
        for a in self.barycentric_rows()[0]:
            g = linalg.gcd_vector(a[:d])
            out.append((tuple(-x // g for x in a[:d]), a[d] // g))
        return out

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
    """
    if not simplices:
        return []
    d = len(points[0])
    lifted_sum = [sum(points[i][j] for i in simplices[0]) for j in range(d)] + [d + 1]
    cells = []
    for simplex in simplices:
        vertices = tuple(tuple(map(checked_int, points[i])) for i in simplex)
        removed = frozenset(
            i for i, a in enumerate(linalg.int_inverse(_lifted(vertices))[0])
            if next(x for x in (dot(a, lifted_sum),) + tuple(a[:d]) if x) < 0)
        cells.append(HalfOpenSimplex(vertices, removed))
    return cells


@dataclass(frozen=True)
class BoxSlices:
    """Integer points of the half-open parallelepiped, graded by height.

    ``slices[i]`` holds the points at last (lifted) coordinate i, projected
    back to Z^d; the total count equals the normalized volume.
    """

    slices: tuple[tuple[IntPoint, ...], ...]

    @property
    def total(self) -> int:
        return sum(len(s) for s in self.slices)


def box_slices(s: HalfOpenSimplex) -> BoxSlices:
    """Enumerate the box points of the lifted half-open parallelepiped.

    They are one representative per coset of the lattice spanned by the
    lifted vertices ``(v_j, 1)``, listed as in Koeppe-Verdoolaege (primal
    Barvinok, 2008) and Normaliz (Bruns-Ichim-Soeger, 2016).  With rows a_i
    of ``s.barycentric_rows()`` and D = |det|, the numerators ``a.z mod D``
    of z in Z^(d+1) form the group generated by the columns of the rows; it
    has D elements, found by closing {0} under each generator.  Residue a
    maps to ``z = sum_j a_j (v_j, 1) / D``, with a_j = D instead of 0 on
    removed facets; z[:d] goes to slice z[d], each slice sorted.
    """
    d = s.dim
    rows, dabs = s.barycentric_rows()
    group = [(0,) * (d + 1)]
    for gen in zip(*rows):
        # cosets H + k*gen of the subgroup H so far, until k*gen lies in H
        subgroup, members = list(group), set(group)
        shift = tuple(x % dabs for x in gen)
        while shift not in members:
            group += [tuple((x + y) % dabs for x, y in zip(a, shift)) for a in subgroup]
            shift = tuple((x + y) % dabs for x, y in zip(shift, gen))
    if len(group) != dabs:
        raise AssertionError(f"{len(group)} box residues for normalized volume {dabs}")
    coords = _lifted(s.vertices)
    slices: list[list[IntPoint]] = [[] for _ in range(d + 1)]
    for a in group:
        a = [dabs if x == 0 and j in s.removed else x for j, x in enumerate(a)]
        z = [divmod(sum(map(mul, c, a)), dabs) for c in coords]
        if any(rem for _, rem in z):
            raise AssertionError(f"box residue {a} is not a lattice point")
        slices[z[d][0]].append(tuple(q for q, _ in z[:d]))
    return BoxSlices(tuple(tuple(sorted(sl)) for sl in slices))


def moment_halfopen(s: HalfOpenSimplex, r: int, n: int) -> SymTensor:
    """Rank-r moment of the dilate n*S*, by direct strict/weak enumeration."""
    if n < 0 or r < 0:
        raise ValueError("rank and dilation must be nonnegative")
    closed, _ = row_moments(scan_rows(s.bounds(n), s.constraints(n)), r, s.dim)
    return SymTensor.from_entries(r, s.dim, closed)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def hr_halfopen(s: HalfOpenSimplex, r: int) -> HrVector:
    """h-tensor vector of a half-open simplex from its box points.

    Assembles the numerator of ``sum_n L^r(nS*) t^n`` over
    ``(1-t)^(d+r+1)`` as a sum over compositions ``r = k_0 + ... + k_(d+1)``
    of unnormalized symmetric products of vertex powers with slice moments
    (the chain carries the multinomial ``r!/(k_0! ... k_(d+1)!)``), times
    ``(1-t)^(k_0) A_(k_1)(t) ... A_(k_(d+1))(t)`` and the slice height
    marker t^i.  The product is bilinear, so the vertex parts are summed per
    (k_0, t-degree) first.  Works in any dimension and rank.
    """
    return _hr_from_box(s, r, box_slices(s))


def _hr_from_box(s: HalfOpenSimplex, r: int, box: BoxSlices) -> HrVector:
    """Assembly of ``hr_halfopen``: one product per (k_0, t-degree, slice)."""
    if r < 0:
        raise ValueError("rank must be nonnegative")
    d = s.dim
    weights = [{} for _ in range(r + 1)]    # [k_0][t-degree] -> sum of c * vertex part
    for comp in _compositions(r, d + 2):
        poly = ONE_MINUS_T ** comp[0]
        vertex_part = SymTensor.scalar(d, 1)
        for v, kj in zip(s.vertices, comp[1:]):
            if kj:
                poly = poly * eulerian_polynomial(kj)
                vertex_part = sym_product(vertex_part, outer_power(v, kj, d))
        w = weights[comp[0]]
        for deg, c in enumerate(poly.coeffs):
            if c:
                w[deg] = w[deg] + vertex_part * c if deg in w else vertex_part * c
    out = [SymTensor.zero(r, d) for _ in range(d + r + 1)]
    for moments, w in zip(_slice_data(box, r, d), weights):
        for i, base in enumerate(moments):
            if base.is_zero:
                continue
            for deg, tensor in w.items():
                if i + deg >= len(out):
                    raise AssertionError("numerator degree exceeded d+r")
                out[i + deg] = out[i + deg] + sym_product(tensor, base)
    return HrVector(tuple(out))


def _slice_data(box: BoxSlices, max_rank: int, dim: int):
    return [[moment_of_points(pts, k, dim) for pts in box.slices]
            for k in range(max_rank + 1)]


def _slice_lookup(s: HalfOpenSimplex, max_rank: int):
    """``l(k, i)``: rank-k moment of box slice i of a triangle, zero off 0..2."""
    if s.dim != 2:
        raise ValueError("closed form is two-dimensional")
    lk = _slice_data(box_slices(s), max_rank, 2)
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
