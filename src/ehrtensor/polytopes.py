"""Lattice polytopes in small dimension with exact facet and point machinery.

V-representation in, facets derived from one boundary built by the hull and
kept on the polytope: a polygon's monotone-chain edges, and above 2D the
boundary of one integer beneath-beyond placing triangulation, whose starting
simplex reads the planes and lattice volumes of its faces off the barycentric
rows of one integer inverse, and every later face takes them from the two
known planes at its horizon ridge.  A translate is the hull of its moved
vertices, so it keeps a boundary too; only a hand-built polytope re-hulls.
Lattice point enumeration runs in one axis order per polytope, the cheapest
by the projected volumes of its boundary, and clips each prefix level exactly
by the facets of a projection (Fourier-Motzkin shadows), so no epsilon
appears anywhere.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from operator import mul
from typing import Iterable, Sequence

from .linalg import affine_basis, cross2, int_inverse
from .tensors import IntPoint, dot, vadd


def checked_int(x) -> int:
    """x itself when it is an int; bools, floats and other types raise ValueError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer, got {x!r}")
    return x


class DegenerateInputError(ValueError):
    """Input points do not affinely span their ambient space."""

    def __init__(self, affine_dim: int, ambient_dim: int):
        self.affine_dim = affine_dim
        self.ambient_dim = ambient_dim
        super().__init__(
            f"points span an affine subspace of dimension {affine_dim} "
            f"inside ambient dimension {ambient_dim}")


@dataclass(frozen=True)
class FacetIneq:
    """Half-plane normal . x <= rhs with primitive integer normal."""

    normal: IntPoint
    rhs: int


@dataclass(frozen=True)
class Polytope:
    """Full-dimensional lattice polytope: irredundant vertices plus facets.

    Equality and hash are field-wise.  Work derived from the fields (the
    boundary, the shadows, the scans of the dilates) is kept on the
    polytope itself, filled on demand and freed with it.
    """

    dim: int
    vertices: tuple[IntPoint, ...]
    facets: tuple[FacetIneq, ...]

    def contains(self, x: Sequence[int], n: int = 1, strict: bool = False) -> bool:
        """Membership of x in the dilate n*P (strict: relative interior)."""
        for f in self.facets:
            s = dot(f.normal, x)
            if strict and s >= n * f.rhs:
                return False
            if not strict and s > n * f.rhs:
                return False
        return True

    @cached_property
    def boundary(self):
        """``(points, faces)``: a triangulation of the boundary as ``(face,
        (normal, rhs), volume)`` triples, the boundary form of
        :func:`placing_triangulation`, each face indexing ``points``.
        :func:`convex_hull` keeps the one it built on its sorted input
        points: a polygon's chain edges, and above 2D a triangulation whose
        corners may be non-vertex points.  A translate is such a hull; only a
        hand-built polytope re-hulls its vertices, once, on first use."""
        return convex_hull(self.vertices).boundary

    @cached_property
    def scan_order(self) -> tuple[int, ...]:
        """The axes in the order the lattice scans run them: scan axis k is axis
        ``scan_order[k]``, and each row runs along the last one.

        From dim 3 on, the axes by decreasing ``sum_F g_F |n_F[i]|`` over the
        faces of :attr:`boundary`, ties in index order.  That weight is twice
        the volume of the projection along axis i (Cauchy's projection
        formula), and a dilate has about as many rows as lattice points in its
        projection along the last scan axis.  Below dim 3 the identity: on the
        180 seed-1 pick-2d polygons of ``bench/`` the weight rule reorders 75,
        and their items ran about 2% slower for it (``item_ms_p50`` 1.022x)."""
        if self.dim < 3:
            return tuple(range(self.dim))
        weights = [0] * self.dim
        for _, (normal, _), g in self.boundary[1]:
            for i, a in enumerate(normal):
                weights[i] += g * abs(a)
        return tuple(sorted(range(self.dim), key=lambda i: -weights[i]))

    @cached_property
    def shadows(self):
        """:func:`shadow_levels` of the facets in the scan frame, coordinate k
        being axis ``scan_order[k]``, built once per polytope."""
        order = self.scan_order
        return shadow_levels([(_in_frame(f.normal, order), f.rhs) for f in self.facets],
                             [_in_frame(v, order) for v in self.vertices])

    @cached_property
    def dilates(self) -> dict:
        """Work on the dilates nP, kept as long as the polytope: n -> the rows of
        :func:`dilate_rows`, in the scan frame, scanned or read off the rows of a
        stored multiple of n; ``(n, side)`` -> the moments of
        ranks 0..top of the last pass over them, of nP (side ``"closed"``) or
        nP° (``"interior"``); ``"boundary"`` -> the integer sums behind the
        volume and facet moments of ranks 0..top, the top two coefficients of
        the moment polynomial in n, from one pass over :attr:`boundary`."""
        return {}

    def translate(self, t: Sequence[int]) -> "Polytope":
        t = tuple(map(checked_int, t))
        return convex_hull(vadd(v, t) for v in self.vertices)


def _hull_2d(pts: Sequence[IntPoint]) -> list[IntPoint]:
    """Monotone chain over sorted, distinct points: the CCW vertex cycle without
    collinear points, or the points themselves when there are at most two."""
    if len(pts) <= 2:
        return list(pts)
    lower: list[IntPoint] = []
    for p in pts:
        while len(lower) >= 2 and cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[IntPoint] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _in_frame(x: Sequence[int], order: Sequence[int]) -> IntPoint:
    """The coordinates of x in the frame whose axis k is axis ``order[k]``."""
    return tuple(map(x.__getitem__, order))


def _lifted(vertices) -> list[list[int]]:
    """The matrix with columns (v_j, 1)."""
    return [list(c) for c in zip(*vertices)] + [[1] * len(vertices)]


def barycentric_facets(rows: Sequence[Sequence[int]]) -> list[tuple[tuple[IntPoint, int], int]]:
    """Facet i of a d-simplex as ``((normal, rhs), g)``, i = 0..d, from the rows
    a_i of ``int_inverse(_lifted(vertices))[0]``.

    Facet i, opposite vertex i, is ``a_i.(x, 1) >= 0`` on the simplex.  With g
    the gcd of ``a_i[:d]``, its primitive plane is ``normal . x <= rhs``,
    normal ``-a_i[:d]/g`` and rhs ``a_i[d]/g``.  The entries of a_i are signed
    maximal minors of the facet's lifted vertices, so g is the facet's volume
    in the lattice of its plane.
    """
    d = len(rows) - 1
    out = []
    for a in rows:
        g = math.gcd(*a[:d])
        out.append(((tuple(-x // g for x in a[:d]), a[d] // g), g))
    return out


def placing_triangulation(points: Sequence[Sequence[int]]) -> tuple[
        list[tuple[int, ...]], list[tuple[tuple[int, ...], tuple[IntPoint, int], int]]]:
    """Beneath-beyond placing triangulation of integer points, in the order given.

    Starts from the first d+1 affinely independent points; every later point
    q is coned over the boundary simplices it sees strictly
    (``normal . q > rhs``), and is skipped when it sees none.  Returns
    ``(simplices, boundary)``: the simplices as tuples of d+1 indices into
    ``points``; the boundary as ``(face, (normal, rhs), volume)`` triples, one
    per boundary simplex: its d sorted indices, its primitive plane,
    ``normal . x <= rhs`` on the hull, and its volume in the lattice of that
    plane, the gcd of the cofactor normal of its edges.  Raises
    :class:`DegenerateInputError` when the points do not span Z^d.

    The d+1 faces of the starting simplex read their planes and volumes off
    one integer inverse (:func:`barycentric_facets`).  A new
    face R + q lies in the pencil of planes through its horizon ridge R
    (Joswig, "Beneath-and-beyond revisited", 2003): with F = R + f the
    visible face on R, G the face across R and ``a = normal . q - rhs``
    their heights (``a_F > 0 >= a_G``), its plane is
    ``a_F (n_G . x - r_G) - a_G (n_F . x - r_F) <= 0``, divided by the gcd
    of its normal, and its volume is ``g_F a_F / (rhs - normal . f)``, since
    ``g_F a_F`` and that volume times ``rhs - normal . f`` are both |det| of
    the simplex R + f + q.
    """
    pts = [tuple(p) for p in points]
    d = len(pts[0])
    first = affine_basis(pts)
    if len(first) <= d:
        raise DegenerateInputError(len(first) - 1, d)
    boundary = {}       # boundary simplex (sorted indices) -> ((normal, rhs), volume)
    ridges = {}         # ridge (d-1 sorted indices) -> the two boundary simplices on it

    def link(face, skip=None):
        for j in range(d):
            if face[j] != skip:
                ridges.setdefault(face[:j] + face[j + 1:], []).append(face)

    rows, _ = int_inverse(_lifted([pts[i] for i in first]))
    for j, entry in enumerate(barycentric_facets(rows)):
        face = first[:j] + first[j + 1:]
        boundary[face] = entry
        link(face)
    simplices = [first]
    for k, q in enumerate(pts):
        if k in first:
            continue
        heights = {face: a for face, ((normal, rhs), _) in boundary.items()
                   if (a := sum(map(mul, normal, q)) - rhs) > 0}
        # A ridge lies on two boundary simplices.  It is on the horizon when
        # only one of them, F, is visible; the new face ridge + q then takes
        # F's place on it, and points away from F's vertex off the ridge.
        horizon = {}
        for face in heights:
            simplices.append(face + (k,))
            for j in range(d):
                ridge = face[:j] + face[j + 1:]
                if horizon.pop(ridge, None) is None:
                    horizon[ridge] = face, face[j]
                else:
                    del ridges[ridge]
        added = []
        for ridge, (visible, f) in horizon.items():
            on = ridges[ridge]
            i = on.index(visible)
            (nf, rf), gf = boundary[visible]
            (ng, rg), _ = boundary[on[1 - i]]
            af, ag = heights[visible], sum(map(mul, ng, q)) - rg
            normal = [af * y - ag * x for x, y in zip(nf, ng)]
            c = math.gcd(*normal)
            normal = tuple(x // c for x in normal)
            rhs = (af * rg - ag * rf) // c
            on[i] = face = tuple(sorted(ridge + (k,)))
            added.append((face, ((normal, rhs), gf * af // (rhs - sum(map(mul, normal, pts[f]))))))
        for face in heights:
            del boundary[face]
        for face, entry in added:
            boundary[face] = entry
            link(face, k)
    return simplices, [(face, plane, g) for face, (plane, g) in boundary.items()]


def convex_hull(points: Iterable[Sequence[int]]) -> Polytope:
    """Convex hull of integer points: irredundant vertex set plus facet list.

    The boundary is built once, on the sorted input points: in 2D the edges
    of the monotone chain (:func:`_hull_2d`), above it the boundary of
    :func:`placing_triangulation`, as the same ``(face, (normal, rhs),
    volume)`` triples, and the polytope keeps it as its
    :attr:`Polytope.boundary`.  Facets are its distinct planes.  The vertices
    are the chain's in 2D.  Above it, each point's facets are read off the
    boundary, those of the faces it is a corner of, and a corner is a vertex
    iff no other corner has each of its facets.  That is the rule "no other
    point lies on every facet it lies on": every vertex is a corner, a corner
    lies on a facet iff it is a corner of a face on it, and a point the
    triangulation skipped or covered dominates no vertex, whose facets meet
    in it alone.  Raises :class:`DegenerateInputError`
    when the points are not full-dimensional in their ambient space: in 2D
    when the chain's cycle has fewer than three points.
    """
    pts = tuple(sorted(set(tuple(map(checked_int, p)) for p in points)))
    if not pts:
        raise ValueError("no input points")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("points have mixed dimensions")
    if d == 0:
        raise ValueError("points need at least one coordinate")

    if d == 2:
        cycle = _hull_2d(pts)
        if len(cycle) < 3:
            raise DegenerateInputError(len(cycle) - 1, 2)
        index = {p: k for k, p in enumerate(pts)}
        boundary = []
        for u, w in zip(cycle, cycle[1:] + cycle[:1]):
            # the chain runs counterclockwise, so (dy, -dx) points outward
            dx, dy = w[0] - u[0], w[1] - u[1]
            g = math.gcd(dx, dy)
            normal = (dy // g, -dx // g)
            boundary.append((tuple(sorted((index[u], index[w]))), (normal, dot(normal, u)), g))
        vertices = tuple(sorted(cycle))
    else:
        _, boundary = placing_triangulation(pts)
    planes = sorted({plane for _, plane, _ in boundary})
    if d != 2:
        # bit i of masks[k] is set when point k is a corner of a face on facet i
        bits = {plane: 1 << i for i, plane in enumerate(planes)}
        masks = [0] * len(pts)
        for face, plane, _ in boundary:
            for k in face:
                masks[k] |= bits[plane]
        corners = [(k, m) for k, m in enumerate(masks) if m]
        vertices = tuple(pts[k] for k, m in corners
                         if not any(o & m == m for j, o in corners if j != k))
    p = Polytope(d, vertices, tuple(FacetIneq(n, r) for n, r in planes))
    object.__setattr__(p, "boundary", (pts, tuple(boundary)))
    return p


# ---------------------------------------------------------------------------
# exact lattice point scanning

def shadow_levels(facets: Sequence[tuple[IntPoint, int]], points: Sequence[IntPoint]
                  ) -> tuple[tuple[tuple[IntPoint, int], ...], ...]:
    """Level k = 0..d-2: pairs over coordinates 0..k valid on conv(points), among them
    every facet of its projection ("shadow"), by Fourier-Motzkin elimination from
    ``facets``.  Eliminating coordinate k keeps the pairs with a zero coefficient k
    and adds, divided by their gcd, the combination of each opposite pair tight on k
    common projected points: a facet of the projection is the image of a ridge with
    k vertices (Ziegler, *Lectures on Polytopes*, Lecture 1).  Level 0 is an interval."""
    level, out = sorted({(tuple(a), c) for a, c in facets}), []
    for k in range(len(points[0]) - 1, 1, -1):
        pts = list({p[:k + 1] for p in points})

        def tight(pairs):   # per pair, bit i set when projected point i lies on it
            return [(a, c, sum(1 << i for i, q in enumerate(pts) if sum(map(mul, a, q)) == c))
                    for a, c in pairs]

        nxt = {(a[:k], c) for a, c in level if not a[k]}
        ups = tight((a, c) for a, c in level if a[k] > 0)
        for b, e, down in tight((b, e) for b, e in level if b[k] < 0):
            for a, c, up in ups:
                if (up & down).bit_count() >= k:
                    normal = [a[k] * y - b[k] * x for x, y in zip(a[:k], b)]
                    g = math.gcd(*normal, a[k] * e - b[k] * c)
                    nxt.add((tuple(x // g for x in normal), (a[k] * e - b[k] * c) // g))
        out.append(level := tuple(sorted(nxt)))
    lo, hi = min(p[0] for p in points), max(p[0] for p in points)
    return ((((-1,), -lo), ((1,), hi)), *reversed(out))[:len(points[0]) - 1]


def scan_rows(bounds: Sequence[tuple[int, int]],
              constraints: Sequence[tuple[IntPoint, int]],
              shadows: Sequence[Sequence[tuple[IntPoint, int]]]
              ) -> list[tuple[IntPoint, int, int, int, int]]:
    """Integer points in a box satisfying linear constraints, as a list of rows.

    ``constraints`` are ``(normal, rhs)`` pairs meaning ``normal . x <= rhs``;
    over the integers a strict ``<`` is ``<= rhs - 1`` and an equality a pair
    of opposite inequalities.  For every prefix of the first d-1 coordinates
    that admits a point, in lexicographic order, the list holds
    ``(prefix, lo, hi, slo, shi)``: the last coordinate runs over ``[lo, hi]``
    under the constraints and over ``[slo, shi]`` with every one strict, an
    empty interval when the prefix lies on a constraint parallel to the last
    axis.  Prefix level k is clipped by the box and the pairs of ``shadows[k]``
    with a nonzero coefficient k (:func:`shadow_levels`).  Each 2D slice (fixed
    first d-2 coordinates) is one loop over coordinate d-2 with one division per
    inequality and row: ``(t-1)//a == t//a - 1`` exactly when a divides t, so
    ``shi = hi - 1`` iff ``a*hi == t`` for a remainder t with positive last
    coefficient a, and likewise ``slo = lo + 1``.
    """
    d = len(bounds)
    if d == 0:
        raise ValueError("row scan needs at least one coordinate")
    if d == 1:      # one slice, under a dummy first coordinate fixed at 0
        rows = scan_rows([(0, 0), *bounds], [((0, *a), c) for a, c in constraints], [()])
        return [((), *row[1:]) for row in rows]
    last = d - 1
    ineqs = [(tuple(a), int(c)) for a, c in constraints]
    # positive, then negative, then zero coefficient of the last coordinate
    ineqs.sort(key=lambda q: (q[0][last] <= 0) + (q[0][last] == 0))
    npos = sum(a[last] > 0 for a, _ in ineqs)
    nneg = npos + sum(a[last] < 0 for a, _ in ineqs)
    # one remainder per inequality: each level's shadows, then the constraints
    levels = [[(a, c) for a, c in shadows[k] if a[k]] for k in range(last)]
    starts = list(accumulate(map(len, levels), initial=0))
    allq = [(tuple(a) + (0,) * (d - len(a)), c) for level in levels for a, c in level] + ineqs
    cols = [[a[k] for a, _ in allq] for k in range(d)]
    own = [cols[k][starts[k]:starts[k + 1]] for k in range(last)]
    rest = [cols[k][starts[k + 1]:] for k in range(last)]
    ycol, xcol, nown = cols[last][starts[last]:], rest[last - 1], len(own[last - 1])
    yup, ydown, xup, xdown, xflat = ycol[:npos], ycol[npos:nneg], xcol, xcol[npos:], xcol[nneg:]
    blo, bhi = bounds[last]
    out = []

    def level_range(level: int, pairs):
        lo, hi = bounds[level]
        for a, t in pairs:
            if a > 0:
                q = t // a
                if q < hi:
                    hi = q
            elif a < 0:
                q = -(t // -a)
                if q > lo:
                    lo = q
            elif t < 0:
                return range(0)
        return range(lo, hi + 1)

    def scan_slice(rem: list[int], prefix: IntPoint):
        # the x range keeps each remainder r - c x of a zero last coefficient
        # >= 0; the x where one is 0 are found once per slice
        shadow, rem = zip(own[last - 1], rem), rem[nown:]
        up = list(zip(yup, rem, xup))
        down = list(zip(ydown, rem[npos:], xdown))
        flat = list(zip(xflat, rem[nneg:]))
        xs = level_range(last - 1, chain(shadow, flat))
        tight = xs if (0, 0) in flat else {r // c for c, r in flat if c and not r % c}
        for x in xs:
            hi, top = bhi, False
            for a, r, c in up:
                t = r - c * x
                q = t // a
                if q < hi:
                    hi, top = q, q * a == t
                elif q == hi:
                    top = top or q * a == t
            lo, bot = blo, False
            for a, r, c in down:
                t = r - c * x
                q = -(-t // a)      # a < 0: the least y with a y <= t
                if q > lo:
                    lo, bot = q, q * a == t
                elif q == lo:
                    bot = bot or q * a == t
            if lo > hi:
                continue
            if x in tight:
                out.append((prefix + (x,), lo, hi, 1, 0))
            else:
                out.append((prefix + (x,), lo, hi, lo + bot, hi - top))

    def scan_level(level: int, rem: list[int], prefix: IntPoint):
        if level == last - 1:
            return scan_slice(rem, prefix)
        below, col = rem[len(own[level]):], rest[level]
        for x in level_range(level, zip(own[level], rem)):
            scan_level(level + 1, [t - a * x for t, a in zip(below, col)], prefix + (x,))

    scan_level(0, [c for _, c in allq], ())
    del scan_level      # its self-reference would hold every table until a gc pass
    return out


def dilate_bounds(p: Polytope, n: int) -> list[tuple[int, int]]:
    lo = [min(v[i] for v in p.vertices) * n for i in range(p.dim)]
    hi = [max(v[i] for v in p.vertices) * n for i in range(p.dim)]
    return list(zip(lo, hi))


def dilate_rows(p: Polytope, n: int) -> tuple[tuple[IntPoint, int, int, int, int], ...]:
    """:func:`scan_rows` of n*P: closed rows of nP, strict rows of nP°, in the
    frame of :attr:`Polytope.scan_order` (prefix coordinate k is axis
    ``scan_order[k]``, and each row runs along axis ``scan_order[-1]``).

    Made once per (polytope, n) into :attr:`Polytope.dilates`, so every
    rank's moments and the point lists read one set of rows.  For n >= 1, when
    the store holds the rows of a multiple N = q n, q >= 2 (the least such N),
    the rows of nP are read off them: x is in nP (nP°) iff qx is in NP (NP°),
    so they are the rows of NP whose prefix is divisible by q, with the prefix
    and the interval ends divided by q, rounded inward, and those left empty
    dropped.  Otherwise nP is scanned.  The rows live as long as the polytope:
    a large dilate (``moments --n`` big) holds all of its rows in memory until
    its polytope is dropped.
    """
    if n < 0:
        raise ValueError("dilation factor must be nonnegative")
    store = p.dilates
    if n not in store:
        multiple = n and min((m for m in store if type(m) is int and m > n and not m % n),
                             default=0)
        if multiple:
            q = multiple // n
            rows = []
            for prefix, lo, hi, slo, shi in store[multiple]:
                if not any(map(q.__rmod__, prefix)):
                    lo, hi = -(-lo // q), hi // q
                    if lo <= hi:
                        rows.append((tuple(map(q.__rfloordiv__, prefix)), lo, hi,
                                     -(-slo // q), shi // q))
            store[n] = tuple(rows)
        else:
            order = p.scan_order
            cons = [(_in_frame(f.normal, order), n * f.rhs) for f in p.facets]
            shadows = [[(a, n * c) for a, c in level] for level in p.shadows]
            store[n] = tuple(scan_rows(_in_frame(dilate_bounds(p, n), order), cons, shadows))
    return store[n]


def _points(p: Polytope, n: int, strict: bool) -> list[IntPoint]:
    """The points of nP (strict: of nP°) read off its rows, in the original
    frame and lexicographic order: each row's points are built in the original
    frame, with the row's coordinate at axis ``scan_order[-1]``, then sorted."""
    order = p.scan_order
    spans = ((prefix, slo, shi) if strict else (prefix, lo, hi)
             for prefix, lo, hi, slo, shi in dilate_rows(p, n))
    if order == tuple(range(p.dim)):
        return [prefix + (t,) for prefix, lo, hi in spans for t in range(lo, hi + 1)]
    back, a = tuple(map(order.index, range(p.dim))), order[-1]
    points = []
    for prefix, lo, hi in spans:
        x = _in_frame(prefix + (0,), back)
        head, tail = x[:a], x[a + 1:]
        points += [(*head, t, *tail) for t in range(lo, hi + 1)]
    points.sort()
    return points


def lattice_points(p: Polytope, n: int) -> list[IntPoint]:
    """All lattice points of the dilate n*P, in lexicographic order."""
    return _points(p, n, strict=False)


def interior_lattice_points(p: Polytope, n: int) -> list[IntPoint]:
    """Lattice points strictly inside n*P (n >= 1), in lexicographic order."""
    if n < 1:
        raise ValueError("interior enumeration needs n >= 1")
    return _points(p, n, strict=True)


def is_reflexive(p: Polytope) -> bool:
    """True iff every facet inequality is normal . x <= 1.

    Polytopes without the origin strictly inside are simply not reflexive.
    """
    return all(f.rhs == 1 for f in p.facets)


RANDOM_POLYTOPE_DRAWS = 200


def random_lattice_polytope(d: int, coord_bound: int, num_gens: int, seed: int) -> Polytope:
    """Convex hull of seeded uniform draws from the integer box.

    Generators are drawn coordinate-wise uniformly from
    ``[-coord_bound, coord_bound]`` with Python's Mersenne Twister
    (``random.Random(seed)``), so identical seeds give identical polytopes.
    Degenerate draws are retried from the same stream, RANDOM_POLYTOPE_DRAWS in all.
    """
    if num_gens < d + 1:
        raise ValueError("need at least d+1 generators")
    if coord_bound < 1:
        raise ValueError("coordinate bound must be positive")
    rng = random.Random(seed)
    for _ in range(RANDOM_POLYTOPE_DRAWS):
        pts = [tuple(rng.randint(-coord_bound, coord_bound) for _ in range(d))
               for _ in range(num_gens)]
        try:
            return convex_hull(pts)
        except DegenerateInputError:
            continue
    raise RuntimeError(f"no full-dimensional polytope after {RANDOM_POLYTOPE_DRAWS} draws")


# ---------------------------------------------------------------------------
# JSON round trip: {"dim": d, "vertices": [[...], ...]}

def polytope_to_json(p: Polytope) -> dict:
    return {"dim": p.dim, "vertices": [list(v) for v in p.vertices]}


def polytope_from_json(data: dict) -> Polytope:
    if not isinstance(data, dict) or "vertices" not in data:
        raise ValueError("polytope JSON needs a 'vertices' array")
    verts = data["vertices"]
    p = convex_hull(verts)
    if "dim" in data and checked_int(data["dim"]) != p.dim:
        raise ValueError(f"declared dim {data['dim']} != ambient dim {p.dim}")
    return p


def facet_to_json(f: FacetIneq) -> dict:
    return {"normal": list(f.normal), "rhs": f.rhs}
