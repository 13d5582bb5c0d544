"""Unimodular triangulations of lattice polygons and what they compute.

The triangulation is incremental: lattice points are inserted in a fixed
monotone (lexicographic-style) order, each new point joined to the hull
edges it sees.  Every point inserted is extreme among those seen so far, so
every created triangle has exactly its three corners as lattice points,
which makes unimodularity structural rather than repaired.

On top of the triangulation sit the edge-graph sums, the closed vector and
matrix formulas for h-vectors and dilation polynomials of polygons, and
sparse decompositions into pieces with three or four lattice points.  Its
half-open cells come from ``halfopen.half_open_decomposition(t.points,
t.triangles)``, the same routine that serves every dimension.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Sequence

from .linalg import affine_rank, cross2
from .polytopes import DegenerateInputError, Polytope, convex_hull, lattice_points
from .tensors import (HrVector, IntPoint, SymTensor, TensorPolynomial, dot,
                      moment_of_points)

INSERTION_ORDERS: dict[str, Callable[[IntPoint], tuple]] = {
    "lex": lambda p: (p[0], p[1]),
    "lex_down": lambda p: (p[0], -p[1]),
    "colex": lambda p: (p[1], p[0]),
    "colex_down": lambda p: (p[1], -p[0]),
}


@dataclass(frozen=True)
class Triangulation:
    """Unimodular triangulation on all lattice points of a polygon."""

    polygon: Polytope
    points: tuple[IntPoint, ...]
    triangles: tuple[tuple[int, int, int], ...]

    def triangle_points(self, tri: tuple[int, int, int]) -> tuple[IntPoint, IntPoint, IntPoint]:
        return self.points[tri[0]], self.points[tri[1]], self.points[tri[2]]

    @cached_property
    def _edge_stats(self) -> "EdgeStats":
        return _build_edge_stats(self)


def _oriented(pts: Sequence[IntPoint], a: int, b: int, c: int) -> tuple[int, int, int]:
    tri = (a, b, c) if cross2(pts[a], pts[b], pts[c]) > 0 else (a, c, b)
    k = tri.index(min(tri))
    return tri[k:] + tri[:k]


def unimodular_triangulation(p: Polytope, order: str = "lex") -> Triangulation:
    """Triangulate a lattice polygon into empty (area 1/2) triangles.

    ``order`` picks the insertion order; any listed order yields a valid
    unimodular triangulation, and different orders generally yield different
    ones (useful for cross-checking triangulation independence).
    """
    if p.dim != 2:
        raise ValueError("unimodular triangulation is a polygon operation")
    key = INSERTION_ORDERS[order]
    pts = tuple(sorted(lattice_points(p, 1), key=key))
    n = len(pts)
    triangles: list[tuple[int, int, int]] = []

    chain = [0, 1]
    k = 2
    while k < n and cross2(pts[chain[0]], pts[chain[-1]], pts[k]) == 0:
        chain.append(k)
        k += 1
    if k == n:
        raise AssertionError("polygon lattice points collinear")
    for i in range(len(chain) - 1):
        triangles.append(_oriented(pts, chain[i], chain[i + 1], k))
    if cross2(pts[chain[0]], pts[chain[-1]], pts[k]) > 0:
        cycle = chain + [k]
    else:
        cycle = list(reversed(chain)) + [k]
    nxt, prv = [0] * n, [0] * n         # the hull as a counterclockwise linked cycle
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        nxt[a], prv[b] = b, a
    # Point k is lexicographically largest so far, so point k-1 is a hull vertex
    # and [k-1, k] meets the hull only there: the arc that k sees touches k-1.
    for k in range(k + 1, n):
        q = pts[k]
        a = b = k - 1
        while cross2(pts[b], pts[nxt[b]], q) < 0:
            triangles.append(_oriented(pts, b, nxt[b], k))
            b = nxt[b]
        while cross2(pts[prv[a]], pts[a], q) < 0:
            triangles.append(_oriented(pts, prv[a], a, k))
            a = prv[a]
        nxt[a], prv[k], nxt[k], prv[b] = k, a, b, k

    return Triangulation(p, pts, tuple(sorted(triangles)))


# ---------------------------------------------------------------------------
# edge graph statistics

@dataclass(frozen=True)
class EdgeStats:
    """Vertex/edge classification of a triangulation plus its exact sums.

    V splits into interior and boundary lattice points; an edge is a
    boundary edge when its segment lies inside the polygon boundary
    (equivalently both endpoints share a polygon facet) and interior
    otherwise.
    """

    points: tuple[IntPoint, ...]
    edges: tuple[tuple[int, int], ...]
    interior_points: frozenset[int]
    boundary_points: frozenset[int]
    interior_edges: tuple[tuple[int, int], ...]
    boundary_edges: tuple[tuple[int, int], ...]
    sum_v: SymTensor            # sum over V of x
    sum_v_int: SymTensor        # sum over interior V
    sum_v_bd: SymTensor         # sum over boundary V
    sum_v_sq: SymTensor         # sum over V of x^2
    sum_v_int_sq: SymTensor
    sum_v_bd_sq: SymTensor
    sum_e_sq: SymTensor         # sum over E of (y+z)^2
    sum_e_int: SymTensor        # sum over interior E of (y+z)
    sum_e_int_sq: SymTensor
    sum_e_bd_sq: SymTensor
    sum_e_bd_diff_sq: SymTensor  # sum over boundary E of (y-z)^2


def edge_stats(t: Triangulation) -> EdgeStats:
    """Edge-graph classification and sums of a triangulation.

    The sums are built once per triangulation, on first use, and kept on
    the triangulation object; the four Pick formulas all read that result.
    """
    return t._edge_stats


def _build_edge_stats(t: Triangulation) -> EdgeStats:
    pts = t.points
    facets = [(f.normal[0], f.normal[1], f.rhs) for f in t.polygon.facets]
    # bit i of on_facet[k] is set when point k lies on facet i
    on_facet = [sum(1 << i for i, (a, b, c) in enumerate(facets) if a * x + b * y == c)
                for x, y in pts]
    edges = sorted({(a, b) if a < b else (b, a) for tri in t.triangles
                    for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2]))})

    interior_edges = []
    boundary_edges = []
    e_all = []
    e_int = []
    e_bd = []
    e_bd_diff = []
    for e in edges:
        (x0, y0), (x1, y1) = pts[e[0]], pts[e[1]]
        ends = (x0 + x1, y0 + y1)
        e_all.append(ends)
        if on_facet[e[0]] & on_facet[e[1]]:
            boundary_edges.append(e)
            e_bd.append(ends)
            e_bd_diff.append((x0 - x1, y0 - y1))
        else:
            interior_edges.append(e)
            e_int.append(ends)

    inner = [x for x, mask in zip(pts, on_facet) if not mask]
    sum_v = moment_of_points(pts, 1, 2)
    sum_v_int = moment_of_points(inner, 1, 2)
    sum_v_sq = moment_of_points(pts, 2, 2)
    sum_v_int_sq = moment_of_points(inner, 2, 2)
    return EdgeStats(
        points=pts,
        edges=tuple(edges),
        interior_points=frozenset(i for i, mask in enumerate(on_facet) if not mask),
        boundary_points=frozenset(i for i, mask in enumerate(on_facet) if mask),
        interior_edges=tuple(interior_edges),
        boundary_edges=tuple(boundary_edges),
        sum_v=sum_v,
        sum_v_int=sum_v_int,
        sum_v_bd=sum_v - sum_v_int,
        sum_v_sq=sum_v_sq,
        sum_v_int_sq=sum_v_int_sq,
        sum_v_bd_sq=sum_v_sq - sum_v_int_sq,
        sum_e_sq=moment_of_points(e_all, 2, 2),
        sum_e_int=moment_of_points(e_int, 1, 2),
        sum_e_int_sq=moment_of_points(e_int, 2, 2),
        sum_e_bd_sq=moment_of_points(e_bd, 2, 2),
        sum_e_bd_diff_sq=moment_of_points(e_bd_diff, 2, 2),
    )


def h1_pick(t: Triangulation) -> HrVector:
    """Rank-1 h-vector of a polygon from triangulation sums.

    ``(0, sum_V x, sum_{E int}(y+z) - 2 sum_{V int} x, sum_{V int} x)``.
    """
    s = edge_stats(t)
    return HrVector((SymTensor.zero(1, 2), s.sum_v,
                     s.sum_e_int - s.sum_v_int * 2, s.sum_v_int))


def h2_pick(t: Triangulation) -> HrVector:
    """Rank-2 h-vector of a polygon from triangulation sums.

    ``(0, sum_V x^2, sum_E (y+z)^2 - sum_V x^2,
    sum_{E int}(y+z)^2 - sum_{V int} x^2, sum_{V int} x^2)``.
    """
    s = edge_stats(t)
    return HrVector((SymTensor.zero(2, 2), s.sum_v_sq,
                     s.sum_e_sq - s.sum_v_sq,
                     s.sum_e_int_sq - s.sum_v_int_sq, s.sum_v_int_sq))


def ehrhart_vector_pick(t: Triangulation) -> TensorPolynomial:
    """Dilation polynomial of the rank-1 moment from triangulation sums."""
    s = edge_stats(t)
    sixth = Fraction(1, 6)
    c1 = (s.sum_v * 2 + s.sum_v_int * 4 - s.sum_e_int) * sixth
    c2 = s.sum_v_bd * Fraction(1, 2)
    c3 = (s.sum_v_bd + s.sum_e_int) * sixth
    return TensorPolynomial((SymTensor.zero(1, 2), c1, c2, c3))


def ehrhart_matrix_pick(t: Triangulation) -> TensorPolynomial:
    """Dilation polynomial of the rank-2 moment from triangulation sums."""
    s = edge_stats(t)
    c1 = s.sum_e_bd_diff_sq * Fraction(1, 12)
    c2 = (s.sum_v_sq * 12 + s.sum_v_int_sq * 12 - s.sum_e_sq - s.sum_e_int_sq) \
        * Fraction(1, 24)
    c3 = (s.sum_v_bd_sq * 2 + s.sum_e_bd_sq) * Fraction(1, 12)
    c4 = (s.sum_e_sq + s.sum_e_int_sq) * Fraction(1, 24)
    return TensorPolynomial((SymTensor.zero(2, 2), c1, c2, c3, c4))


# ---------------------------------------------------------------------------
# sparse decomposition: pieces with 3-4 lattice points meeting only at vertices

def _pieces_compatible(a: Polytope, b: Polytope) -> bool:
    """Condition for decomposition pieces: disjoint or one common vertex.

    Convex polygons with disjoint interiors lie on the two sides of the line
    of some facet of one of them; with no such facet the interiors overlap.
    Otherwise they meet only on that line, where each spans the segment
    between its vertices on it, compared by integer position along the line.
    """
    for p, q in ((a, b), (b, a)):
        for f in p.facets:
            if all(dot(f.normal, v) >= f.rhs for v in q.vertices):
                along = (-f.normal[1], f.normal[0])
                sp, sq = ([dot(along, v) for v in piece.vertices if dot(f.normal, v) == f.rhs]
                          for piece in (p, q))
                if not sq:
                    return True
                lo, hi = max(min(sp), min(sq)), min(max(sp), max(sq))
                return lo > hi or (lo == hi and lo in sp and lo in sq)
    return False


def _piece(points) -> Polytope | None:
    try:
        hull = convex_hull(points)
    except DegenerateInputError:
        return None
    return hull


def _count_ok(piece: Polytope, budget=(3, 4)) -> bool:
    return len(lattice_points(piece, 1)) in budget


def _pair_chain(apex: IntPoint, chain: list[IntPoint]) -> list[Polytope] | None:
    if len(chain) == 1:
        return None
    out = []
    i = 0
    n = len(chain)
    while i < n:
        rem = n - i
        if rem == 3:
            piece = _piece([apex, chain[i], chain[i + 2]])
            i += 3
        else:
            piece = _piece([apex, chain[i], chain[i + 1]])
            i += 2
        if piece is None:
            return None
        out.append(piece)
    return out


def _validate(pieces: list[Polytope], points: list[IntPoint]) -> bool:
    covered = set()
    for piece in pieces:
        pts = lattice_points(piece, 1)
        if len(pts) not in (3, 4):
            return False
        covered.update(pts)
    if covered != set(points):
        return False
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            if not _pieces_compatible(pieces[i], pieces[j]):
                return False
    return True


def _collinear_case(v1: IntPoint, v2: IntPoint, line_pts: list[IntPoint],
                    points: list[IntPoint]) -> list[Polytope] | None:
    """All remaining points on one line; v1, v2 are the two peeled points."""
    on_line = len(line_pts) >= 2 and cross2(line_pts[0], line_pts[1], v2) == 0
    candidates = []
    if on_line:
        # v2 extends the line; the unique off-line point is the only apex
        chain = [v2] + line_pts
        candidates.append((None, v1, chain))
    else:
        for p1_pts in ([v1, v2, line_pts[0]],
                       [v2, line_pts[0], line_pts[1]] if len(line_pts) >= 2 else None,
                       [v1, line_pts[0], line_pts[1]] if len(line_pts) >= 2 else None):
            if p1_pts is None:
                continue
            for apex in (v1, v2):
                rest = [w for w in line_pts if w not in p1_pts]
                candidates.append((p1_pts, apex, rest))
    for p1_pts, apex, chain in candidates:
        pieces = []
        if p1_pts is not None:
            first = _piece(p1_pts)
            if first is None or not _count_ok(first):
                continue
            pieces.append(first)
        tail = _pair_chain(apex, chain) if chain else []
        if tail is None:
            continue
        pieces = pieces + tail
        if _validate(pieces, points):
            return pieces
    return None


def _sparse_points(points: list[IntPoint]) -> list[Polytope] | None:
    if len(points) <= 4:
        piece = _piece(points)
        if piece is None:
            return None
        return [piece]
    # direction (1, N) with N exceeding the x-spread gives distinct products
    spread = max(x for x, _ in points) - min(x for x, _ in points) + 1
    a = (1, spread)
    ordered = sorted(points, key=lambda w: dot(a, w), reverse=True)
    v1, v2, rest = ordered[0], ordered[1], ordered[2:]

    if affine_rank(rest) < 2:
        return _collinear_case(v1, v2, rest, points)

    sub = _sparse_points(rest)
    if sub is None:
        return None
    for w in rest:
        if cross2(v1, v2, w) == 0:
            continue
        cap = _piece([v1, v2, w])
        if cap is None or not _count_ok(cap, budget=(3,)):
            continue
        if all(_pieces_compatible(cap, piece) for piece in sub):
            return sub + [cap]
    return None


def sparse_decomposition(p: Polytope) -> list[Polytope]:
    """Cover the polygon's lattice points by pieces with 3-4 lattice points.

    Pieces pairwise intersect in at most a common vertex and their lattice
    points cover the polygon's.  Construction peels the two largest points
    of a generic linear order and recurses, with a fan construction when the
    remainder is collinear; the result is verified exactly before returning.
    """
    if p.dim != 2:
        raise ValueError("sparse decomposition is a polygon operation")
    points = lattice_points(p, 1)
    result = _sparse_points(points)
    if result is None or not _validate(result, points):
        raise RuntimeError("sparse decomposition construction failed; "
                           f"vertices {p.vertices}")
    return result
