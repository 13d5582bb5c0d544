"""Unimodular triangulations of lattice polygons and what they compute.

The triangulation is incremental: lattice points are inserted in a fixed
monotone (lexicographic-style) order, each new point joined to the hull
edges it sees.  Every point inserted is extreme among those seen so far, so
every created triangle has exactly its three corners as lattice points,
which makes unimodularity structural rather than repaired.  The insertion
also records what the edge sums need: each triangle counterclockwise from
its smallest index, each edge once as the new point joins the arc it sees,
and the final hull cycle, which holds exactly the boundary lattice points.

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

from .linalg import cross2
from .polytopes import DegenerateInputError, Polytope, convex_hull, lattice_points
from .tensors import (HrVector, IntPoint, SymTensor, TensorPolynomial, _moment_entries,
                      dot, moment_of_points)

INSERTION_ORDERS: dict[str, Callable[[IntPoint], tuple]] = {
    "lex": lambda p: (p[0], p[1]),
    "lex_down": lambda p: (p[0], -p[1]),
    "colex": lambda p: (p[1], p[0]),
    "colex_down": lambda p: (p[1], -p[0]),
}


@dataclass(frozen=True)
class Triangulation:
    """Unimodular triangulation on all lattice points of a polygon.

    ``triangles`` are counterclockwise and start at their smallest index;
    ``edges`` are the distinct triangle edges as sorted index pairs; ``cycle``
    is the boundary, every boundary lattice point once, counterclockwise
    from point 0.
    """

    polygon: Polytope
    points: tuple[IntPoint, ...]
    triangles: tuple[tuple[int, int, int], ...]
    edges: tuple[tuple[int, int], ...]
    cycle: tuple[int, ...]

    def triangle_points(self, tri: tuple[int, int, int]) -> tuple[IntPoint, IntPoint, IntPoint]:
        return self.points[tri[0]], self.points[tri[1]], self.points[tri[2]]

    @cached_property
    def _edge_stats(self) -> "EdgeStats":
        return _build_edge_stats(self)


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

    chain = [0, 1]
    k = 2
    while k < n and cross2(pts[chain[0]], pts[chain[-1]], pts[k]) == 0:
        chain.append(k)
        k += 1
    if k == n:
        raise AssertionError("polygon lattice points collinear")
    links = list(zip(chain, chain[1:]))
    edges = links + [(a, k) for a in chain]
    if cross2(pts[chain[0]], pts[chain[-1]], pts[k]) > 0:
        triangles = [(a, b, k) for a, b in links]
        cycle = chain + [k]
    else:
        triangles = [(a, k, b) for a, b in links]
        cycle = list(reversed(chain)) + [k]
    nxt, prv = [0] * n, [0] * n         # the hull as a counterclockwise linked cycle
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        nxt[a], prv[b] = b, a
    # Point k is lexicographically largest so far, so point k-1 is a hull vertex
    # and [k-1, k] meets the hull only there: the arc that k sees touches k-1.
    # k sees each arc edge b -> c strictly from outside, so (b, k, c) is
    # counterclockwise, and k is the largest index of the triangle.
    for k in range(k + 1, n):
        q = pts[k]
        a = b = k - 1
        edges.append((b, k))
        while cross2(pts[b], pts[c := nxt[b]], q) < 0:
            triangles.append((b, k, c) if b < c else (c, b, k))
            edges.append((c, k))
            b = c
        while cross2(pts[c := prv[a]], pts[a], q) < 0:
            triangles.append((c, k, a) if c < a else (a, c, k))
            edges.append((c, k))
            a = c
        nxt[a], prv[k], nxt[k], prv[b] = k, a, b, k

    boundary = [0]
    while (b := nxt[boundary[-1]]) != 0:
        boundary.append(b)
    return Triangulation(p, pts, tuple(sorted(triangles)), tuple(sorted(edges)),
                         tuple(boundary))


# ---------------------------------------------------------------------------
# edge graph statistics

@dataclass(frozen=True)
class EdgeStats:
    """Vertex/edge classification of a triangulation plus its exact sums.

    The boundary points are those of the triangulation's hull cycle and the
    boundary edges join consecutive ones; the rest are interior.  The test
    oracle defines the same split by facets: a point is on the boundary when
    it lies on a polygon facet, an edge when both endpoints share one.
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


def _sums(points: Sequence[IntPoint]) -> tuple[SymTensor, SymTensor]:
    """Rank-1 and rank-2 moments of a planar point list, from one pass."""
    entries = _moment_entries(points, 2, 2)
    return SymTensor(1, 2, tuple(entries[1])), SymTensor(2, 2, tuple(entries[2]))


def _build_edge_stats(t: Triangulation) -> EdgeStats:
    pts, cycle = t.points, t.cycle
    boundary_edges = sorted((a, b) if a < b else (b, a)
                            for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    on_cycle = set(boundary_edges)
    interior_edges = [e for e in t.edges if e not in on_cycle]
    boundary = frozenset(cycle)
    inner = [x for i, x in enumerate(pts) if i not in boundary]

    xs, ys = zip(*pts)
    e_int = [(xs[a] + xs[b], ys[a] + ys[b]) for a, b in interior_edges]
    e_bd = [(xs[a] + xs[b], ys[a] + ys[b]) for a, b in boundary_edges]
    e_bd_diff = [(xs[a] - xs[b], ys[a] - ys[b]) for a, b in boundary_edges]
    sum_v, sum_v_sq = _sums(pts)
    sum_v_int, sum_v_int_sq = _sums(inner)
    sum_e_int, sum_e_int_sq = _sums(e_int)
    sum_e_bd_sq = moment_of_points(e_bd, 2, 2)
    return EdgeStats(
        points=pts,
        edges=t.edges,
        interior_points=frozenset(range(len(pts))) - boundary,
        boundary_points=boundary,
        interior_edges=tuple(interior_edges),
        boundary_edges=tuple(boundary_edges),
        sum_v=sum_v,
        sum_v_int=sum_v_int,
        sum_v_bd=sum_v - sum_v_int,
        sum_v_sq=sum_v_sq,
        sum_v_int_sq=sum_v_int_sq,
        sum_v_bd_sq=sum_v_sq - sum_v_int_sq,
        sum_e_sq=sum_e_int_sq + sum_e_bd_sq,
        sum_e_int=sum_e_int,
        sum_e_int_sq=sum_e_int_sq,
        sum_e_bd_sq=sum_e_bd_sq,
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
        return convex_hull(points)
    except DegenerateInputError:
        return None


def _pair_chain(apex: IntPoint, chain: list[IntPoint]) -> list[Polytope] | None:
    """Fan from ``apex`` over consecutive pairs of ``chain``, the last piece
    over three chain points when their number is odd; None when it fails."""
    if len(chain) == 1:
        return None
    out, i = [], 0
    while i < len(chain):
        step = 3 if len(chain) - i == 3 else 2
        piece = _piece([apex, chain[i], chain[i + step - 1]])
        if piece is None:
            return None
        out.append(piece)
        i += step
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
    """All remaining points, at least three, on one line; v1, v2 are the two
    peeled points.  Returns the first candidate fan that `_validate` accepts."""
    if cross2(line_pts[0], line_pts[1], v2) == 0:
        # v2 extends the line; the unique off-line point is the only apex
        candidates = [((), v1, [v2] + line_pts)]
    else:
        candidates = [(first, apex, [w for w in line_pts if w not in first])
                      for first in ((v1, v2, line_pts[0]), (v2, line_pts[0], line_pts[1]),
                                    (v1, line_pts[0], line_pts[1]))
                      for apex in (v1, v2)]
    for first, apex, chain in candidates:
        head = [_piece(first)] if first else []
        tail = _pair_chain(apex, chain)
        if tail is not None and None not in head and _validate(head + tail, points):
            return head + tail
    return None


def _sparse_points(points: list[IntPoint]) -> list[Polytope] | None:
    """Pieces for a polygon's lattice points, or None when a step finds none.

    Sorts once, by (y, x) descending, and peels the two largest points while
    more than four are left and the rest is not collinear.  The rest is then
    the polygon's lattice points below a level of the linear order x + N y
    (N above the x-spread), so the hull of at most four of them holds exactly
    those points; a collinear rest goes to `_collinear_case`, which validates
    its own pieces.  Each peeled pair, the last one first, gets as cap the
    first triangle on a later point that is empty, by Pick's theorem exactly
    when its doubled area is 1, and meets every piece below it at most in a
    common vertex.  So the pieces meet the conditions by construction.
    """
    ordered = sorted(points, key=lambda w: (w[1], w[0]), reverse=True)
    i = 0
    while len(ordered) - i > 4:
        rest = ordered[i + 2:]
        if all(cross2(rest[0], rest[1], w) == 0 for w in rest):
            pieces = _collinear_case(ordered[i], ordered[i + 1], rest, ordered[i:])
            break
        i += 2
    else:
        pieces = [convex_hull(ordered[i:])]
    if pieces is None:
        return None
    for j in range(i - 2, -1, -2):
        v1, v2 = ordered[j], ordered[j + 1]
        for w in ordered[j + 2:]:
            if abs(cross2(v1, v2, w)) == 1:
                cap = convex_hull([v1, v2, w])
                if all(_pieces_compatible(cap, piece) for piece in pieces):
                    pieces.append(cap)
                    break
        else:
            return None
    return pieces


def sparse_decomposition(p: Polytope) -> list[Polytope]:
    """Cover the polygon's lattice points by pieces with 3-4 lattice points.

    Pieces pairwise intersect in at most a common vertex and their lattice
    points cover the polygon's.  Construction peels the two largest points
    of a generic linear order, with a fan construction when the remainder is
    collinear, and caps each peeled pair by an empty triangle checked against
    the pieces below it; this guarantees both conditions, which the tests
    check with an independent segment-intersection oracle.
    """
    if p.dim != 2:
        raise ValueError("sparse decomposition is a polygon operation")
    result = _sparse_points(lattice_points(p, 1))
    if result is None:
        raise RuntimeError("sparse decomposition construction failed; "
                           f"vertices {p.vertices}")
    return result
