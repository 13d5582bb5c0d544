"""Unimodular triangulations of lattice polygons and what they compute.

The triangulation is incremental: lattice points are inserted in a fixed
monotone (lexicographic-style) order, each new point joined to the hull
edges it sees.  Every point inserted is extreme among those seen so far, so
every created triangle has exactly its three corners as lattice points,
which makes unimodularity structural rather than repaired.  The insertion
runs its orientation tests inline on the points' coordinate lists, and it
records what the edge sums need: each triangle counterclockwise from its
smallest index, each edge once as the new point joins the arc it sees (kept
under its smaller endpoint, so the edges come out sorted with no sort), and
the final hull cycle, which holds exactly the boundary lattice points.

On top of the triangulation sit the edge-graph sums, each built from the two
coordinate columns of its points or edge sums in one integer moment pass;
the closed vector and matrix formulas for h-vectors and dilation polynomials
of polygons, each output entry one integer combination of those sums with at
most one division; and sparse decompositions into pieces with three or four
lattice points.  Its half-open cells come from
``halfopen.half_open_decomposition(t.points, t.triangles)``, the same routine
that serves every dimension.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import add, sub
from typing import Callable

from .linalg import cross2
from .polytopes import DegenerateInputError, Polytope, convex_hull, lattice_points
from .tensors import HrVector, IntPoint, SymTensor, TensorPolynomial, _column_moments, dot

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
    points = lattice_points(p, 1)       # lexicographic, the "lex" order
    pts = tuple(points if order == "lex" else sorted(points, key=INSERTION_ORDERS[order]))
    xs, ys = zip(*pts)
    n = len(pts)

    chain = [0, 1]
    k = 2
    while k < n and cross2(pts[chain[0]], pts[chain[-1]], pts[k]) == 0:
        chain.append(k)
        k += 1
    if k == n:
        raise AssertionError("polygon lattice points collinear")
    links = list(zip(chain, chain[1:]))
    joined = [[] for _ in range(n)]     # joined[a]: the later points joined to a, ascending
    for a, b in links:
        joined[a].append(b)
    for a in chain:
        joined[a].append(k)
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
    # counterclockwise, and k is the largest index of the triangle.  The two
    # orientation tests, cross2(b, c, k) < 0 and cross2(c, a, k) < 0, are
    # written out on the coordinate lists.
    for k in range(k + 1, n):
        qx, qy = xs[k], ys[k]
        a = b = k - 1
        joined[b].append(k)
        while (xs[c := nxt[b]] - xs[b]) * (qy - ys[b]) < (ys[c] - ys[b]) * (qx - xs[b]):
            triangles.append((b, k, c) if b < c else (c, b, k))
            joined[c].append(k)
            b = c
        while (xs[a] - xs[c := prv[a]]) * (qy - ys[c]) < (ys[a] - ys[c]) * (qx - xs[c]):
            triangles.append((c, k, a) if c < a else (a, c, k))
            joined[c].append(k)
            a = c
        nxt[a], prv[k], nxt[k], prv[b] = k, a, b, k

    boundary = [0]
    while (b := nxt[boundary[-1]]) != 0:
        boundary.append(b)
    edges = tuple([(a, b) for a in range(n) for b in joined[a]])
    return Triangulation(p, pts, tuple(sorted(triangles)), edges, tuple(boundary))


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


def _build_edge_stats(t: Triangulation) -> EdgeStats:
    pts, cycle = t.points, t.cycle
    boundary_edges = sorted((a, b) if a < b else (b, a)
                            for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    on_cycle = set(boundary_edges)
    interior_edges = [e for e in t.edges if e not in on_cycle]
    boundary = frozenset(cycle)
    inner = [i for i in range(len(pts)) if i not in boundary]

    def moments(cx, cy):        # ranks 0..2 of the points with these coordinate columns
        return _column_moments((cx, cy), len(cx), 2, 2)

    xs, ys = zip(*pts)
    v = moments(xs, ys)
    v_int = moments([xs[i] for i in inner], [ys[i] for i in inner])
    e_int = moments([xs[a] + xs[b] for a, b in interior_edges],
                    [ys[a] + ys[b] for a, b in interior_edges])
    e_bd = moments([xs[a] + xs[b] for a, b in boundary_edges],
                   [ys[a] + ys[b] for a, b in boundary_edges])
    e_bd_diff = moments([xs[a] - xs[b] for a, b in boundary_edges],
                        [ys[a] - ys[b] for a, b in boundary_edges])
    return EdgeStats(
        points=pts,
        edges=t.edges,
        interior_points=frozenset(inner),
        boundary_points=boundary,
        interior_edges=tuple(interior_edges),
        boundary_edges=tuple(boundary_edges),
        sum_v=SymTensor(1, 2, tuple(v[1])),
        sum_v_int=SymTensor(1, 2, tuple(v_int[1])),
        sum_v_bd=SymTensor(1, 2, tuple(map(sub, v[1], v_int[1]))),
        sum_v_sq=SymTensor(2, 2, tuple(v[2])),
        sum_v_int_sq=SymTensor(2, 2, tuple(v_int[2])),
        sum_v_bd_sq=SymTensor(2, 2, tuple(map(sub, v[2], v_int[2]))),
        sum_e_sq=SymTensor(2, 2, tuple(map(add, e_int[2], e_bd[2]))),
        sum_e_int=SymTensor(1, 2, tuple(e_int[1])),
        sum_e_int_sq=SymTensor(2, 2, tuple(e_int[2])),
        sum_e_bd_sq=SymTensor(2, 2, tuple(e_bd[2])),
        sum_e_bd_diff_sq=SymTensor(2, 2, tuple(e_bd_diff[2])),
    )


def _combined(f: Callable, *tensors: SymTensor) -> SymTensor:
    """The tensor whose each entry is ``f`` of the matching entries of ``tensors``."""
    return SymTensor(tensors[0].rank, 2, tuple(map(f, *(x.entries for x in tensors))))


def h1_pick(t: Triangulation) -> HrVector:
    """Rank-1 h-vector of a polygon from triangulation sums.

    ``(0, sum_V x, sum_{E int}(y+z) - 2 sum_{V int} x, sum_{V int} x)``.
    """
    s = edge_stats(t)
    return HrVector((SymTensor.zero(1, 2), s.sum_v,
                     _combined(lambda e, v: e - 2 * v, s.sum_e_int, s.sum_v_int), s.sum_v_int))


def h2_pick(t: Triangulation) -> HrVector:
    """Rank-2 h-vector of a polygon from triangulation sums.

    ``(0, sum_V x^2, sum_E (y+z)^2 - sum_V x^2,
    sum_{E int}(y+z)^2 - sum_{V int} x^2, sum_{V int} x^2)``.
    """
    s = edge_stats(t)
    return HrVector((SymTensor.zero(2, 2), s.sum_v_sq,
                     _combined(sub, s.sum_e_sq, s.sum_v_sq),
                     _combined(sub, s.sum_e_int_sq, s.sum_v_int_sq), s.sum_v_int_sq))


def ehrhart_vector_pick(t: Triangulation) -> TensorPolynomial:
    """Dilation polynomial of the rank-1 moment from triangulation sums.

    Each coefficient entry is one integer combination of the sums, divided
    once, by 6 or 2.
    """
    s = edge_stats(t)
    return TensorPolynomial((
        SymTensor.zero(1, 2),
        _combined(lambda v, vi, ei: Fraction(2 * v + 4 * vi - ei, 6),
                  s.sum_v, s.sum_v_int, s.sum_e_int),
        _combined(lambda vb: Fraction(vb, 2), s.sum_v_bd),
        _combined(lambda vb, ei: Fraction(vb + ei, 6), s.sum_v_bd, s.sum_e_int)))


def ehrhart_matrix_pick(t: Triangulation) -> TensorPolynomial:
    """Dilation polynomial of the rank-2 moment from triangulation sums.

    Each coefficient entry is one integer combination of the sums, divided
    once, by 12 or 24.
    """
    s = edge_stats(t)
    return TensorPolynomial((
        SymTensor.zero(2, 2),
        _combined(lambda d: Fraction(d, 12), s.sum_e_bd_diff_sq),
        _combined(lambda v, vi, e, ei: Fraction(12 * v + 12 * vi - e - ei, 24),
                  s.sum_v_sq, s.sum_v_int_sq, s.sum_e_sq, s.sum_e_int_sq),
        _combined(lambda vb, eb: Fraction(2 * vb + eb, 12), s.sum_v_bd_sq, s.sum_e_bd_sq),
        _combined(lambda e, ei: Fraction(e + ei, 24), s.sum_e_sq, s.sum_e_int_sq)))


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
