"""Unimodular triangulations, edge sums, closed polygon formulas."""
import dataclasses
import hashlib
import itertools
import math
import random
from fractions import Fraction

import ehrtensor as et
from ehrtensor import triangulation
from ehrtensor.linalg import affine_basis, cross2
from ehrtensor.polytopes import _hull_2d, placing_triangulation
from ehrtensor.tensors import dot, vadd, vsub
from ehrtensor.triangulation import INSERTION_ORDERS, EdgeStats

from conftest import (NAMED_POLYGONS, oracle_moment, oracle_polygon_points, pick_pin_polygons,
                      scan_points)

F = Fraction


def mat(rows):
    return et.SymTensor.from_matrix(rows)


def vec(entries):
    return et.SymTensor.from_vector(entries)


def triangle_area2(a, b, c):
    return abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def polygon_vertex_cycle(p: et.Polytope) -> list[tuple[int, int]]:
    """Vertices of a polygon in counterclockwise cyclic order."""
    return _hull_2d(list(p.vertices))


def polygon_area2(p: et.Polytope) -> int:
    cyc = polygon_vertex_cycle(p)
    s = 0
    for i in range(len(cyc)):
        a, b = cyc[i], cyc[(i + 1) % len(cyc)]
        s += a[0] * b[1] - a[1] * b[0]
    return abs(s)


def oriented(pts, a, b, c):
    """Normalization oracle: the triangle counterclockwise by ``cross2``,
    rotated to start at its smallest index."""
    tri = (a, b, c) if triangulation.cross2(pts[a], pts[b], pts[c]) > 0 else (a, c, b)
    k = tri.index(min(tri))
    return tri[k:] + tri[:k]


def placing_corpus():
    """The 150-seed polygon corpus: bound 5 with 4, 6 and 8 generators."""
    for seed in range(150):
        for gens in (4, 6, 8):
            yield (seed, gens), et.random_lattice_polytope(2, 5, gens, seed=seed)


def wide_polygons():
    """20 pick-2d-sized polygons: bound 8 with 8 generators."""
    for seed in range(20):
        yield ("wide", seed), et.random_lattice_polytope(2, 8, 8, seed=7000 + seed)


def test_unit_square_two_triangles():
    p = et.convex_hull(NAMED_POLYGONS["unit_square"])
    t = et.unimodular_triangulation(p)
    assert len(t.triangles) == 2


def test_dilated_triangle_four_triangles_six_points():
    p = et.convex_hull([(0, 0), (2, 0), (0, 2)])
    t = et.unimodular_triangulation(p)
    assert len(t.points) == 6
    assert len(t.triangles) == 4


def test_triangle_count_is_twice_area(corpus_polygons):
    for name, p in corpus_polygons.items():
        t = et.unimodular_triangulation(p)
        assert len(t.triangles) == polygon_area2(p), name
        for tri in t.triangles:
            assert triangle_area2(*t.triangle_points(tri)) == 1, name


def test_triangles_are_empty_by_enumeration(corpus_polygons):
    # unimodularity oracle: every triangle holds exactly its 3 corners
    for p in corpus_polygons.values():
        t = et.unimodular_triangulation(p)
        for tri in t.triangles:
            pts = oracle_polygon_points(t.triangle_points(tri), 1)
            assert len(pts) == 3


def test_triangulation_vertex_set_is_all_lattice_points(corpus_polygons):
    for p in corpus_polygons.values():
        t = et.unimodular_triangulation(p)
        assert sorted(t.points) == sorted(et.lattice_points(p, 1))
        used = {i for tri in t.triangles for i in tri}
        assert used == set(range(len(t.points)))


def test_edge_stats_unit_square_hand_values():
    p = et.convex_hull(NAMED_POLYGONS["unit_square"])
    s = et.edge_stats(et.unimodular_triangulation(p))
    assert len(s.edges) == 5
    assert s.sum_e_sq == mat([[7, 5], [5, 7]])
    assert s.sum_e_int_sq == mat([[1, 1], [1, 1]])
    assert s.sum_v_bd_sq == mat([[2, 1], [1, 2]])
    assert s.sum_v_sq == mat([[2, 1], [1, 2]])
    assert not s.interior_points


def test_edge_stats_unit_triangle_no_interior():
    p = et.convex_hull(NAMED_POLYGONS["unit_triangle"])
    s = et.edge_stats(et.unimodular_triangulation(p))
    assert not s.interior_points
    assert not s.interior_edges


def brute_force_edge_stats(t: et.Triangulation) -> EdgeStats:
    """Edge sums point by point: facet sets by ``dot``, edge endpoints by
    ``vadd``/``vsub``, moments by summing outer powers."""
    pts = t.points
    edges = sorted({tuple(sorted(pair)) for tri in t.triangles
                    for pair in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2]))})
    on_facet = [frozenset(i for i, f in enumerate(t.polygon.facets)
                          if dot(f.normal, x) == f.rhs) for x in pts]
    interior = frozenset(i for i in range(len(pts)) if not on_facet[i])
    boundary = frozenset(range(len(pts))) - interior
    boundary_edges = [e for e in edges if on_facet[e[0]] & on_facet[e[1]]]
    interior_edges = [e for e in edges if not on_facet[e[0]] & on_facet[e[1]]]
    inner = [pts[i] for i in sorted(interior)]
    outer = [pts[i] for i in sorted(boundary)]

    def sums(es):
        return [vadd(pts[a], pts[b]) for a, b in es]

    return EdgeStats(
        points=pts, edges=tuple(edges),
        interior_points=interior, boundary_points=boundary,
        interior_edges=tuple(interior_edges), boundary_edges=tuple(boundary_edges),
        sum_v=oracle_moment(pts, 1), sum_v_int=oracle_moment(inner, 1),
        sum_v_bd=oracle_moment(outer, 1), sum_v_sq=oracle_moment(pts, 2),
        sum_v_int_sq=oracle_moment(inner, 2), sum_v_bd_sq=oracle_moment(outer, 2),
        sum_e_sq=oracle_moment(sums(edges), 2),
        sum_e_int=oracle_moment(sums(interior_edges), 1),
        sum_e_int_sq=oracle_moment(sums(interior_edges), 2),
        sum_e_bd_sq=oracle_moment(sums(boundary_edges), 2),
        sum_e_bd_diff_sq=oracle_moment([vsub(pts[a], pts[b]) for a, b in boundary_edges], 2),
    )


def test_edge_stats_match_brute_force_oracle():
    seeded = (((seed,), et.random_lattice_polytope(2, 4, 6, seed=3000 + seed))
              for seed in range(60))
    for seed, p in [*seeded, *wide_polygons()]:
        expected = (et.to_hr_vector(p, 1), et.to_hr_vector(p, 2),
                    et.ehrhart_tensor_polynomial(p, 1), et.ehrhart_tensor_polynomial(p, 2))
        for order in INSERTION_ORDERS:
            t = et.unimodular_triangulation(p, order)
            s, oracle = et.edge_stats(t), brute_force_edge_stats(t)
            for field in dataclasses.fields(EdgeStats):
                assert getattr(s, field.name) == getattr(oracle, field.name), \
                    (seed, order, field.name)
            assert (et.h1_pick(t), et.h2_pick(t), et.ehrhart_vector_pick(t),
                    et.ehrhart_matrix_pick(t)) == expected, (seed, order)


def test_lattice_cycle_is_the_placing_triangulation():
    # the 2D cycle is the d=2 case of the general routine, kept for speed
    for case, p in placing_corpus():
        for order, key in INSERTION_ORDERS.items():
            pts = sorted(et.lattice_points(p, 1), key=key)
            simplices, _ = placing_triangulation(pts)
            placed = sorted(oriented(pts, *s) for s in simplices)
            assert tuple(placed) == et.unimodular_triangulation(p, order).triangles, \
                (case, order)


def test_stored_edges_and_cycle_match_oracles():
    # edges are recorded once at insertion, the boundary is the final hull cycle
    for case, p in [*placing_corpus(), *wide_polygons()]:
        for order in INSERTION_ORDERS:
            t = et.unimodular_triangulation(p, order)
            pts = t.points
            assert t.triangles == tuple(sorted(oriented(pts, *tri) for tri in t.triangles)), \
                (case, order)
            edges = {tuple(sorted(pair)) for tri in t.triangles
                     for pair in itertools.combinations(tri, 2)}
            assert t.edges == tuple(sorted(edges)), (case, order)
            on_facet = [any(dot(f.normal, x) == f.rhs for f in p.facets) for x in pts]
            cyc = t.cycle
            assert cyc[0] == 0 and len(set(cyc)) == len(cyc), (case, order)
            assert set(cyc) == {i for i, on in enumerate(on_facet) if on}, (case, order)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                # a primitive step along one facet
                assert math.gcd(*vsub(pts[b], pts[a])) == 1, (case, order)
                assert any(dot(f.normal, pts[a]) == dot(f.normal, pts[b]) == f.rhs
                           for f in p.facets), (case, order)
            area2 = sum(pts[a][0] * pts[b][1] - pts[a][1] * pts[b][0]
                        for a, b in zip(cyc, cyc[1:] + cyc[:1]))
            assert area2 == len(t.triangles), (case, order)


def full_scan_triangulation(p: et.Polytope, order: str) -> et.Triangulation:
    """The insertion triangulation that tests every hull-cycle edge for
    visibility from each new point and rebuilds the cycle list; its edges
    join each new point to the arc it sees, its cycle is the last list."""
    cross2 = triangulation.cross2
    pts = tuple(sorted(et.lattice_points(p, 1), key=INSERTION_ORDERS[order]))
    n = len(pts)
    triangles = []
    chain = [0, 1]
    k = 2
    while k < n and cross2(pts[chain[0]], pts[chain[-1]], pts[k]) == 0:
        chain.append(k)
        k += 1
    edges = [(a, k) for a in chain]
    for i in range(len(chain) - 1):
        triangles.append(oriented(pts, chain[i], chain[i + 1], k))
        edges.append((chain[i], chain[i + 1]))
    if cross2(pts[chain[0]], pts[chain[-1]], pts[k]) > 0:
        cycle = chain + [k]
    else:
        cycle = list(reversed(chain)) + [k]
    for k in range(k + 1, n):
        m = len(cycle)
        vis = [cross2(pts[cycle[i]], pts[cycle[(i + 1) % m]], pts[k]) < 0 for i in range(m)]
        start = next(i for i in range(m) if vis[i] and not vis[(i - 1) % m])
        i = start
        edges.append((cycle[i], k))
        while vis[i]:
            triangles.append(oriented(pts, cycle[i], cycle[(i + 1) % m], k))
            i = (i + 1) % m
            edges.append((cycle[i], k))
        # keep cycle[i..start] (the hull edges k does not see), then k
        new_cycle = [cycle[i]]
        while i != start:
            i = (i + 1) % m
            new_cycle.append(cycle[i])
        cycle = new_cycle + [k]
    first = cycle.index(0)
    return et.Triangulation(p, pts, tuple(sorted(triangles)), tuple(sorted(edges)),
                            tuple(cycle[first:] + cycle[:first]))


def test_hull_walk_matches_full_scan_triangulation():
    for seed in range(120):
        p = et.random_lattice_polytope(2, (2, 3, 5, 8)[seed % 4], (3, 5, 8)[seed % 3],
                                       seed=5000 + seed)
        for order in INSERTION_ORDERS:
            assert et.unimodular_triangulation(p, order) == full_scan_triangulation(p, order), \
                (seed, order)


def test_edge_sums_built_once_per_triangulation(monkeypatch):
    builds = []
    build = triangulation._build_edge_stats
    monkeypatch.setattr(triangulation, "_build_edge_stats",
                        lambda t: builds.append(t) or build(t))
    p = et.convex_hull(NAMED_POLYGONS["skew_quad"])
    t = et.unimodular_triangulation(p, "lex")
    et.h1_pick(t), et.h2_pick(t), et.ehrhart_vector_pick(t), et.ehrhart_matrix_pick(t)
    assert len(builds) == 1
    assert et.edge_stats(t) is et.edge_stats(t)

    # another insertion order triangulates differently and gets its own sums
    u = et.unimodular_triangulation(p, "colex")
    su = et.edge_stats(u)
    assert len(builds) == 2 and builds[1] is u
    assert su is not et.edge_stats(t)

    def segments(tri, stats):
        return {frozenset((tri.points[a], tri.points[b])) for a, b in stats.edges}

    assert segments(u, su) != segments(t, et.edge_stats(t))
    assert su == brute_force_edge_stats(u)


def test_h1_pick_examples():
    tri = et.convex_hull(NAMED_POLYGONS["unit_triangle"])
    h = et.h1_pick(et.unimodular_triangulation(tri))
    assert h.entries == (et.SymTensor.zero(1, 2), vec((1, 1)),
                         et.SymTensor.zero(1, 2), et.SymTensor.zero(1, 2))
    sq = et.convex_hull(NAMED_POLYGONS["unit_square"])
    hs = et.h1_pick(et.unimodular_triangulation(sq))
    assert hs[1] == vec((2, 2))


def test_h2_pick_examples():
    tri = et.convex_hull(NAMED_POLYGONS["unit_triangle"])
    h = et.h2_pick(et.unimodular_triangulation(tri))
    assert h[1] == mat([[1, 0], [0, 1]])
    assert h[2] == mat([[1, 1], [1, 1]])
    assert h[3].is_zero and h[4].is_zero
    sq = et.convex_hull(NAMED_POLYGONS["unit_square"])
    hsq = et.h2_pick(et.unimodular_triangulation(sq))
    # sum over edges of (y+z)^2 minus sum over points of x^2
    assert hsq[2] == mat([[7, 5], [5, 7]]) - mat([[2, 1], [1, 2]])


def test_pick_formulas_match_interpolation(corpus_polygons):
    for name, p in corpus_polygons.items():
        t = et.unimodular_triangulation(p)
        assert et.h1_pick(t) == et.to_hr_vector(p, 1), name
        assert et.h2_pick(t) == et.to_hr_vector(p, 2), name
        assert et.ehrhart_vector_pick(t) == et.ehrhart_tensor_polynomial(p, 1), name
        assert et.ehrhart_matrix_pick(t) == et.ehrhart_tensor_polynomial(p, 2), name


def test_pick_formulas_triangulation_independent(corpus_polygons):
    for p in corpus_polygons.values():
        t1 = et.unimodular_triangulation(p, order="lex")
        t2 = et.unimodular_triangulation(p, order="lex_down")
        t3 = et.unimodular_triangulation(p, order="colex")
        assert et.h1_pick(t1) == et.h1_pick(t2) == et.h1_pick(t3)
        assert et.h2_pick(t1) == et.h2_pick(t2) == et.h2_pick(t3)


def test_pick_route_outputs_are_pinned():
    # the triangulation, every EdgeStats field and the four formula outputs in
    # each insertion order on 404 polygons: bounds 2, 3, 5 and 8 with 8
    # generators, seeds 0-99, and the collinear-heavy shapes.  Each tensor
    # entry is written with its type, so an int turned Fraction(n, 1) shows
    def typed(value):
        if isinstance(value, et.SymTensor):
            return value.rank, value.dim, [(type(v).__name__, str(v)) for v in value.entries]
        if isinstance(value, (tuple, list)):
            return [typed(v) for v in value]
        if isinstance(value, frozenset):
            return sorted(value)
        return value

    digest = hashlib.sha256()
    for p in pick_pin_polygons():
        for order in INSERTION_ORDERS:
            t = et.unimodular_triangulation(p, order)
            s = et.edge_stats(t)
            fields = [getattr(s, f.name) for f in dataclasses.fields(s)]
            outputs = [et.h1_pick(t).entries, et.h2_pick(t).entries,
                       et.ehrhart_vector_pick(t).coeffs, et.ehrhart_matrix_pick(t).coeffs]
            digest.update(repr((t.points, t.triangles, t.edges, t.cycle)).encode())
            digest.update(repr(typed(fields)).encode())
            digest.update(repr(typed(outputs)).encode())
    assert digest.hexdigest() == \
        "4639fe395e65d5040865c7d225f9e7052d2b71e95c08285d6aa86ec58c63ce8d"


def test_vector_polynomial_unit_triangle():
    p = et.convex_hull(NAMED_POLYGONS["unit_triangle"])
    poly = et.ehrhart_vector_pick(et.unimodular_triangulation(p))
    assert poly.coeffs[1] == vec((F(1, 3), F(1, 3)))
    assert poly.coeffs[2] == vec((F(1, 2), F(1, 2)))
    assert poly.coeffs[3] == vec((F(1, 6), F(1, 6)))
    assert poly.evaluate(1) == et.discrete_moment(p, 1, 1)


def test_matrix_polynomial_unit_square_coefficients():
    sq = et.convex_hull(NAMED_POLYGONS["unit_square"])
    poly = et.ehrhart_matrix_pick(et.unimodular_triangulation(sq))
    assert poly.coeffs[4] == et.moment_tensor(sq, 2)
    assert poly.coeffs[3] == et.second_coefficient_facets(sq, 2)


def test_matrix_polynomial_negative_definite_triangle_printed_values():
    p = et.convex_hull(NAMED_POLYGONS["neg_def_triangle"])
    poly = et.ehrhart_matrix_pick(et.unimodular_triangulation(p))
    assert poly == et.ehrhart_tensor_polynomial(p, 2)
    assert poly.coeffs[2] == mat([[F(-1, 12), F(-1, 8)], [F(-1, 8), F(-23, 12)]])


# ---------------------------------------------------------------------------
# half-open decomposition

def half_open_cells(t):
    return et.half_open_decomposition(t.points, t.triangles)


def cell_points(s):
    return list(scan_points(s.bounds(1), s.constraints(1)))


def test_half_open_square_lower_cell_closed():
    sq = et.convex_hull(NAMED_POLYGONS["unit_square"])
    t = et.unimodular_triangulation(sq)
    # reference point inside the first triangle
    cells = half_open_cells(t)
    assert [c.vertices for c in cells] == [t.triangle_points(tri) for tri in t.triangles]
    assert cells[0].removed == frozenset()
    other = cells[1]
    # the other cell loses exactly the facet shared with the first triangle
    assert len(other.removed) == 1
    (k,) = other.removed
    shared = {t.points[i] for i in set(t.triangles[0]) & set(t.triangles[1])}
    removed_edge = {other.vertices[j] for j in range(3) if j != k}
    assert removed_edge == shared


def test_half_open_single_triangle_fully_closed():
    tri = et.convex_hull(NAMED_POLYGONS["unit_triangle"])
    t = et.unimodular_triangulation(tri)
    cells = half_open_cells(t)
    assert len(cells) == 1
    assert cells[0].removed == frozenset()


def test_half_open_cells_partition_lattice_points(corpus_polygons):
    for name, p in corpus_polygons.items():
        for order in INSERTION_ORDERS:
            t = et.unimodular_triangulation(p, order)
            seen = []
            for c in half_open_cells(t):
                seen.extend(cell_points(c))
            assert len(seen) == len(set(seen)), (name, order)
            assert sorted(seen) == sorted(et.lattice_points(p, 1)), (name, order)


def test_half_open_cell_counts_sum_to_total():
    p = et.convex_hull(NAMED_POLYGONS["skew_quad"])
    t = et.unimodular_triangulation(p)
    total = sum(len(cell_points(c)) for c in half_open_cells(t))
    assert total == len(et.lattice_points(p, 1))


def test_half_open_moment_additivity(corpus_polygons):
    for p in list(corpus_polygons.values())[:6]:
        t = et.unimodular_triangulation(p)
        simplices = half_open_cells(t)
        for r in (0, 1, 2):
            for n in (0, 1, 2, 3):
                total = et.SymTensor.zero(r, 2)
                for s in simplices:
                    total = total + et.moment_halfopen(s, r, n)
                assert total == et.discrete_moment(p, r, n)


def test_half_open_h_additivity(corpus_polygons):
    for p in list(corpus_polygons.values())[:6]:
        t = et.unimodular_triangulation(p)
        simplices = half_open_cells(t)
        for r in (0, 1, 2):
            total = None
            for s in simplices:
                h = et.hr_halfopen(s, r)
                total = h if total is None else total + h
            assert total == et.to_hr_vector(p, r)


# ---------------------------------------------------------------------------
# sparse decomposition

def segment_intersection_points(a1, a2, b1, b2):
    """Exact intersection points of two closed segments (0, 1 or 2 points)."""
    d1 = (a2[0] - a1[0], a2[1] - a1[1])
    d2 = (b2[0] - b1[0], b2[1] - b1[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    diff = (b1[0] - a1[0], b1[1] - a1[1])
    if denom != 0:
        t = F(diff[0] * d2[1] - diff[1] * d2[0], denom)
        u = F(diff[0] * d1[1] - diff[1] * d1[0], denom)
        if 0 <= t <= 1 and 0 <= u <= 1:
            return [(a1[0] + t * d1[0], a1[1] + t * d1[1])]
        return []
    cross = diff[0] * d1[1] - diff[1] * d1[0]
    if cross != 0:
        return []  # parallel, distinct lines
    # collinear: project onto the dominant axis
    axis = 0 if d1[0] != 0 else 1
    if d1[axis] == 0:
        return []
    ta = sorted([F(0), F(1)])
    tb = sorted([F(b1[axis] - a1[axis], d1[axis]), F(b2[axis] - a1[axis], d1[axis])])
    lo, hi = max(ta[0], tb[0]), min(ta[1], tb[1])
    if lo > hi:
        return []
    out = []
    for t in {lo, hi}:
        out.append((a1[0] + t * d1[0], a1[1] + t * d1[1]))
    return out


def piece_pair_ok(a: et.Polytope, b: et.Polytope) -> bool:
    """Independent checker: pieces intersect in nothing or one shared vertex."""
    pts = set()
    for v in a.vertices:
        if b.contains(v):
            pts.add((F(v[0]), F(v[1])))
    for v in b.vertices:
        if a.contains(v):
            pts.add((F(v[0]), F(v[1])))
    ca, cb = polygon_vertex_cycle(a), polygon_vertex_cycle(b)
    for i in range(len(ca)):
        for j in range(len(cb)):
            for q in segment_intersection_points(ca[i], ca[(i + 1) % len(ca)],
                                                 cb[j], cb[(j + 1) % len(cb)]):
                pts.add(q)
    if not pts:
        return True
    if len(pts) > 1:
        return False
    (q,) = pts
    if q[0].denominator != 1 or q[1].denominator != 1:
        return False
    qi = (int(q[0]), int(q[1]))
    return qi in a.vertices and qi in b.vertices


def check_sparse_conditions(p: et.Polytope, pieces):
    covered = set()
    for piece in pieces:
        pts = et.lattice_points(piece, 1)
        assert len(pts) in (3, 4)
        covered.update(pts)
    assert covered == set(et.lattice_points(p, 1))
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            assert piece_pair_ok(pieces[i], pieces[j]), \
                (pieces[i].vertices, pieces[j].vertices)


def test_sparse_decomposition_small_cases():
    sq = et.convex_hull(NAMED_POLYGONS["unit_square"])
    assert len(et.sparse_decomposition(sq)) == 1
    tri = et.convex_hull(NAMED_POLYGONS["unit_triangle"])
    assert len(et.sparse_decomposition(tri)) == 1


def test_sparse_decomposition_rect_3x1():
    p = et.convex_hull(NAMED_POLYGONS["rect_3x1"])
    pieces = et.sparse_decomposition(p)
    check_sparse_conditions(p, pieces)


def test_sparse_decomposition_corpus(corpus_polygons):
    for name, p in corpus_polygons.items():
        pieces = et.sparse_decomposition(p)
        check_sparse_conditions(p, pieces)


def test_sparse_decomposition_collinear_heavy_shapes():
    for verts in ([(0, 0), (7, 0), (3, 1)], [(0, 0), (9, 0), (5, 1), (8, -1)],
                  [(-4, 0), (4, 0), (0, 1), (1, -1)], [(0, 0), (8, 0), (8, 1), (0, 1)]):
        p = et.convex_hull(verts)
        check_sparse_conditions(p, et.sparse_decomposition(p))


def test_sparse_decomposition_seeded_polygons():
    # coordinate bounds 2-6 and 3-8 generators, four seeds each
    for bound in range(2, 7):
        for gens in range(3, 9):
            for seed in range(4):
                p = et.random_lattice_polytope(2, bound, gens, seed=seed)
                check_sparse_conditions(p, et.sparse_decomposition(p))


def test_sparse_decomposition_outputs_are_pinned(monkeypatch):
    # the repr of every piece's vertices and facets on 144 polygons: bounds
    # 2-6, 3-9 generators, seeds 0-3, and the collinear-heavy shapes; the
    # corpus reaches both branches of the collinear base case
    polygons = [et.random_lattice_polytope(2, bound, gens, seed=seed)
                for bound in range(2, 7) for gens in range(3, 10) for seed in range(4)]
    polygons += [et.convex_hull(v) for v in (
        [(0, 0), (7, 0), (3, 1)], [(0, 0), (9, 0), (5, 1), (8, -1)],
        [(-4, 0), (4, 0), (0, 1), (1, -1)], [(0, 0), (8, 0), (8, 1), (0, 1)])]
    collinear_case, on_line = triangulation._collinear_case, []

    def recording(v1, v2, line_pts, points):
        on_line.append(cross2(line_pts[0], line_pts[1], v2) == 0)
        return collinear_case(v1, v2, line_pts, points)

    monkeypatch.setattr(triangulation, "_collinear_case", recording)
    lines = [repr([(q.vertices, q.facets) for q in et.sparse_decomposition(p)])
             for p in polygons]
    assert (on_line.count(True), on_line.count(False)) == (16, 23)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "b582e1db6adb51e328c1ec5dc920adcb2f9ad4a484357005bbca7f6c5c3a7823"


def assert_contact_agrees(a_pts, b_pts):
    a, b = et.convex_hull(a_pts), et.convex_hull(b_pts)
    expected = piece_pair_ok(a, b)
    assert triangulation._pieces_compatible(a, b) == expected, (a_pts, b_pts)
    assert triangulation._pieces_compatible(b, a) == expected, (a_pts, b_pts)
    return expected


def test_pieces_compatible_contact_kinds():
    tri = [(0, 0), (1, 0), (0, 1)]
    big = [(0, 0), (2, 0), (0, 2)]
    cases = [
        (tri, [(3, 3), (4, 3), (3, 4)], True),              # disjoint
        (tri, [(1, 0), (2, 0), (2, 1)], True),              # one shared vertex
        (tri, [(1, 0), (2, 0), (1, -1)], True),             # collinear edges, shared end
        (tri, [(2, 0), (3, 0), (2, -1)], True),             # collinear edges, apart
        (big, [(1, 1), (3, 1), (2, 2)], False),             # vertex inside an edge
        (tri, [(1, 0), (0, 1), (1, 1)], False),             # shared edge
        ([(0, 0), (2, 0), (0, 1)], [(1, 0), (3, 0), (2, -1)], False),  # collinear overlap
        (big, [(1, 0), (3, 0), (1, 2)], False),             # overlapping interiors
        (tri, tri, False),                                  # identical pieces
    ]
    for a_pts, b_pts, expected in cases:
        assert assert_contact_agrees(a_pts, b_pts) == expected, (a_pts, b_pts)


def test_pieces_compatible_matches_segment_oracle():
    rng = random.Random(2024)

    def piece_points():
        while True:
            pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.choice((3, 4)))]
            if len(affine_basis(pts)) == 3:
                return pts

    verdicts = [assert_contact_agrees(piece_points(), piece_points()) for _ in range(5000)]
    assert 0 < sum(verdicts) < len(verdicts)


def test_half_open_sums_independent_of_reference_point():
    # moving triangle k to the front moves the reference point into it
    p = et.convex_hull(NAMED_POLYGONS["skew_quad"])
    t = et.unimodular_triangulation(p)
    seen = set()
    for k in range(len(t.triangles)):
        cells = et.half_open_decomposition(t.points, t.triangles[k:] + t.triangles[:k])
        seen.add(frozenset(cells))
        total = None
        for c in cells:
            h = et.hr_halfopen(c, 2)
            total = h if total is None else total + h
        assert total == et.to_hr_vector(p, 2)
    assert len(seen) == len(t.triangles)
