"""Hulls, facets, exact enumeration, reflexivity, seeded generation."""
import gc
import hashlib
import math
import random
import weakref
from fractions import Fraction
from itertools import combinations, product

import pytest

import ehrtensor as et
from ehrtensor import ehrhart, polytopes
from ehrtensor.linalg import affine_basis
from ehrtensor.polytopes import (DegenerateInputError, FacetIneq, dilate_rows,
                                 placing_triangulation, polytope_from_json, polytope_to_json)
from ehrtensor.positivity import trial_seed
from ehrtensor.tensors import dot, vneg, vsub

from conftest import (NAMED_POLYGONS, NAMED_SOLIDS, cofactor_cross, dot_product_vertices,
                      fraction_rref, leibniz_det, oracle_polygon_interior_points,
                      oracle_polygon_points, record_calls)


def test_square_hull_removes_duplicates_and_interior():
    p = et.convex_hull([(0, 0), (1, 0), (0, 1), (1, 1), (1, 0)])
    assert len(p.vertices) == 4
    assert len(p.facets) == 4


def test_triangle_hull_facets():
    p = et.convex_hull([(0, 1), (-1, -7), (1, -4)])
    assert len(p.vertices) == 3
    assert len(p.facets) == 3
    for f in p.facets:
        assert all(et.tensors.dot(f.normal, v) <= f.rhs for v in p.vertices)


def test_collinear_input_raises_with_affine_dim():
    with pytest.raises(DegenerateInputError) as exc:
        et.convex_hull([(0, 0), (1, 1), (2, 2)])
    assert exc.value.affine_dim == 1


def brute_force_hull(points) -> et.Polytope:
    """Hull over every d-subset: a subset spanning a hyperplane with all
    points on one side gives a facet; a point is a vertex when the normals
    of its facets have rank d (cofactor normals, Fraction elimination)."""
    pts = sorted(set(map(tuple, points)))
    d = len(pts[0])
    ar = len(fraction_rref([vsub(p, pts[0]) for p in pts[1:]])[1])
    if ar < d:
        raise DegenerateInputError(ar, d)
    facet_set = set()
    for subset in combinations(pts, d):
        base = subset[0]
        normal = cofactor_cross([vsub(p, base) for p in subset[1:]], d)
        g = math.gcd(*normal)
        if g == 0:
            continue
        normal = tuple(x // g for x in normal)
        rhs = dot(normal, base)
        sides = {(dot(normal, p) > rhs) - (dot(normal, p) < rhs) for p in pts} - {0}
        if len(sides) == 2:
            continue
        if sides == {1}:
            normal, rhs = vneg(normal), -rhs
        facet_set.add((normal, rhs))
    facets = tuple(FacetIneq(n, r) for n, r in sorted(facet_set))
    vertices = []
    for p in pts:
        active = [f.normal for f in facets if dot(f.normal, p) == f.rhs]
        if len(active) >= d and len(fraction_rref(active)[1]) == d:
            vertices.append(p)
    return et.Polytope(d, tuple(vertices), facets)


def assert_hull_matches_oracle(pts) -> bool:
    """convex_hull(pts) equals the brute-force hull; False when degenerate."""
    try:
        expected = brute_force_hull(pts)
    except DegenerateInputError as exc:
        with pytest.raises(DegenerateInputError) as got:
            et.convex_hull(pts)
        assert (got.value.affine_dim, got.value.ambient_dim) == \
            (exc.affine_dim, exc.ambient_dim), pts
        return False
    assert et.convex_hull(pts) == expected, pts
    return True


def test_convex_hull_matches_brute_force_oracle():
    for d in range(1, 6):
        rng = random.Random(6000 + d)
        degenerate = 0
        for k in range(40):
            bound = rng.randint(1, 3)
            pts = [tuple(rng.randint(-bound, bound) for _ in range(d))
                   for _ in range(rng.randint(d + 1, d + 5))]
            if k % 4 == 0 and d > 1:    # flattened into the hyperplane x_d = x_1
                pts = [p[:-1] + p[:1] for p in pts]
            degenerate += not assert_hull_matches_oracle(pts)
        assert degenerate >= 10 or d == 1
    # every draw of the seed-42 d=4 hibi scan, degenerate retries included
    for trial in range(96):
        rng = random.Random(trial_seed(42, trial))
        while not assert_hull_matches_oracle(
                [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(8)]):
            pass


def hidden_point_sets():
    """Per d = 3..6, the vertices 0, 6e_i and (5, ..., 5), and their negatives, with
    points in the relative interior of edges (3e_i, 3e_i + 3e_j) and 2-faces (2e_i +
    2e_j; 2e_i + 2e_j + 2e_k, inside P at d = 3), each sorting, and so placed, before a
    vertex that hides it; and seeded points in d = 3..5 with every integral midpoint."""
    for d in range(3, 7):
        e = [tuple(int(i == j) for j in range(d)) for i in range(d)]

        def combination(c, *axes):
            return tuple(c * sum(x) for x in zip(*axes))

        vertices = [(0,) * d, *(combination(6, u) for u in e), (5,) * d]
        hidden = ([combination(3, u) for u in e]
                  + [combination(c, u, v) for c in (3, 2) for u, v in combinations(e, 2)]
                  + [combination(2, *axes) for axes in combinations(e, 3)])
        for sign in (1, -1):
            yield ([tuple(sign * x for x in q) for q in hidden + vertices],
                   sorted(tuple(sign * x for x in v) for v in vertices))
    for d in range(3, 6):
        rng = random.Random(8800 + d)
        for _ in range(6):
            pts = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d + 3)]
            yield pts + [tuple((a + b) // 2 for a, b in zip(u, v)) for u, v in combinations(pts, 2)
                         if not any((a + b) % 2 for a, b in zip(u, v))], None


def test_vertices_are_the_boundary_corners_no_other_point_dominates():
    # a vertex is a corner of the boundary, a corner lies on a facet exactly when it
    # is a corner of a face on it, and a point the placing triangulation skipped
    # dominates no vertex: the vertices read off the corners are those of the
    # dot-product rule, on hulls with non-vertex points among the corners
    pinned, hidden_corners = [], 0
    for pts, expected in hidden_point_sets():
        p = et.convex_hull(pts)
        points, boundary = p.boundary
        assert p.vertices == dot_product_vertices(points, p.facets), pts
        assert expected is None or list(p.vertices) == expected, pts
        hidden_corners += len({i for face, _, _ in boundary for i in face
                               if points[i] not in p.vertices})
        pinned.append(repr((p.vertices, p.facets)))
    assert hidden_corners == 266
    assert hashlib.sha256("\n".join(pinned).encode()).hexdigest() == \
        "40a3f6284264dcdd22c5666f31459ad3793dd56231c59836d8eb6cc9d29dcb0f"


def test_placing_simplices_sum_to_normalized_volume():
    for d in range(1, 6):
        rng = random.Random(7000 + d)
        for _ in range(8):
            pts = [tuple(rng.randint(-1, 2) for _ in range(d)) for _ in range(d + 5)]
            try:
                p = et.convex_hull(pts)
            except DegenerateInputError:
                continue
            simplices, boundary = placing_triangulation(pts)
            volume = sum(abs(leibniz_det([vsub(pts[i], pts[s[0]]) for i in s[1:]]))
                         for s in simplices)
            lead = et.ehrhart_tensor_polynomial(p, 0).coeffs[-1].as_scalar()
            assert volume == math.factorial(d) * lead, pts
            planes = {plane for _, plane, _ in boundary}
            assert sorted(planes) == [(f.normal, f.rhs) for f in p.facets], pts


def test_placing_boundary_keeps_facet_lattice_volumes():
    # beside each plane: the gcd of the face's cofactor normal, its volume in
    # the lattice of the hyperplane, which the facet moments weight it by
    for d in range(2, 6):
        for seed in range(6):
            p = et.random_lattice_polytope(d, 2, d + 4, seed=8200 + 10 * d + seed)
            points, boundary = p.boundary
            for face, (normal, _), volume in boundary:
                vs = [points[i] for i in face]
                cross = cofactor_cross([vsub(v, vs[0]) for v in vs[1:]], d)
                assert volume == math.gcd(*cross), (d, seed, face)
                assert tuple(abs(x) for x in normal) == tuple(abs(x) // volume for x in cross)


def test_facet_volumes_add_no_cross_product(monkeypatch):
    # above 2D the hull takes one integer inverse, whose rows give the faces
    # of its starting simplex, and a polygon's chain takes none; the volume
    # and facet moments read the lattice volumes the boundary keeps
    inverses = record_calls(monkeypatch, polytopes, "lifted_inverse")
    for d in (2, 3, 4, 5):
        inverses.clear()
        p = et.random_lattice_polytope(d, 2, d + 4, seed=8300 + d)
        _, boundary = p.boundary
        assert len(inverses) == (d != 2) and d + 1 <= len(boundary), d
        et.moment_tensor(p, 3), et.second_coefficient_facets(p, 3)
        assert len(inverses) == (d != 2), d


def coplanar_placements(points) -> int:
    """Horizon ridges whose face across lies in a plane through the placed point
    (height a_G = 0), counted by replaying the placing order: the boundary of
    each prefix that holds the starting simplex is the state before the next
    point is placed."""
    d, count = len(points[0]), 0
    for m in range(max(affine_basis(points)) + 1, len(points)):
        _, boundary = placing_triangulation(points[:m])
        heights = {face: dot(normal, points[m]) - rhs for face, (normal, rhs), _ in boundary}
        for f, g in combinations(heights, 2):
            low, high = sorted((heights[f], heights[g]))
            count += len(set(f) & set(g)) == d - 1 and low == 0 < high
    return count


def _pencil_inputs():
    rng = random.Random(8400)
    simplex = [tuple(2 * int(i == j) for i in range(4)) for j in range(-1, 4)]
    midpoints = [tuple((a + b) // 2 for a, b in zip(u, v)) for u, v in combinations(simplex, 2)]
    yield "2simplex4-midpoints", midpoints + simplex
    for d in (2, 3, 4, 5):
        yield f"box{d}", list(product(range(3), repeat=d))
    for d, bound, count in ((3, 2, 60), (4, 1, 50), (4, 2, 40), (5, 1, 40)):
        yield f"dense{d}-{bound}", [tuple(rng.randint(-bound, bound) for _ in range(d))
                                    for _ in range(count)]


PENCIL_INPUTS = dict(_pencil_inputs())


@pytest.mark.parametrize("name", PENCIL_INPUTS)
def test_pencil_planes_and_volumes_match_cofactor_cross(name):
    # every face after the starting simplex takes its plane from the two
    # planes on its horizon ridge and its volume from the visible face's:
    # both must equal what the face's own cofactor normal gives, on inputs
    # whose boundary points are coplanar
    points = PENCIL_INPUTS[name]
    d = len(points[0])
    _, boundary = placing_triangulation(points)
    for face, (normal, rhs), volume in boundary:
        vs = [points[i] for i in face]
        cross = cofactor_cross([vsub(v, vs[0]) for v in vs[1:]], d)
        assert volume == math.gcd(*cross), face
        primitive = tuple(x // volume for x in cross)
        assert normal in (primitive, vneg(primitive)), face
        assert rhs == dot(normal, vs[0]) >= max(dot(normal, q) for q in points), face
    if len(points) <= 30:
        assert coplanar_placements(points) > 0


def test_every_hull_keeps_the_boundary_it_built(monkeypatch):
    # the boundary indexes the sorted input points, so above 2D a non-vertex
    # point may be a corner, and nothing is triangulated again; a polygon
    # keeps its chain's edges and triangulates nothing, and a translate is
    # the hull of its moved vertices, so no boundary read builds one again
    builds = record_calls(monkeypatch, polytopes, "placing_triangulation")
    for d in (1, 2, 3, 4):
        rng = random.Random(8100 + d)
        kept = non_vertex = 0
        while kept < 3 or non_vertex < 3:
            pts = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d + 3)]
            builds.clear()
            try:
                p = et.convex_hull(pts)
            except DegenerateInputError:
                continue
            points, boundary = p.boundary
            assert len(builds) == (d != 2) and points == tuple(sorted(set(pts))), pts
            assert sorted({plane for _, plane, _ in boundary}) == \
                [(f.normal, f.rhs) for f in p.facets], pts
            kept += 1
            non_vertex += len(p.vertices) < len(points)
    polygon = et.convex_hull(NAMED_POLYGONS["skew_quad"])
    solid = et.convex_hull(NAMED_SOLIDS["reeve_tetrahedron"])
    builds.clear()
    moved = solid.translate((3, -2, 5))
    assert [c["points"] for c in builds] == [moved.vertices]
    builds.clear()
    for p in (polygon, moved, polygon, moved):
        assert p.boundary[0] == p.vertices
    assert builds == []


def test_a_polygon_hull_takes_no_affine_basis(monkeypatch):
    # the monotone chain refuses collinear input itself; above 2D the placing
    # triangulation finds its starting simplex by one affine basis
    bases = record_calls(monkeypatch, polytopes, "affine_basis")
    for pts in NAMED_POLYGONS.values():
        et.convex_hull(pts)
    with pytest.raises(DegenerateInputError):
        et.convex_hull([(0, 0), (1, 1), (2, 2)])
    assert bases == []
    et.convex_hull(NAMED_SOLIDS["reeve_tetrahedron"])
    assert len(bases) == 1


def _boundary_pin_polygons():
    """The named polygons, a triangle with two non-vertex boundary points and
    an interior point, and seeded draws of 4..12 points from boxes of bound
    2..8, two per bound and count, as input point lists."""
    yield from NAMED_POLYGONS.values()
    yield [(0, 0), (1, 0), (3, 0), (0, 2), (0, 3), (1, 1)]
    rng = random.Random(4400)
    for bound in range(2, 9):
        for count in range(4, 13):
            for _ in range(2):
                yield [(rng.randint(-bound, bound), rng.randint(-bound, bound))
                       for _ in range(count)]


def test_polygon_boundary_and_sums_are_pinned():
    # a polygon's boundary faces are its hull edges whichever routine lists
    # them: the same (corner points, plane, lattice length) as the placing
    # triangulation of its vertices, and the same volume and facet sums
    def faces(points, boundary):
        return {(tuple(sorted(points[i] for i in face)), plane, g) for face, plane, g in boundary}

    digest, on_edge, inside, kept = hashlib.sha256(), 0, 0, 0
    for pts in _boundary_pin_polygons():
        try:
            p = et.convex_hull(pts)
        except DegenerateInputError:
            continue
        assert faces(*p.boundary) == faces(p.vertices, placing_triangulation(p.vertices)[1]), pts
        digest.update(repr(ehrhart._simplex_sums(p, 4)).encode())
        rest = set(pts) - set(p.vertices)
        on_edge += any(any(dot(f.normal, x) == f.rhs for f in p.facets) for x in rest)
        inside += any(p.contains(x, strict=True) for x in rest)
        kept += 1
    assert (kept, on_edge, inside) == (136, 45, 104)
    assert digest.hexdigest() == \
        "c833aebb38356cc290d641aaa15ffd89afd0fd54069e12f9db41fe57ec9dea20"


def test_translates_and_their_boundaries_are_pinned():
    # a translate has the moved vertices and facets of its polytope, and its
    # boundary faces as (sorted corner points, plane, lattice volume)
    digest, rng = hashlib.sha256(), random.Random(4500)
    for d in range(1, 6):
        for k in range(6):
            p = et.random_lattice_polytope(d, 2, d + 3, seed=4500 + 10 * d + k)
            t = tuple(rng.randint(-10 ** (k + 1), 10 ** (k + 1)) for _ in range(d))
            moved = p.translate(t)
            points, boundary = moved.boundary
            assert points == moved.vertices
            faces = sorted((tuple(sorted(points[i] for i in face)), plane, g)
                           for face, plane, g in boundary)
            digest.update(repr((moved.dim, moved.vertices, moved.facets, faces)).encode())
    assert digest.hexdigest() == \
        "7d99db12d95048b91c63cf86d2544eb607a7ef1e5e572498e4ee3efed81eec75"


def _flat_point_sets():
    """``(points, affine_dim)``: single and repeated points in d = 1..4, and
    seeded collinear 2D sets and coplanar 3D sets, with their affine dimension."""
    for d in range(1, 5):
        x = tuple(range(3, 3 + d))
        yield [x], 0
        yield [x, x, x], 0
    yield [(0, 0), (1, 1), (2, 2)], 1
    yield [(0, 0), (0, 1), (0, 5), (0, 1)], 1
    yield [(-2, 3), (4, 3)], 1
    yield [(0, 0, 0), (1, 2, 3), (-1, -2, -3)], 1
    yield [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], 2
    yield [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)], 3
    rng = random.Random(4501)
    for _ in range(20):
        u = (rng.randint(-3, 3), rng.randint(1, 3))
        o = (rng.randint(-5, 5), rng.randint(-5, 5))
        cs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
        yield [(o[0] + c * u[0], o[1] + c * u[1]) for c in cs], int(len(set(cs)) > 1)
    for _ in range(20):
        u, v = (tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(2))
        if not any(cofactor_cross([u, v], 3)):
            continue
        cs = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.randint(1, 7))]
        spread = {(a - cs[0][0], b - cs[0][1]) for a, b in cs} - {(0, 0)}
        flat = 0 if not spread else 1 if all(
            x * b - y * a == 0 for a, b in spread for x, y in spread) else 2
        yield [tuple(a * s + b * w for s, w in zip(u, v)) for a, b in cs], flat


def test_degenerate_refusals_are_pinned():
    refused = []
    for pts, flat in _flat_point_sets():
        with pytest.raises(DegenerateInputError) as err:
            et.convex_hull(pts)
        refused.append((err.value.affine_dim, err.value.ambient_dim))
        assert refused[-1] == (flat, len(pts[0])), pts
    assert len(refused) == 53 and len(set(refused)) == 8


def test_a_hibi_scan_triangulates_each_hull_once(monkeypatch):
    # the h route's volume and facet sums read the boundary each hull kept,
    # and each hull takes one integer inverse for its starting simplex
    builds = record_calls(monkeypatch, polytopes, "placing_triangulation")
    inverses = record_calls(monkeypatch, polytopes, "lifted_inverse")
    report = et.conjecture_scan(4, 60, 2, 8, 1, "hibi")
    assert report.completed + report.skipped_no_interior == 60
    assert len(builds) == len(inverses) == 60


def test_equal_polytopes_hash_alike_and_keep_their_own_dilates(monkeypatch):
    pts = [(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    a = et.convex_hull(pts)
    b = et.convex_hull(pts[::-1] + [(1, 0, 0)])
    c = et.Polytope(a.dim, a.vertices, a.facets)
    assert a == b == c and a is not b
    assert hash(a) == hash(b) == hash(c) == hash((a.dim, a.vertices, a.facets))
    assert a != et.Polytope(a.dim, a.vertices, a.facets[1:])
    # equal polytopes scan the same rows, each into its own store
    scans = record_calls(monkeypatch, polytopes, "scan_rows")
    assert dilate_rows(a, 2) == dilate_rows(b, 2) == dilate_rows(c, 2)
    assert len(scans) == 3
    # the h of rank 1 reads 2P, then 1P off its rows, with no scan
    et.to_hr_vector(a, 1)
    assert set(a.dilates) == {1, 2} | {(n, side) for n in (1, 2)
                                       for side in ("closed", "interior")}
    assert list(b.dilates) == list(c.dilates) == [2]
    assert dilate_rows(b, 2) is b.dilates[2] is not a.dilates[2]
    assert len(scans) == 3


@pytest.mark.parametrize("d", range(1, 6))
def test_smaller_dilates_are_read_off_a_stored_multiple(d, monkeypatch):
    # x is in nP iff qx is in NP, and in nP° iff qx is in NP°: with the rows of NP
    # stored, those of nP, n | N, are read off them with no scan, and equal the
    # scan of nP on a fresh copy, on seeded polytopes and a far translate
    scans = record_calls(monkeypatch, polytopes, "scan_rows")
    nested = 1 + (d == 1)       # a 1D scan is one 2D slice, a nested call
    corpus = [et.random_lattice_polytope(d, (6, 3, 2, 1, 1)[d - 1], d + 3, seed=4800 + 10 * d + k)
              for k in range(3)]
    shift = tuple((-1) ** i * (10**9 + 7 * i) for i in range(d))
    for p in corpus + [corpus[0].translate(shift)]:
        for multiple, n in [(2, 1), (3, 1), (4, 1), (4, 2)]:
            q = et.convex_hull(p.vertices)
            dilate_rows(q, multiple)
            scans.clear()
            read = dilate_rows(q, n)
            assert scans == [], (p.vertices, multiple, n)
            assert read == dilate_rows(et.convex_hull(p.vertices), n), (p.vertices, multiple, n)
            assert len(scans) == nested
        # 0P and a dilate no stored one is a multiple of are scanned; 1P is
        # read off the least stored multiple, 2P, and not off 4P's rows
        q = et.convex_hull(p.vertices)
        dilate_rows(q, 4)
        scans.clear()
        assert dilate_rows(q, 3) == dilate_rows(et.convex_hull(p.vertices), 3)
        assert len(scans) == 2 * nested
        scans.clear()
        assert [row[:3] for row in dilate_rows(q, 0)] == [((0,) * (d - 1), 0, 0)]
        assert len(scans) == nested
        dilate_rows(q, 2)
        q.dilates[4] = ()
        scans.clear()
        assert dilate_rows(q, 1) == dilate_rows(et.convex_hull(p.vertices), 1)
        assert len(scans) == nested


@pytest.mark.parametrize("build", [
    lambda: et.convex_hull([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    lambda: et.random_lattice_polytope(4, 2, 8, trial_seed(42, 95)),
    lambda: polytope_from_json({"vertices": [[0, 0], [4, 1], [3, 4], [-1, 2]]}),
], ids=["convex_hull", "random_lattice_polytope", "polytope_from_json"])
def test_building_a_polytope_scans_no_dilate(build, monkeypatch):
    # a polytope built ahead of its work (a bench item's set-up) starts with
    # an empty store, so its first request scans every dilate it reads
    scans = record_calls(monkeypatch, polytopes, "scan_rows")
    p = build()
    assert scans == [] and p.dilates == {}


def test_dropped_polytope_frees_its_dilates():
    p = et.random_lattice_polytope(3, 2, 8, seed=5)
    ref = weakref.ref(p)
    et.to_hr_vector(p, 2)
    assert ref() is p
    del p
    gc.collect()
    assert ref() is None


SHADOW_CORPUS = {name: et.convex_hull(v) for name, v in NAMED_SOLIDS.items()} | {
    f"random_d{d}_{k}": et.random_lattice_polytope(d, 2, d + 2 + k, 300 * d + k)
    for d in (3, 4, 5) for k in range(4)}


def test_slanted_prism_has_a_facet_parallel_to_the_last_axis():
    assert any(f.normal[-1] == 0 for f in SHADOW_CORPUS["slanted_prism"].facets)


@pytest.mark.parametrize("name", SHADOW_CORPUS)
def test_shadows_are_the_facets_of_each_projection(name):
    # every shadow holds on the projected vertices, and each facet of their
    # hull is among the shadows exactly once, up to a positive factor; both in
    # the scan frame, whose coordinate k is axis scan_order[k]
    p = SHADOW_CORPUS[name]
    assert len(p.shadows) == p.dim - 1
    for k, level in enumerate(p.shadows):
        points = [tuple(v[i] for i in p.scan_order[:k + 1]) for v in p.vertices]
        assert all(len(a) == k + 1 and all(dot(a, q) <= c for q in points) for a, c in level)
        normalized = []
        for a, c in level:
            g = math.gcd(*a)
            normalized.append((tuple(x // g for x in a), Fraction(c, g)))
        for f in et.convex_hull(points).facets:
            assert normalized.count((f.normal, f.rhs)) == 1, (k, f)


def test_unit_square_dilate_counts():
    p = et.convex_hull(NAMED_POLYGONS["unit_square"])
    assert len(et.lattice_points(p, 2)) == 9
    for n in range(4):
        assert len(et.lattice_points(p, n)) == (n + 1) ** 2


def test_cube_counts_all_dims():
    for d in (1, 2, 3, 4):
        cube = et.convex_hull(list(__import__("itertools").product((0, 1), repeat=d)))
        assert len(et.lattice_points(cube, 1)) == 2 ** d
        for n in (2, 3):
            assert len(et.lattice_points(cube, n)) == (n + 1) ** d


def test_unit_triangle_points():
    p = et.convex_hull(NAMED_POLYGONS["unit_triangle"])
    assert sorted(et.lattice_points(p, 1)) == [(0, 0), (0, 1), (1, 0)]


def test_dilate_zero_is_origin():
    p = et.convex_hull(NAMED_POLYGONS["skew_quad"])
    assert et.lattice_points(p, 0) == [(0, 0)]


def test_interior_points_examples():
    sq = et.convex_hull(NAMED_POLYGONS["unit_square"])
    assert et.interior_lattice_points(sq, 1) == []
    assert et.interior_lattice_points(sq, 2) == [(1, 1)]
    sym = et.convex_hull(NAMED_POLYGONS["sym_square"])
    assert et.interior_lattice_points(sym, 1) == [(0, 0)]


def test_enumeration_matches_brute_force_oracle(corpus_polygons):
    for name, p in corpus_polygons.items():
        for n in (0, 1, 2, 3):
            assert sorted(et.lattice_points(p, n)) == \
                sorted(oracle_polygon_points(p.vertices, n)), name
        for n in (1, 2):
            assert sorted(et.interior_lattice_points(p, n)) == \
                sorted(oracle_polygon_interior_points(p.vertices, n)), name


def test_every_enumerated_point_satisfies_facets(corpus_polygons):
    for p in corpus_polygons.values():
        for n in (1, 2):
            for x in et.lattice_points(p, n):
                assert p.contains(x, n)


def test_reflexive_examples():
    assert et.is_reflexive(et.convex_hull(NAMED_POLYGONS["sym_square"]))
    assert et.is_reflexive(et.convex_hull(NAMED_POLYGONS["reflexive_triangle"]))
    assert not et.is_reflexive(et.convex_hull(NAMED_POLYGONS["unit_triangle"]))
    assert not et.is_reflexive(et.convex_hull(NAMED_POLYGONS["dilated_reflexive_triangle"]))


def test_reflexive_dilate_interior_identity():
    # for reflexive P the points of nP are exactly the interior points of (n+1)P
    for verts in (NAMED_POLYGONS["sym_square"], NAMED_POLYGONS["reflexive_triangle"]):
        p = et.convex_hull(verts)
        for n in (1, 2, 3):
            assert sorted(et.lattice_points(p, n)) == \
                sorted(et.interior_lattice_points(p, n + 1))
    cube3 = et.convex_hull([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    assert et.is_reflexive(cube3)
    for n in (1, 2):
        assert sorted(et.lattice_points(cube3, n)) == \
            sorted(et.interior_lattice_points(cube3, n + 1))


def test_random_polytope_deterministic_and_bounded():
    a = et.random_lattice_polytope(2, 3, 5, seed=1)
    b = et.random_lattice_polytope(2, 3, 5, seed=1)
    assert a.vertices == b.vertices
    assert all(abs(c) <= 3 for v in a.vertices for c in v)
    c = et.random_lattice_polytope(3, 2, 6, seed=7)
    assert c.dim == 3
    assert len(c.vertices) >= 4


def test_random_polytope_rejects_bad_args():
    with pytest.raises(ValueError):
        et.random_lattice_polytope(3, 2, 3, seed=0)


def test_translate_refuses_non_integer_offsets():
    # a float or bool offset used to give vertices like (0.5, 1) and a facet
    # rhs of -0.5, on which discrete_moment died in range()
    p = et.convex_hull([(0, 0), (1, 0), (0, 1)])
    for t in ((0.5, 1), (0, True), (1, "2"), (1.0, 0)):
        with pytest.raises(ValueError, match="expected an integer"):
            p.translate(t)
    assert p.translate((2, -1)).vertices == ((2, -1), (2, 0), (3, -1))


def test_polytope_json_round_trip(corpus_polygons):
    for p in corpus_polygons.values():
        q = polytope_from_json(polytope_to_json(p))
        assert q == p


def test_segment_polytope_d1():
    seg = et.convex_hull([(-2,), (3,)])
    assert len(et.lattice_points(seg, 1)) == 6
    assert len(et.interior_lattice_points(seg, 1)) == 4
    assert len(et.lattice_points(seg, 2)) == 11
