"""Half-open simplices: box slices, Eulerian numerators, closed 2D forms."""
import math
import random
from fractions import Fraction
from itertools import product

import pytest

import ehrtensor as et
from ehrtensor import ehrhart, halfopen, linalg, tensors
from ehrtensor.halfopen import halfopen_from_json, halfopen_to_json
from ehrtensor.polytopes import placing_triangulation
from ehrtensor.tensors import dot, moment_of_points, vneg
from ehrtensor.triangulation import INSERTION_ORDERS

from conftest import (all_dilates_oracle, box_rows, fraction_inverse, leibniz_det, oracle_moment,
                      record_calls, scan_points)

F = Fraction


def mat(rows):
    return et.SymTensor.from_matrix(rows)


def vec(entries):
    return et.SymTensor.from_vector(entries)


UNIT = [(0, 0), (1, 0), (0, 1)]


def test_eulerian_small_values():
    assert et.eulerian_polynomial(0) == (1,)
    assert et.eulerian_polynomial(1) == (0, 1)
    assert et.eulerian_polynomial(2) == (0, 1, 1)
    assert et.eulerian_polynomial(3) == (0, 1, 4, 1)


def test_eulerian_coefficients_sum_to_factorial():
    for j in range(7):
        assert sum(et.eulerian_polynomial(j)) == math.factorial(j)


def test_eulerian_generating_identity():
    # sum_{n<=N} n^j t^n agrees with A_j(t)/(1-t)^(j+1) up to degree N
    for j in range(5):
        a = et.eulerian_polynomial(j)
        # multiply the truncated series of (1-t)^-(j+1) by A_j
        N = 8
        series = [math.comb(n + j, j) for n in range(N + 1)]
        prod = [0] * (N + 1)
        for i, c in enumerate(a):
            for n in range(N + 1 - i):
                prod[i + n] += c * series[n]
        assert prod == [(n ** j if n or j == 0 else 0) for n in range(N + 1)] or j == 0
        if j == 0:
            assert prod == [1] * (N + 1)


def test_box_slices_closed_unit_simplex():
    s = et.HalfOpenSimplex.make(UNIT, [])
    b = et.box_slices(s)
    assert b.slices == (((0, 0),), (), ())


def test_box_slices_one_removed():
    s = et.HalfOpenSimplex.make(UNIT, [0])
    b = et.box_slices(s)
    assert b.slices == ((), ((0, 0),), ())


def test_box_slices_two_removed():
    s = et.HalfOpenSimplex.make(UNIT, [1, 2])
    b = et.box_slices(s)
    assert b.slices == ((), (), ((1, 1),))


def test_box_slices_general_unimodular_vertex_identities():
    # for any unimodular triangle the box point is the sum of removed lifts
    rng = random.Random(5)
    for _ in range(20):
        a = [(1, 0), (0, 1)]
        for _ in range(4):  # random unimodular shear/swap
            k = rng.randint(-2, 2)
            a = [(a[0][0] + k * a[1][0], a[0][1] + k * a[1][1]), a[1]]
            a.reverse()
        t = (rng.randint(-4, 4), rng.randint(-4, 4))
        v = [t, (t[0] + a[0][0], t[1] + a[0][1]), (t[0] + a[1][0], t[1] + a[1][1])]
        s1 = et.HalfOpenSimplex.make(v, [0])
        assert et.box_slices(s1).slices[1] == (v[0],)
        s2 = et.HalfOpenSimplex.make(v, [1, 2])
        expected = (v[1][0] + v[2][0], v[1][1] + v[2][1])
        assert et.box_slices(s2).slices[2] == (expected,)


def test_box_slice_count_is_normalized_volume():
    for verts, removed in ([[(0, 0), (3, 1), (1, 2)], []],
                           [[(0, 0), (3, 1), (1, 2)], [1]],
                           [[(-1, -1), (2, 0), (0, 3)], [0, 2]],
                           [[(0, 0), (2, 1), (1, 3)], [2]]):
        s = et.HalfOpenSimplex.make(verts, removed)
        assert et.box_slices(s).total == s.normalized_volume()


def brute_force_box_slices(s):
    """Box points by testing every point of the lifted bounding box.

    Each candidate z gets its barycentric coordinates ``lambda_i = num_i / D``
    (``num`` from the integer matrix ``D * inverse`` of the lifted vertex
    matrix, ``D = |det|``) and is kept when ``0 < lambda_i <= 1`` on removed
    facets and ``0 <= lambda_i < 1`` on kept ones.
    """
    d = s.dim
    lifted = [tuple(v) + (1,) for v in s.vertices]
    vmat = [[lifted[col][row] for col in range(d + 1)] for row in range(d + 1)]
    dabs = abs(leibniz_det(vmat))
    adj = [[int(x * dabs) for x in row] for row in fraction_inverse(vmat)]
    lo = [sum(min(0, v[j]) for v in lifted) for j in range(d + 1)]
    hi = [sum(max(0, v[j]) for v in lifted) for j in range(d + 1)]
    slices = [[] for _ in range(d + 1)]
    for z in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        nums = (sum(c * x for c, x in zip(row, z)) for row in adj)
        if all(0 < num <= dabs if i in s.removed else 0 <= num < dabs
               for i, num in enumerate(nums)):
            slices[z[d]].append(tuple(z[:d]))
    return tuple(tuple(sorted(sl)) for sl in slices)


def scan_box_slices(s):
    """Box points by the row scan of the lifted bounding box.

    The box is cut out of the bounding box of the lifted parallelepiped by
    ``0 < a_i.z <= D`` on removed facets and ``0 <= a_i.z < D`` on kept ones
    (``a_i`` the barycentric rows, ``D = |det|``).  Height is the last
    coordinate, so a row ``(prefix, lo, hi)`` puts ``prefix`` into slices
    lo..hi, each slice in lexicographic order.  Unlike the brute force it
    stays fast at the normalized volumes of random 4-simplices.
    """
    d = s.dim
    lifted = [tuple(v) + (1,) for v in s.vertices]
    rows, dabs = s.barycentric_rows()
    cons = []
    for i, a in enumerate(rows):
        kept = i not in s.removed
        cons += [(vneg(a), 0 if kept else -1), (a, dabs - 1 if kept else dabs)]
    bounds = [(sum(min(0, v[j]) for v in lifted), sum(max(0, v[j]) for v in lifted))
              for j in range(d + 1)]
    slices = [[] for _ in range(d + 1)]
    for prefix, lo, hi, _, _ in box_rows(bounds, cons):
        for height in range(lo, hi + 1):
            slices[height].append(prefix)
    return tuple(map(tuple, slices))


def assert_box_matches_scan(s):
    box = et.box_slices(s)
    assert box.slices == scan_box_slices(s), (s.vertices, s.removed)
    assert box.total == s.normalized_volume()
    assert all(list(sl) == sorted(sl) for sl in box.slices)
    return box


def test_box_slices_match_scan_at_large_volumes():
    # drawn like the benchmark's half-open 4-simplices: vertices in [-3, 3]^4,
    # the k-th simplex removes k mod 5 random facets
    rng = random.Random(11)
    volumes = []
    while len(volumes) < 60:
        verts = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(5)]
        removed = rng.sample(range(5), len(volumes) % 5)
        if leibniz_det([v + [1] for v in verts]):
            s = et.HalfOpenSimplex.make(verts, removed)
            volumes.append(assert_box_matches_scan(s).total)
    assert max(volumes) > 300 and sum(volumes) > 60 * 80


def test_box_slices_match_scan_in_low_dimensions():
    rng = random.Random(303)
    for d in range(1, 4):
        for _ in range(150):
            verts = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d + 1)]
            if leibniz_det([v + [1] for v in verts]):
                removed = rng.sample(range(d + 1), rng.randint(0, d))
                assert_box_matches_scan(et.HalfOpenSimplex.make(verts, removed))


def _unimodular_simplex(rng, d):
    # the standard simplex under random integer shears, swaps and a shift
    basis = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i != j:
            k = rng.randint(-1, 1)
            basis[i] = [a + k * b for a, b in zip(basis[i], basis[j])]
        basis.reverse()
    shift = [rng.randint(-2, 2) for _ in range(d)]
    return [shift] + [[a + b for a, b in zip(shift, row)] for row in basis]


def test_box_slices_match_brute_force_oracle():
    rng = random.Random(404)
    unimodular = 0
    for d in range(1, 5):
        for k in range(d + 1):
            cases = [_unimodular_simplex(rng, d)]
            while len(cases) < 4:
                verts = [[rng.randint(-2, 2) for _ in range(d)]
                         for _ in range(d + 1)]
                if leibniz_det([v + [1] for v in verts]):
                    cases.append(verts)
            for verts in cases:
                s = et.HalfOpenSimplex.make(verts, rng.sample(range(d + 1), k))
                box = et.box_slices(s)
                assert box.slices == brute_force_box_slices(s), (verts, s.removed)
                assert box.total == s.normalized_volume()
                unimodular += s.normalized_volume() == 1
                for i, (normal, rhs) in enumerate(s.facets()):
                    assert math.gcd(*normal) == 1
                    assert [dot(normal, v) - rhs == 0 for v in s.vertices] == \
                        [j != i for j in range(d + 1)]
                    assert dot(normal, s.vertices[i]) < rhs
    assert unimodular >= 14


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def poly_product(a, b):
    """Coefficients of the product of two integer polynomials, low degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def per_composition_hr(s, r):
    """h-tensor vector with one symmetric product per (composition, slice).

    For each composition ``r = k_0 + ... + k_(d+1)``, the product of the
    vertex powers with slice moment ``(k_0, i)`` is scaled by every
    coefficient of ``(1-t)^(k_0) A_(k_1)(t) ... A_(k_(d+1))(t)`` and added
    at t^(i + deg).
    """
    d = s.dim
    slices = et.box_slices(s).slices
    slice_moments = [[moment_of_points(pts, k, d) for pts in slices]
                     for k in range(r + 1)]
    out = [et.SymTensor.zero(r, d) for _ in range(d + r + 1)]
    for comp in _compositions(r, d + 2):
        poly = [(-1) ** e * math.comb(comp[0], e) for e in range(comp[0] + 1)]
        vertex_part = et.SymTensor.scalar(d, 1)
        for v, kj in zip(s.vertices, comp[1:]):
            poly = poly_product(poly, et.eulerian_polynomial(kj))
            vertex_part = et.sym_product(vertex_part, et.outer_power(v, kj, d))
        for i, base in enumerate(slice_moments[comp[0]]):
            tensor = et.sym_product(vertex_part, base)
            for deg, c in enumerate(poly):
                if c:
                    out[i + deg] = out[i + deg] + tensor * c
    return et.HrVector(tuple(out))


def test_hr_halfopen_matches_per_composition_oracle():
    rng = random.Random(1212)
    for d in range(1, 6):
        span = 3 if d < 5 else 2
        for k in range(d + 1):
            found = 0
            while found < 2:
                verts = [[rng.randint(-span, span) for _ in range(d)] for _ in range(d + 1)]
                if not leibniz_det([v + [1] for v in verts]):
                    continue
                s = et.HalfOpenSimplex.make(verts, rng.sample(range(d + 1), k))
                for r in range(5):
                    h = et.hr_halfopen(s, r)
                    assert h == per_composition_hr(s, r), (verts, s.removed, r)
                    assert all(type(x) is int for e in h.entries for x in e.entries)
                found += 1


def test_hr_halfopen_builds_each_vertex_power_once(monkeypatch):
    # one call builds no outer powers and constructs only the d+r+1 output
    # entries as SymTensors
    s = et.HalfOpenSimplex.make([(0, 0, 0, 0), (2, 0, 0, 1), (0, 3, 0, 0), (1, 1, 2, 0),
                                 (0, 1, 1, 3)], [1, 3])
    expected = per_composition_hr(s, 2)
    calls = {"outer_power": 0, "SymTensor": 0}
    outer, post_init = tensors.outer_power, et.SymTensor.__post_init__

    def counting_outer(*args):
        calls["outer_power"] += 1
        return outer(*args)

    def counting_post_init(self):
        calls["SymTensor"] += 1
        post_init(self)

    monkeypatch.setattr(tensors, "outer_power", counting_outer)
    monkeypatch.setattr(halfopen, "outer_power", counting_outer)
    monkeypatch.setattr(et.SymTensor, "__post_init__", counting_post_init)
    h = et.hr_halfopen(s, 2)
    monkeypatch.undo()
    assert calls == {"outer_power": 0, "SymTensor": s.dim + 2 + 1}
    assert h == expected


def per_vertex_parts(vertices, r, d):
    """The vertex parts by one convolution over the vertices: each step
    multiplies by ``A_c(t) v_j^c`` for c = 1..k, with the powers of each
    vertex built once."""
    parts = [{0: [1]}] + [{} for _ in range(r)]
    for v in vertices:
        powers = tensors._moment_entries((v,), r, d)
        for k in range(r, 0, -1):       # descending: parts[k - c] lacks v yet
            for c in range(1, k + 1):
                for deg, x in parts[k - c].items():
                    prod = tensors._product_entries(x, powers[c], d, k - c, c)
                    for e, coef in enumerate(et.eulerian_polynomial(c)):
                        if coef:
                            old = parts[k].get(deg + e, [0] * len(prod))
                            parts[k][deg + e] = [a + coef * b for a, b in zip(old, prod)]
    return parts


NEWTON_WEIGHTS = {     # c! and c B_c(t), B_c = A_(max(c-1, 1)), for c = 0..r
    "factorials": lambda r: [(math.factorial(c),) for c in range(r + 1)],
    "vertex parts": lambda r: [[c * a for a in et.eulerian_polynomial(max(c - 1, 1))]
                               for c in range(r + 1)],
}


def one_column(columns, j):
    """Column j of every entry of a Newton kernel result, per rank and degree."""
    return [{deg: [col[j] for col in cols] for deg, cols in by_deg.items()} for by_deg in columns]


def test_newton_vertex_parts_match_per_vertex_convolution():
    rng = random.Random(3030)
    for d in range(1, 7):
        for r in range(6):
            for _ in range(2):
                verts = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d + 1)]
                columns = tensors._newton_columns(verts, [range(d + 1)], r, d,
                                                  NEWTON_WEIGHTS["vertex parts"](r))
                assert one_column(columns, 0) == per_vertex_parts(verts, r, d), (verts, r)


@pytest.mark.parametrize("family", sorted(NEWTON_WEIGHTS))
def test_newton_columns_of_many_simplices_are_those_of_each(family):
    # one call over N simplices that share a vertex pool gives, column by
    # column, the N calls over one simplex each
    rng = random.Random(3232)
    for d in range(1, 7):
        for r in range(6):
            weights = NEWTON_WEIGHTS[family](r)
            pool = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(d + 3)]
            faces = [tuple(rng.sample(range(len(pool)), d + 1)) for _ in range(3)]
            columns = tensors._newton_columns(pool, faces, r, d, weights)
            for j, face in enumerate(faces):
                alone = tensors._newton_columns([pool[i] for i in face], [range(d + 1)], r, d,
                                                weights)
                assert one_column(columns, j) == one_column(alone, 0), (d, r, face)


@pytest.mark.parametrize("family", sorted(NEWTON_WEIGHTS))
def test_newton_columns_refuse_a_remainder_at_every_rank(family):
    # weights that are right below rank k and 1 at k leave k H_k off a
    # multiple of k by P_k, which here has an entry that k does not divide
    verts = [(0, 0, 0), (2, 0, 1), (3, 1, 0), (1, 1, 2)]
    for r in range(2, 6):
        for k in range(2, r + 1):
            weights = [w if c != k else (1,) * len(w)
                       for c, w in enumerate(NEWTON_WEIGHTS[family](r))]
            with pytest.raises(ArithmeticError, match=f"at rank {k}$"):
                tensors._newton_columns(verts, [range(4)], r, 3, weights)


def test_hr_halfopen_refuses_weights_that_leave_a_remainder(monkeypatch):
    # all-1 weights through the assembly: the exact division raises at every
    # top rank, and rank 2 is the top one at r = 2
    s = et.HalfOpenSimplex.make([(0, 0, 0, 0), (2, 0, 0, 1), (0, 3, 0, 0), (1, 1, 2, 0),
                                 (0, 1, 1, 3)], [1, 3])
    kernel = halfopen._newton_columns
    monkeypatch.setattr(halfopen, "_newton_columns", lambda vertices, faces, r, dim, weights:
                        kernel(vertices, faces, r, dim, [(1,) * len(w) for w in weights]))
    for r in range(2, 6):
        with pytest.raises(ArithmeticError, match="remainder at rank 2$"):
            et.hr_halfopen(s, r)


def test_a_corrupted_residue_column_is_not_a_lattice_point(monkeypatch):
    s = et.HalfOpenSimplex.make([(0, 0, 0), (2, 0, 0), (0, 3, 0), (1, 1, 2)], [0, 2])
    assert s.normalized_volume() > 1
    residue_columns = halfopen._residue_columns

    def corrupted(rows, dabs):
        cols = residue_columns(rows, dabs)
        cols[0][1] = (cols[0][1] + 1) % dabs
        return cols

    monkeypatch.setattr(halfopen, "_residue_columns", corrupted)
    with pytest.raises(AssertionError, match="not a lattice point"):
        et.hr_halfopen(s, 2)
    with pytest.raises(AssertionError, match="not a lattice point"):
        et.box_slices(s)


def test_hr_halfopen_enumerates_the_box_once(monkeypatch):
    # one box enumeration and one Newton kernel call, over the one cell, per
    # call, and the 2D closed forms read the same column moments; none of
    # them sorts the box into point tuples
    calls = {"box": 0, "newton": 0}
    boxes = []
    box_slices, newton_columns = halfopen.box_slices, halfopen._newton_columns

    def counting_box(s):
        calls["box"] += 1
        boxes.append(box_slices(s))
        return boxes[-1]

    def counting_newton(vertices, faces, r, dim, weights):
        calls["newton"] += 1
        assert tuple(vertices) == s.vertices and list(map(list, faces)) == [[0, 1, 2, 3, 4]]
        return newton_columns(vertices, faces, r, dim, weights)

    s = et.HalfOpenSimplex.make([(0, 0, 0, 0), (2, 0, 0, 1), (0, 3, 0, 0), (1, 1, 2, 0),
                                 (0, 1, 1, 3)], [1, 3])
    expected = per_composition_hr(s, 3)
    monkeypatch.setattr(halfopen, "box_slices", counting_box)
    monkeypatch.setattr(halfopen, "_newton_columns", counting_newton)
    assert et.hr_halfopen(s, 3) == expected
    assert calls == {"box": 1, "newton": 1}
    triangle = et.HalfOpenSimplex.make([(0, 0), (3, 1), (1, 4)], [1])
    for closed_form in (et.h1_halfopen_2d, et.h2_halfopen_2d):
        calls["box"] = 0
        closed_form(triangle)
        assert calls["box"] == 1
    assert len(boxes) == 3 and not any("slices" in vars(box) for box in boxes)


def test_hr_halfopen_monotonicity_counterexample_vertices():
    s = et.HalfOpenSimplex.make([(2, -2), (3, -2), (2, -1)], [0])
    h = et.hr_halfopen(s, 2)
    assert h[1] == mat([[4, -4], [-4, 4]])
    assert h[2] == mat([[37, -28], [-28, 21]])
    assert h[3] == mat([[25, -15], [-15, 9]])
    assert h[0].is_zero and h[4].is_zero


def test_hr_halfopen_translate_is_psd():
    s = et.HalfOpenSimplex.make([(0, 0), (1, 0), (0, 1)], [0])
    h = et.hr_halfopen(s, 2)
    assert h[2] == mat([[1, 0], [0, 1]])
    assert h[3] == mat([[1, 1], [1, 1]])
    assert h[0].is_zero and h[1].is_zero and h[4].is_zero


def test_hr_halfopen_one_removed_rank1():
    # one removed facet: h^1 = t v_0 + t^2 (v_1 + v_2)
    v = [(3, 1), (4, 1), (3, 2)]
    s = et.HalfOpenSimplex.make(v, [0])
    h = et.hr_halfopen(s, 1)
    assert h[1] == vec(v[0])
    assert h[2] == vec((v[1][0] + v[2][0], v[1][1] + v[2][1]))
    assert h[0].is_zero and h[3].is_zero


def test_hr_halfopen_closed_equals_polytope_h(corpus_polygons):
    tri = et.convex_hull([(0, 0), (3, 1), (1, 2)])
    s = et.HalfOpenSimplex.make([(0, 0), (3, 1), (1, 2)], [])
    for r in (0, 1, 2):
        assert et.hr_halfopen(s, r) == et.to_hr_vector(tri, r)


def test_hr_halfopen_rank3_matches_enumeration():
    for verts, removed in (([(2, -2), (3, -2), (2, -1)], [0]),
                           ([(-1, -1), (2, 0), (0, 3)], [1, 2]),
                           ([(0, 0, 0), (2, 0, 0), (0, 3, 0), (1, 1, 2)], [1])):
        s = et.HalfOpenSimplex.make(verts, removed)
        h = et.hr_halfopen(s, 3)
        assert len(h) == s.dim + 4
        poly = et.hr_vector_to_polynomial(h)
        for n in range(s.dim + 5):
            assert poly.evaluate(n) == et.moment_halfopen(s, 3, n), (verts, n)


def test_moment_halfopen_closed_equals_discrete():
    tri = et.convex_hull([(0, 0), (3, 1), (1, 2)])
    s = et.HalfOpenSimplex.make([(0, 0), (3, 1), (1, 2)], [])
    for r in (0, 1, 2):
        for n in (0, 1, 2, 3):
            assert et.moment_halfopen(s, r, n) == et.discrete_moment(tri, r, n)


def test_moment_halfopen_unit_examples():
    # direct membership oracle: facet opposite v0 removed keeps only v0
    s1 = et.HalfOpenSimplex.make(UNIT, [0])
    assert et.moment_halfopen(s1, 0, 1).as_scalar() == 1
    assert et.moment_halfopen(s1, 0, 2).as_scalar() == 3
    # both facets through v0 removed: every closed-triangle point sits on a
    # removed facet at n = 1, so the count sequence is C(n, 2)
    s2 = et.HalfOpenSimplex.make(UNIT, [1, 2])
    assert [et.moment_halfopen(s2, 0, n).as_scalar() for n in (1, 2, 3)] == [0, 1, 3]
    # dilate 0 of a proper half-open simplex is empty
    assert et.moment_halfopen(s1, 0, 0).as_scalar() == 0
    s0 = et.HalfOpenSimplex.make(UNIT, [])
    assert et.moment_halfopen(s0, 0, 0).as_scalar() == 1


def moment_halfopen_inclusion_exclusion(s, r, n):
    """Moment of n*S* by inclusion-exclusion over removed-facet intersections.

    Subtracts the moment of the union of removed facets from the closed
    moment; the face cut out by a subset J of removed facets is enumerated
    with each facet of J held at equality by the opposite inequality.
    """
    closed = et.HalfOpenSimplex(s.vertices, frozenset()).constraints(n)
    acc = oracle_moment(scan_points(s.bounds(n), closed), r, s.dim)
    removed = sorted(s.removed)
    for mask in range(1, 1 << len(removed)):
        subset = [removed[k] for k in range(len(removed)) if mask >> k & 1]
        cons = closed + [(vneg(normal), -n * rhs)
                         for i, (normal, rhs) in enumerate(s.facets()) if i in subset]
        face = oracle_moment(scan_points(s.bounds(n), cons), r, s.dim)
        acc = acc + face * (-1) ** len(subset)
    return acc


def test_moment_halfopen_inclusion_exclusion_agrees():
    cases = [([(2, -2), (3, -2), (2, -1)], [0]),
             ([(0, 0), (3, 1), (1, 2)], [1]),
             ([(0, 0), (3, 1), (1, 2)], [0, 2]),
             ([(-1, -1), (2, 0), (0, 3)], [0, 1]),
             ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [0, 3])]
    for verts, removed in cases:
        s = et.HalfOpenSimplex.make(verts, removed)
        for r in (0, 1, 2):
            for n in (0, 1, 2, 3):
                assert et.moment_halfopen(s, r, n) == \
                    moment_halfopen_inclusion_exclusion(s, r, n)


def test_hr_halfopen_generating_consistency():
    # binomial-basis expansion of the h-vector reproduces dilate moments
    cases = [([(2, -2), (3, -2), (2, -1)], [0]),
             ([(0, 0), (3, 1), (1, 2)], [1, 2]),
             ([(-1, -1), (2, 0), (0, 3)], [2])]
    for verts, removed in cases:
        s = et.HalfOpenSimplex.make(verts, removed)
        for r in (0, 1, 2):
            h = et.hr_halfopen(s, r)
            poly = et.hr_vector_to_polynomial(h)
            for n in range(0, s.dim + r + 3):
                assert poly.evaluate(n) == et.moment_halfopen(s, r, n), (verts, r, n)


def test_closed_2d_forms_match_generating_route():
    rng = random.Random(11)
    checked = 0
    while checked < 100:
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        c = rng.randint(-3, 3)
        d = rng.randint(-3, 3)
        if a * d - b * c not in (-1, 1):
            continue
        t = (rng.randint(-5, 5), rng.randint(-5, 5))
        verts = [t, (t[0] + a, t[1] + b), (t[0] + c, t[1] + d)]
        removed = [i for i in range(3) if rng.random() < 0.5]
        if len(removed) == 3:
            removed = removed[:2]
        s = et.HalfOpenSimplex.make(verts, removed)
        assert et.h1_halfopen_2d(s) == et.hr_halfopen(s, 1)
        assert et.h2_halfopen_2d(s) == et.hr_halfopen(s, 2)
        checked += 1


def test_closed_2d_forms_unit_tables():
    t0 = et.HalfOpenSimplex.make(UNIT, [])
    h0 = et.h2_halfopen_2d(t0)
    # closed unit simplex: t (v0^2+v1^2+v2^2) + t^2 ((v0+v1)^2+(v1+v2)^2+(v2+v0)^2 - sum v^2)
    assert h0[1] == mat([[1, 0], [0, 1]])
    assert h0[2] == mat([[1, 1], [1, 1]])
    t2 = et.HalfOpenSimplex.make(UNIT, [1, 2])
    h2 = et.h2_halfopen_2d(t2)
    v0, v1, v2 = UNIT
    s12 = (v1[0] + v2[0], v1[1] + v2[1])
    assert h2[2] == et.outer_power(s12, 2)
    expected3 = (et.outer_power((v0[0] + v1[0], v0[1] + v1[1]), 2)
                 + et.outer_power((v0[0] + v2[0], v0[1] + v2[1]), 2)
                 - et.outer_power(v0, 2))
    assert h2[3] == expected3
    assert h2[4] == et.outer_power(v0, 2)


def test_halfopen_json_round_trip():
    s = et.HalfOpenSimplex.make([(2, -2), (3, -2), (2, -1)], [0, 2])
    assert halfopen_from_json(halfopen_to_json(s)) == s


def test_halfopen_validation():
    with pytest.raises(ValueError):
        et.HalfOpenSimplex.make([(0, 0), (1, 1), (2, 2)], [])
    with pytest.raises(ValueError):
        et.HalfOpenSimplex.make(UNIT, [5])
    for verts in ([], [()], [(0, 0), (1, 0), (0, 1, 2)]):
        with pytest.raises(ValueError):
            et.HalfOpenSimplex.make(verts, [])
    # a repeated vertex, and a vertex in the affine span of the others
    for d in range(1, 6):
        rng = random.Random(d)
        others = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d)]
        dependent = [others + [others[-1]], [others[0]] + others]
        if d > 1:
            dependent.append(others + [tuple(2 * a - b for a, b in zip(others[0], others[1]))])
        for verts in dependent:
            with pytest.raises(ValueError, match="vertices are affinely dependent"):
                et.HalfOpenSimplex.make(verts, [0])


def test_make_leaves_the_inverse_to_first_use(monkeypatch):
    # make checks the vertices without inverting; the first box enumeration
    # takes the one inverse that the facets and the volume then read
    inverses = record_calls(monkeypatch, linalg, "int_inverse")
    s = et.HalfOpenSimplex.make(
        [(0, 0, 0, 0), (2, 0, 0, 1), (0, 3, 0, 0), (1, 1, 2, 0), (0, 1, 1, 3)], [1, 3])
    assert inverses == []
    halfopen.box_slices(s)
    assert len(inverses) == 1
    s.facets(), s.constraints(2), s.normalized_volume(), halfopen.box_slices(s)
    assert len(inverses) == 1


def test_hr_halfopen_3d_consistency():
    # generating route against direct enumeration for a 3-simplex
    s = et.HalfOpenSimplex.make([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [0, 2])
    for r in (0, 1, 2):
        h = et.hr_halfopen(s, r)
        poly = et.hr_vector_to_polynomial(h)
        for n in range(0, 6):
            assert poly.evaluate(n) == et.moment_halfopen(s, r, n)
    big = et.HalfOpenSimplex.make([(0, 0, 0), (2, 0, 0), (0, 3, 0), (1, 1, 2)], [1])
    for r in (0, 1, 2):
        h = et.hr_halfopen(big, r)
        poly = et.hr_vector_to_polynomial(h)
        for n in range(0, 6):
            assert poly.evaluate(n) == et.moment_halfopen(big, r, n)


def test_halfopen_rejects_removing_every_facet():
    with pytest.raises(ValueError):
        et.HalfOpenSimplex.make(UNIT, [0, 1, 2])


# ---------------------------------------------------------------------------
# half-open decomposition of a triangulated polytope

def cells_seen_from_point(points, simplices):
    """Removed sets seen from the rational point c + (t, t^2, ..., t^d).

    c is the centroid of ``simplices[0]``; facet i of a simplex is removed
    when the barycentric coordinate of vertex i is negative at the point.
    That coordinate is ``b_0 + b_1 t + ... + b_d t^d`` and each nonzero
    ``b_j`` is at least ``1 / ((d+1) |det|)`` in size, so for the t chosen
    here its sign is the sign of the lowest nonzero ``b_j``.  Also returns
    how many coordinates vanish at c, i.e. how often the tie-break decides.
    """
    d = len(points[0])
    c = [F(sum(points[i][j] for i in simplices[0]), d + 1) for j in range(d)] + [1]
    coords = []
    for simplex in simplices:
        lifted = [[points[i][j] for i in simplex] for j in range(d)] + [[1] * (d + 1)]
        dabs = abs(leibniz_det(lifted))
        coords.append([(dabs, [sum(x * y for x, y in zip(row, c))] + row[:d])
                       for row in fraction_inverse(lifted)])
    t = min(F(1, 2 * (d + 1) * dabs * (math.ceil(sum(map(abs, b))) + 1))
            for rows in coords for dabs, b in rows)
    removed = [frozenset(i for i, (_, b) in enumerate(rows)
                         if sum(bj * t ** j for j, bj in enumerate(b)) < 0)
               for rows in coords]
    ties = sum(b[0] == 0 for rows in coords for _, b in rows)
    return removed, ties


def assert_cells_partition(p, cells):
    """The cells partition the lattice points; moments and h-vectors add up."""
    seen = [x for s in cells for x in scan_points(s.bounds(1), s.constraints(1))]
    assert len(seen) == len(set(seen))
    assert sorted(seen) == sorted(et.lattice_points(p, 1))
    for r in (0, 1, 2):
        for n in (1, 2):
            total = et.SymTensor.zero(r, p.dim)
            for s in cells:
                total = total + et.moment_halfopen(s, r, n)
            assert total == et.discrete_moment(p, r, n), (r, n)
        hsum = et.hr_halfopen(cells[0], r)
        for s in cells[1:]:
            hsum = hsum + et.hr_halfopen(s, r)
        assert hsum == et.to_hr_vector(p, r), r


def seeded_triangulation(d, bound, gens, seed):
    """A seeded polytope with the placing triangulation of its vertices.

    In d = 1 the vertices give one segment, so its lattice points, which
    the placing order inserts end to end, are triangulated instead.
    """
    p = et.random_lattice_polytope(d, bound, gens, seed)
    points = et.lattice_points(p, 1) if d == 1 else p.vertices
    return p, points, placing_triangulation(points)[0]


# (d, coordinate bound, generators, seed); the d >= 3 draws include centroids
# of the first simplex on another simplex's facet plane
SEEDED = [(1, 5, 3, 0), (1, 5, 3, 1), (3, 2, 6, 8), (3, 2, 6, 17), (4, 2, 8, 4)]


@pytest.mark.parametrize("d, bound, gens, seed", SEEDED)
def test_half_open_cells_partition_in_every_dimension(d, bound, gens, seed):
    p, points, simplices = seeded_triangulation(d, bound, gens, seed)
    cells = et.half_open_decomposition(points, simplices)
    assert [s.vertices for s in cells] == [tuple(points[i] for i in sx) for sx in simplices]
    assert cells[0].removed == frozenset()
    assert_cells_partition(p, cells)


def test_half_open_cells_are_seen_from_a_perturbed_point(corpus_polygons):
    cases = []
    for p in corpus_polygons.values():
        for order in INSERTION_ORDERS:
            t = et.unimodular_triangulation(p, order)
            cases.append((t.points, t.triangles))
    for spec in SEEDED + [(3, 2, 8, 19), (4, 2, 8, 10)]:
        cases.append(seeded_triangulation(*spec)[1:])
    ties = 0
    for points, simplices in cases:
        expected, tied = cells_seen_from_point(points, simplices)
        ties += tied
        cells = et.half_open_decomposition(points, simplices)
        assert [s.removed for s in cells] == expected, (points, simplices)
    assert ties >= 50
    assert et.half_open_decomposition(UNIT, []) == []


def test_half_open_decomposition_reduces_each_cell_at_most_twice(monkeypatch):
    points = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    simplices = [(0, 1, 2, 3), (1, 2, 3, 4)]
    calls = []
    reduce = linalg._reduce
    monkeypatch.setattr(linalg, "_reduce", lambda rows: calls.append(rows) or reduce(rows))
    cells = et.half_open_decomposition(points, simplices)
    assert len(calls) <= 2 * len(simplices)
    monkeypatch.undo()
    assert [s.vertices for s in cells] == [tuple(points[i] for i in sx) for sx in simplices]
    assert [s.removed for s in cells] == cells_seen_from_point(points, simplices)[0]
    assert [s.removed for s in cells] == [frozenset(), frozenset({3})]


def test_each_cell_reduces_its_lifted_matrix_once(monkeypatch):
    # the decomposition's inverse serves the cell's volume, box points,
    # facets and constraints, so no later step reduces the matrix again
    p = et.random_lattice_polytope(4, 2, 8, 11)
    simplices = placing_triangulation(p.vertices)[0]
    assert p.dilates == {}
    calls = []
    reduce = linalg._reduce
    monkeypatch.setattr(linalg, "_reduce", lambda rows: calls.append(rows) or reduce(rows))
    cells = et.half_open_decomposition(p.vertices, simplices)
    for s in cells:
        et.hr_halfopen(s, 2)
        s.facets(), s.constraints(2), s.normalized_volume()
    assert len(calls) == len(cells) == len(simplices) > 1
    monkeypatch.undo()
    assert sum(s.normalized_volume() for s in cells) == sum(
        abs(leibniz_det([list(v) + [1] for v in s.vertices])) for s in cells)


@pytest.mark.parametrize("d, bound, gens, seed", [(3, 2, 8, 6), (3, 2, 8, 19), (4, 2, 8, 11)])
def test_half_open_sums_independent_of_triangulation(d, bound, gens, seed):
    # two insertion orders, each with two different simplices in front
    p = et.random_lattice_polytope(d, bound, gens, seed)
    triangulations = set()
    for points in (p.vertices, p.vertices[::-1]):
        simplices = placing_triangulation(points)[0]
        triangulations.add(frozenset(frozenset(points[i] for i in sx) for sx in simplices))
        for k in (0, len(simplices) - 1):
            order = [simplices[k]] + simplices[:k] + simplices[k + 1:]
            assert_cells_partition(p, et.half_open_decomposition(points, order))
    assert len(triangulations) == 2


def coned_corpus():
    """Seeded polytopes in d = 1..5, their translates, and hulls whose input
    holds non-vertex boundary points, which their stored boundary may use."""
    out = []
    for d, bound in ((1, 4), (2, 3), (3, 2), (4, 1), (5, 1)):
        for seed in range(2):
            p = et.random_lattice_polytope(d, bound, d + 3, seed=780 + seed)
            out += [p, p.translate((3, -2, 1, -1, 2)[:d])]
    out.append(et.convex_hull([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]))
    out.append(et.convex_hull([(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0),
                               (0, 0, 0, 2), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)]))
    return out


@pytest.mark.parametrize("p", coned_corpus(), ids=lambda p: f"d{p.dim}-{p.vertices[0]}")
def test_coned_halfopen_h_matches_both_routes(p):
    # the boundary point on the most faces coned over the faces whose plane
    # misses it, split into half-open cells and assembled once for ranks
    # 0..3, against the scan's h and the closed moments of every dilate, on a
    # fresh copy that shares no stored pass
    cells = ehrhart._halfopen_cells(p)
    hs = halfopen._hr_sums([(s, halfopen.box_slices(s)) for s in cells], range(4))
    assert [h.rank for h in hs] == [0, 1, 2, 3]
    for r, h in enumerate(hs):
        assert h == et.to_hr_vector(p, r), r
        assert h == all_dilates_oracle(et.convex_hull(p.vertices), r), r
    if p.dim >= 4:
        assert ehrhart._oracle(p, range(4)) == hs
