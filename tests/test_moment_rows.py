"""Property tests for the row scanner, the fused moment kernel and halved nodes.

The references here avoid the scanner: points come from testing every point
of the box against every constraint, moments from summing outer powers, and
the moment polynomial and h-vector from the ``Fraction`` Vandermonde oracle
(closed moments at every node 0..dim+r).
"""
import gc
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehrtensor as et
from ehrtensor import ehrhart
from ehrtensor.ehrhart import CLOSED, INTERIOR, row_moments
from ehrtensor.polytopes import dilate_rows, scan_rows, shadow_levels
from ehrtensor.tensors import dot, vneg

from conftest import (NAMED_SOLIDS, all_dilates_oracle, box_filter_rows, box_rows,
                      fraction_vandermonde_oracle, oracle_moment, scan_points)


def box_points(bounds, constraints, strict=False):
    """Box points with ``a.x <= c`` for every constraint (strict: ``a.x < c``)."""
    return [x for x in product(*(range(lo, hi + 1) for lo, hi in bounds))
            if all(dot(a, x) < c if strict else dot(a, x) <= c for a, c in constraints)]


def expand(rows, strict=False):
    return [prefix + (t,) for prefix, lo, hi, slo, shi in rows
            for t in (range(slo, shi + 1) if strict else range(lo, hi + 1))]


def polytopes(max_dim: int, bound: int):
    """Seeded random lattice polytopes of dimension 1..max_dim."""
    return st.builds(lambda d, seed: et.random_lattice_polytope(d, bound, d + 3, seed),
                     st.integers(1, max_dim), st.integers(0, 10**6))


def _with_equalities(constraints):
    """Each ``(a, c, equal)`` as ``a.x <= c``, plus ``-a.x <= -c`` when equal."""
    out = []
    for a, c, equal in constraints:
        out.append((a, c))
        if equal:
            out.append((vneg(a), -c))
    return out


constraint_mixes = st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.just([(-2, 2)] * d),
    st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                       st.integers(-4, 6), st.booleans()),
             min_size=0, max_size=5).map(_with_equalities)))


@settings(max_examples=150, deadline=None)
@given(constraint_mixes)
def test_rows_expand_to_box_scan(case):
    bounds, constraints = case
    rows = list(box_rows(bounds, constraints))
    assert expand(rows) == box_points(bounds, constraints)
    assert list(scan_points(bounds, constraints)) == box_points(bounds, constraints)
    assert expand(rows, strict=True) == box_points(bounds, constraints, strict=True)
    assert all(lo <= hi for _, lo, hi, _, _ in rows)


EDGE_CASES = {
    # a*hi == t with a = 2 above and b*lo == -t with b = 3 below, inside the box
    "tight_coefficients_2_and_3": ([(-3, 3), (-5, 5)],
                                   [((1, 2), 4), ((1, -3), 3), ((-1, 0), 2)]),
    # the box bound binds where a facet is tight too
    "box_binds_at_tight_facet": ([(-2, 2), (-2, 2)],
                                 [((0, 2), 4), ((0, -3), 6), ((1, 1), 3)]),
    # x_0 = 1 lies on a facet parallel to the last axis: empty strict rows
    "flat_constraint_tight": ([(-2, 3), (-2, 2)], [((1, 0), 1), ((0, 1), 1), ((-1, -1), 2)]),
    "only_positive_last": ([(-2, 2), (-3, 3), (-4, 4)], [((1, 1, 2), 3), ((0, -1, 3), 2)]),
    "only_negative_last": ([(-2, 2), (-3, 3), (-4, 4)], [((1, 1, -2), 3), ((-1, 0, -3), 2)]),
    "dimension_one": ([(-4, 4)], [((2,), 5), ((-3,), 6)]),
    "dimension_one_tight": ([(-4, 4)], [((2,), 6), ((-3,), 6)]),
    "dimension_one_infeasible": ([(-4, 4)], [((1,), -5)]),
    "dimension_one_flat": ([(-4, 4)], [((0,), 0), ((1,), 2)]),
    "dimension_one_flat_infeasible": ([(-4, 4)], [((0,), -1), ((1,), 2)]),
    "first_level_infeasible": ([(-2, 2), (-2, 2), (-2, 2)], [((1, 0, 0), -3), ((0, 1, 1), 1)]),
    "four_dimensions": ([(-2, 2)] * 4, [((1, 2, -1, 2), 4), ((-1, 1, 1, -3), 3),
                                        ((0, -1, 2, 0), 2), ((1, 1, 1, 1), 3)]),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_rows_on_edge_cases(name):
    bounds, constraints = EDGE_CASES[name]
    rows = box_rows(bounds, constraints)
    assert isinstance(rows, list)
    assert expand(rows) == box_points(bounds, constraints)
    assert expand(rows, strict=True) == box_points(bounds, constraints, strict=True)
    assert all(len(prefix) == len(bounds) - 1 and lo <= hi for prefix, lo, hi, _, _ in rows)


def test_rows_read_strict_bounds_off_tightness():
    # y <= 2 from 2y <= 4 (tight), y >= -1 from -3y <= 3 (tight), box [-5, 5]
    assert box_rows([(-5, 5)], [((2,), 4), ((-3,), 3)]) == [((), -1, 2, 0, 1)]
    # same bounds without divisibility: the strict interval is the closed one
    assert box_rows([(-5, 5)], [((2,), 5), ((-3,), 5)]) == [((), -1, 2, -1, 2)]
    # the box binds at both ends where both facets are tight
    assert box_rows([(-1, 2)], [((2,), 4), ((-3,), 3)]) == [((), -1, 2, 0, 1)]
    # a later inequality ties the bound and is the tight one
    assert box_rows([(-5, 5)], [((2,), 5), ((1,), 2), ((-2,), 5), ((-1,), 2)]) == \
        [((), -2, 2, -1, 1)]
    # a flat constraint tight at the prefix empties the strict interval
    assert box_rows([(0, 1), (0, 1)], [((1, 0), 1)]) == [((0,), 0, 1, 0, 1),
                                                          ((1,), 0, 1, 1, 0)]


def test_rows_scan_leaves_no_reference_cycle():
    # the rows and the per-level tables are freed when the scan returns,
    # not held by the recursive closure until a gc pass
    p = et.random_lattice_polytope(4, 2, 8, 4)
    cons = [(f.normal, 2 * f.rhs) for f in p.facets]
    gc.collect()
    gc.disable()
    shadows = [[(a, 2 * c) for a, c in level] for level in p.shadows]
    try:
        for bounds, constraints, levels in (([(-4, 4)] * 4, cons, shadows),
                                            ([(-5, 5)], [((2,), 4)], [])):
            assert scan_rows(bounds, constraints, levels)
            assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**6), st.integers(0, 2))
def test_rows_of_halfopen_constraints(d, seed, n):
    rng = random.Random(seed)
    while True:
        vertices = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d + 1)]
        try:
            s = et.HalfOpenSimplex.make(vertices, rng.sample(range(d + 1), rng.randint(0, d)))
            break
        except ValueError:
            continue
    cons = s.constraints(n)
    shadows = [[(a, n * c) for a, c in level] for level in shadow_levels(s.facets(), s.vertices)]
    assert expand(scan_rows(s.bounds(n), cons, shadows)) == box_points(s.bounds(n), cons)


def _row_corpus(d):
    """Seeded polytopes and half-open simplices of dimension d, small enough
    for a box filter of their dilates n <= 3."""
    bound = 1 if d == 5 else 2
    solids = [et.random_lattice_polytope(d, bound, d + 2 + k, 700 * d + k) for k in range(2)]
    solids += [et.convex_hull(v) for v in NAMED_SOLIDS.values() if len(v[0]) == d]
    rng, cells = random.Random(d), []
    while len(cells) < 3:
        vertices = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d + 1)]
        try:
            cells.append(et.HalfOpenSimplex.make(vertices, rng.sample(range(d + 1), len(cells) % d)))
        except ValueError:
            continue
    return solids, cells


@pytest.mark.parametrize("d", range(1, 6))
def test_shadowed_rows_match_box_filter(d):
    # the rows of every dilate are those of the box with no shadow, both in
    # the scan frame: the same prefixes, closed and strict intervals, and the
    # same half-open moments
    solids, cells = _row_corpus(d)
    for p in solids:
        frame = p.scan_order
        for n in range(4):
            cons = [(tuple(f.normal[i] for i in frame), n * f.rhs) for f in p.facets]
            bounds = et.polytopes.dilate_bounds(p, n)
            got = [(prefix, list(range(lo, hi + 1)), list(range(slo, shi + 1)))
                   for prefix, lo, hi, slo, shi in dilate_rows(p, n)]
            assert got == box_filter_rows([bounds[i] for i in frame], cons), (p, n)
    for s in cells:
        for n in range(4):
            points = [prefix + (t,) for prefix, closed, _ in
                      box_filter_rows(s.bounds(n), s.constraints(n)) for t in closed]
            for r in range(3):
                assert et.moment_halfopen(s, r, n) == oracle_moment(points, r, d), (s, n, r)


@pytest.mark.parametrize("d", range(1, 6))
def test_one_sided_passes_are_halves_of_the_two_sided_pass(d):
    # a closed-only pass gives the closed entries of the two-sided pass and an
    # interior-only pass the interior ones; the rows handed to each carry None
    # for the other side's interval, so a pass never reads a side not asked for
    solids, cells = _row_corpus(d)
    row_sets = [dilate_rows(p, n) for p in solids for n in range(5)]
    for s in cells:
        levels = shadow_levels(s.facets(), s.vertices)
        row_sets += [scan_rows(s.bounds(n), s.constraints(n),
                               [[(a, n * c) for a, c in level] for level in levels])
                     for n in range(5)]
    for rows in row_sets:
        closed_rows = [(prefix, lo, hi, None, None) for prefix, lo, hi, _, _ in rows]
        strict_rows = [(prefix, None, None, slo, shi) for prefix, _, _, slo, shi in rows]
        for r in range(5):
            both = row_moments(rows, r, d)
            assert row_moments(closed_rows, r, d, CLOSED) == [(c,) for c, _ in both]
            assert row_moments(strict_rows, r, d, INTERIOR) == [(i,) for _, i in both]


@settings(max_examples=60, deadline=None)
@given(polytopes(3, 2), st.integers(0, 3), st.integers(0, 3))
def test_fused_kernel_matches_point_sums(p, r, n):
    bounds = et.polytopes.dilate_bounds(p, n)
    closed = [x for x in product(*(range(lo, hi + 1) for lo, hi in bounds))
              if p.contains(x, n)]
    inner = [x for x in closed if p.contains(x, n, strict=True)]
    got_closed, got_inner = row_moments(dilate_rows(p, n), r, p.dim, order=p.scan_order)[r]
    assert et.SymTensor.from_entries(r, p.dim, got_closed) == oracle_moment(closed, r, p.dim)
    assert et.SymTensor.from_entries(r, p.dim, got_inner) == oracle_moment(inner, r, p.dim)
    assert et.discrete_moment(p, r, n) == oracle_moment(closed, r, p.dim)
    if n >= 1:
        assert et.discrete_moment_interior(p, r, n) == oracle_moment(inner, r, p.dim)


@settings(max_examples=40, deadline=None)
@given(polytopes(3, 2), st.integers(0, 3))
def test_halved_nodes_match_all_dilates_oracle(p, r):
    poly, h = fraction_vandermonde_oracle(p, r)
    assert all_dilates_oracle(p, r) == h
    assert ehrhart._closed_moment_oracle(p, r) == h
    assert et.ehrhart_tensor_polynomial(p, r) == poly
    assert et.to_hr_vector(p, r) == h


@settings(max_examples=40, deadline=None)
@given(polytopes(3, 2), st.integers(0, 5),
       st.sampled_from([(0, 0, 0), (5, -3, 2), (10**6, -7, 10**5)]))
def test_closed_moment_oracle_matches_fraction_oracle(p, r, shift):
    # verify's oracle below d = 4, which reads the closed moments of nP for
    # n <= m - 2 and the volume and facet sums, against the Vandermonde
    # oracle on a fresh copy, which reads the closed moments of every dilate
    q = p.translate(shift[:p.dim])
    assert ehrhart._closed_moment_oracle(q, r) == \
        fraction_vandermonde_oracle(et.convex_hull(q.vertices), r)[1]


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3))
def test_halved_nodes_match_oracle_in_dimension_four(seed, r):
    p = et.random_lattice_polytope(4, 1, 7, seed)
    poly, h = fraction_vandermonde_oracle(p, r)
    assert all_dilates_oracle(p, r) == h
    assert et.ehrhart_tensor_polynomial(p, r) == poly
    assert et.to_hr_vector(p, r) == h
