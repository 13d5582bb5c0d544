"""Acceptance suite: one test per criterion, every comparison bit-exact.

Each test prints a single PASS line on success (visible with -v/-s); a
failed assertion marks the criterion failed.  Random corpora are seeded and
reproducible.
"""
import json
import math
import time
from fractions import Fraction

import pytest

import ehrtensor as et
from ehrtensor import positivity

from conftest import fraction_vandermonde_oracle
from test_triangulation import check_sparse_conditions

F = Fraction


def mat(rows):
    return et.SymTensor.from_matrix(rows)


def _pass(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


@pytest.fixture(scope="module")
def pick_corpus():
    # 200 seeded random lattice polygons with coordinates in [-8, 8]
    return [et.random_lattice_polytope(2, 8, 8, seed=10_000 + k) for k in range(200)]


def test_criterion_01_matrix_polynomial_exact_reproduction():
    start = time.monotonic()
    p = et.convex_hull([(0, 1), (-1, -7), (1, -4)])
    poly = et.ehrhart_tensor_polynomial(p, 2)
    assert poly.coeffs[0].is_zero
    assert poly.coeffs[1] == mat([[F(1, 2), F(3, 4)], [F(3, 4), F(49, 6)]])
    assert poly.coeffs[2] == mat([[F(-1, 12), F(-1, 8)], [F(-1, 8), F(-23, 12)]])
    assert poly.coeffs[3] == mat([[F(1, 2), F(3, 4)], [F(3, 4), F(149, 6)]])
    assert poly.coeffs[4] == mat([[F(13, 12), F(13, 8)], [F(13, 8), F(1079, 12)]])
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _pass(1, "matrix polynomial reproduces printed coefficients")


def test_criterion_02_indefinite_quadratic_coefficient():
    p = et.convex_hull([(0, -4), (0, 4), (-1, 0)])
    reports = et.check_ehrhart_psd(p)
    rep = reports[1]  # coefficient of n^2
    assert rep.classification == "indefinite"
    assert mat(et.ehrhart_tensor_polynomial(p, 2).coeffs[2].to_matrix()) \
        .apply(rep.witness) < 0
    _pass(2, "indefinite quadratic coefficient detected")


def test_criterion_03_halfopen_simplex_exact_reproduction():
    # vertex order fixes which facet is removed: here the one opposite (2,-2)
    s = et.HalfOpenSimplex.make([(2, -2), (3, -2), (2, -1)], removed=[0])
    h = et.hr_halfopen(s, 2)
    assert h[1] == mat([[4, -4], [-4, 4]])
    assert h[2] == mat([[37, -28], [-28, 21]])
    assert h[3] == mat([[25, -15], [-15, 9]])
    assert h[0].is_zero and h[4].is_zero
    assert not et.classify_definiteness(h[2]).is_psd

    translate = et.HalfOpenSimplex.make([(0, 0), (1, 0), (0, 1)], removed=[0])
    ht = et.hr_halfopen(translate, 2)
    assert ht[2] == mat([[1, 0], [0, 1]])
    assert ht[3] == mat([[1, 1], [1, 1]])
    assert ht[0].is_zero and ht[1].is_zero and ht[4].is_zero
    assert all(et.classify_definiteness(e).is_psd for e in ht.entries)
    _pass(3, "half-open simplex h-vector and its translate reproduce exactly")


def test_criterion_04_pick_agreement_suite(pick_corpus):
    start = time.monotonic()
    for p in pick_corpus:
        t = et.unimodular_triangulation(p)
        assert et.h1_pick(t) == et.to_hr_vector(p, 1)
        assert et.h2_pick(t) == et.to_hr_vector(p, 2)
        assert et.ehrhart_vector_pick(t) == et.ehrhart_tensor_polynomial(p, 1)
        assert et.ehrhart_matrix_pick(t) == et.ehrhart_tensor_polynomial(p, 2)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _pass(4, f"triangulation formulas match interpolation on 200 polygons "
             f"({elapsed:.1f}s)")


def test_criterion_05_polygon_h2_psd_suite(pick_corpus):
    violations = 0
    for p in pick_corpus:
        for entry in et.to_hr_vector(p, 2).entries:
            rep = et.classify_definiteness(entry)
            if not rep.is_psd:
                violations += 1
                continue
            if not entry.is_zero:
                cert = et.sos_certificate(entry)
                assert cert.reconstruct(2) == entry
                assert all(lam >= 0 for lam, _ in cert.terms)
    assert violations == 0
    _pass(5, "all polygon h-matrix entries PSD with exact square certificates")


def test_criterion_06_reciprocity_suite(corpus_polygons):
    threes = [et.random_lattice_polytope(3, 2, 6, seed=20_000 + k) for k in range(50)]
    for p in list(corpus_polygons.values()) + threes:
        for r in (0, 1, 2):
            poly = et.ehrhart_tensor_polynomial(p, r)
            sign = (-1) ** (p.dim + r)
            for n in (1, 2, 3):
                assert poly.evaluate(-n) == \
                    et.discrete_moment_interior(p, r, n) * sign
            # the halved nodes build reciprocity in, so the independent
            # all-dilates route must agree and satisfy it on its own
            oracle = fraction_vandermonde_oracle(p, r)[0]
            assert poly == oracle
            for n in (1, 2, 3):
                assert oracle.evaluate(-n) == \
                    et.discrete_moment_interior(p, r, n) * sign
    _pass(6, "reciprocity holds bit-exactly on corpus plus 50 random 3-polytopes")


def test_criterion_07_coefficient_identities(corpus_polygons, random_3polytopes):
    fams = list(corpus_polygons.values()) + random_3polytopes
    for p in fams:
        for r in (0, 1, 2):
            poly = et.ehrhart_tensor_polynomial(p, r)
            h = et.to_hr_vector(p, r)
            assert poly.coeffs[-1] == et.moment_tensor(p, r)
            if p.dim == 2:
                assert poly.coeffs[p.dim + r - 1] == \
                    et.second_coefficient_facets(p, r)
            total = et.SymTensor.zero(r, p.dim)
            for e in h.entries:
                total = total + e
            assert total == et.moment_tensor(p, r) * math.factorial(p.dim + r)
            assert h[len(h) - 1] == et.discrete_moment_interior(p, r, 1)
    _pass(7, "leading/second/h-sum/h-top coefficient identities hold")


def test_criterion_08_eulerian_polynomials():
    assert et.eulerian_polynomial(0) == (1,)
    assert et.eulerian_polynomial(1) == (0, 1)
    assert et.eulerian_polynomial(2) == (0, 1, 1)
    for j in range(7):
        assert sum(et.eulerian_polynomial(j)) == math.factorial(j)
    _pass(8, "Eulerian polynomial values and factorial sums")


def test_criterion_09_box_slice_tables():
    unit = [(0, 0), (1, 0), (0, 1)]
    assert et.box_slices(et.HalfOpenSimplex.make(unit, [])).slices == \
        (((0, 0),), (), ())
    assert et.box_slices(et.HalfOpenSimplex.make(unit, [0])).slices == \
        ((), ((0, 0),), ())
    assert et.box_slices(et.HalfOpenSimplex.make(unit, [1, 2])).slices == \
        ((), (), ((1, 1),))
    _pass(9, "box point tables for the three half-open unit simplices")


def test_criterion_10_halfopen_additivity():
    polys = [et.random_lattice_polytope(2, 4, 6, seed=30_000 + k) for k in range(50)]
    for p in polys:
        t = et.unimodular_triangulation(p)
        simplices = et.half_open_decomposition(t.points, t.triangles)
        for r in (0, 1, 2):
            for n in (1, 2, 3):
                total = et.SymTensor.zero(r, 2)
                for s in simplices:
                    total = total + et.moment_halfopen(s, r, n)
                assert total == et.discrete_moment(p, r, n)
            hsum = None
            for s in simplices:
                h = et.hr_halfopen(s, r)
                hsum = h if hsum is None else hsum + h
            assert hsum == et.to_hr_vector(p, r)
    _pass(10, "half-open cell moments and h-vectors sum to the polygon's")


def test_criterion_11_reflexivity_palindromicity():
    assert et.reflexivity_palindromicity_check(
        et.convex_hull([(-1, -1), (1, -1), (-1, 1), (1, 1)]), 2)
    assert et.reflexivity_palindromicity_check(
        et.convex_hull([(1, 0), (0, 1), (-1, -1)]), 2)
    assert et.reflexivity_palindromicity_check(
        et.convex_hull([(2, 0), (0, 2), (-1, -1)]), 2)

    # seeded corpus of 50 polygons with the origin strictly interior
    reflexives = [[(-1, -1), (1, -1), (-1, 1), (1, 1)], [(1, 0), (0, 1), (-1, -1)],
                  [(1, 0), (0, 1), (-1, 0), (0, -1)],
                  [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]]
    corpus = [et.convex_hull(v) for v in reflexives]
    seed = 40_000
    while len(corpus) < 50:
        p = et.random_lattice_polytope(2, 4, 6, seed=seed)
        seed += 1
        inside = et.interior_lattice_points(p, 1)
        if not inside:
            continue
        corpus.append(p.translate(tuple(-c for c in inside[0])))
    both = {True: 0, False: 0}
    for p in corpus:
        hstar = et.to_hr_vector(p, 0)
        assert et.is_reflexive(p) == et.palindromic(hstar)
        both[et.is_reflexive(p)] += 1
    assert both[True] >= 4 and both[False] >= 10  # both sides exercised
    _pass(11, "reflexivity equals h-vector palindromicity on 50-polygon corpus")


FINDING_VERTICES = ((-2, 0, -2, -2), (-2, 0, 0, 0), (-2, 0, 1, 0), (-1, 0, 0, 2),
                    (0, 0, -1, -1), (0, 1, -1, -2), (0, 1, 1, 1), (1, 2, 0, -1))


def test_criterion_12_conjecture_scans(monkeypatch):
    # every polytope a scan builds starts with an empty dilate store, so the
    # rerun recomputes, it does not replay
    fresh, build = [], positivity.random_lattice_polytope

    def built(*args):
        p = build(*args)
        fresh.append(p.dilates == {})
        return p

    monkeypatch.setattr(positivity, "random_lattice_polytope", built)
    start = time.monotonic()
    reports = {}
    for d, bound, gens in ((3, 3, 8), (4, 2, 8)):
        for which in ("psd", "hibi"):
            rep = et.conjecture_scan(d, 100, bound, gens, seed=42, which=which)
            fresh.clear()
            rep2 = et.conjecture_scan(d, 100, bound, gens, seed=42, which=which)
            assert fresh == [True] * 100
            assert json.dumps(rep.to_json(), sort_keys=True) == \
                json.dumps(rep2.to_json(), sort_keys=True)
            assert rep.completed + rep.skipped_no_interior == 100
            reports[(d, which)] = rep
            # any violation must carry a reproducible exact witness
            for v in rep.violations:
                assert v.witness is None or v.witness_value < 0
    elapsed = time.monotonic() - start
    assert elapsed < 600.0, f"took {elapsed:.1f}s"
    # the shipped finding: h_5 - h_1 of seed 42, trial 95 is indefinite
    finding = reports[(4, "hibi")].violations
    assert [(v.trial, v.index, v.classification) for v in finding] == \
        [(95, 5, "indefinite")]
    assert finding[0].vertices == FINDING_VERTICES
    p = et.convex_hull(FINDING_VERTICES)
    assert p.dilates == {}
    h = et.to_hr_vector(p, 2)
    assert (h[5] - h[1]).apply((-8, -7, 0, 0)) == -5
    # the criterion is completion + reproducibility; violations are findings,
    # so they are reported rather than asserted away
    counts = {f"d{d}_{w}": len(r.violations) for (d, w), r in reports.items()}
    _pass(12, f"scans d=3,4 x (psd,hibi) reproducible in {elapsed:.0f}s, "
              f"violations {counts}")


def test_criterion_13_sparse_decomposition_suite():
    polys = [et.random_lattice_polytope(2, 5, 7, seed=50_000 + k) for k in range(50)]
    for p in polys:
        pieces = et.sparse_decomposition(p)
        check_sparse_conditions(p, pieces)
    _pass(13, "sparse decompositions satisfy the three set conditions on 50 polygons")
