"""Moment polynomials, h-vectors, reciprocity, coefficient identities."""
import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import ehrtensor as et
from ehrtensor import ehrhart, polytopes
from ehrtensor.ehrhart import BOTH, CLOSED, INTERIOR
from ehrtensor.positivity import trial_seed
from ehrtensor.tensors import _newton_columns, vneg, vsub

from conftest import (NAMED_POLYGONS, all_dilates_oracle, apply_linear_map, cofactor_cross,
                      fraction_simplex_moment, fraction_vandermonde_oracle,
                      fraction_volume_and_facet_moments, leibniz_det, oracle_moment,
                      oracle_polygon_points, record_calls,
                      translation_covariance_rhs)


def mat(rows):
    return et.SymTensor.from_matrix(rows)


def vec(entries):
    return et.SymTensor.from_vector(entries)


F = Fraction


def test_discrete_moment_unit_triangle_vector():
    p = et.convex_hull(NAMED_POLYGONS["unit_triangle"])
    assert et.discrete_moment(p, 1, 1) == vec((1, 1))


def test_discrete_moment_matches_oracle_enumeration():
    p = et.convex_hull(NAMED_POLYGONS["neg_def_triangle"])
    pts = oracle_polygon_points(p.vertices, 1)
    assert et.discrete_moment(p, 2, 1) == oracle_moment(pts, 2)
    assert et.discrete_moment(p, 2, 1) == mat([[2, 3], [3, 121]])


def test_discrete_moment_square_count():
    p = et.convex_hull(NAMED_POLYGONS["unit_square"])
    assert et.discrete_moment(p, 0, 2).as_scalar() == 9


def test_discrete_moment_dilate_zero():
    p = et.convex_hull(NAMED_POLYGONS["unit_square"])
    assert et.discrete_moment(p, 2, 0).is_zero
    assert et.discrete_moment(p, 0, 0).as_scalar() == 1


def test_interior_moment_examples():
    sq = et.convex_hull(NAMED_POLYGONS["unit_square"])
    assert et.discrete_moment_interior(sq, 2, 1).is_zero
    assert et.discrete_moment_interior(sq, 2, 2) == mat([[1, 1], [1, 1]])
    sym = et.convex_hull(NAMED_POLYGONS["sym_square"])
    assert et.discrete_moment_interior(sym, 2, 1).is_zero


def test_matrix_polynomial_negative_definite_triangle():
    p = et.convex_hull(NAMED_POLYGONS["neg_def_triangle"])
    poly = et.ehrhart_tensor_polynomial(p, 2)
    assert poly.coeffs[0].is_zero
    assert poly.coeffs[1] == mat([[F(1, 2), F(3, 4)], [F(3, 4), F(49, 6)]])
    assert poly.coeffs[2] == mat([[F(-1, 12), F(-1, 8)], [F(-1, 8), F(-23, 12)]])
    assert poly.coeffs[3] == mat([[F(1, 2), F(3, 4)], [F(3, 4), F(149, 6)]])
    assert poly.coeffs[4] == mat([[F(13, 12), F(13, 8)], [F(13, 8), F(1079, 12)]])


def test_count_polynomial_unit_square():
    p = et.convex_hull(NAMED_POLYGONS["unit_square"])
    poly = et.ehrhart_tensor_polynomial(p, 0)
    assert [c.as_scalar() for c in poly.coeffs] == [1, 2, 1]


def test_count_polynomial_unit_triangle_from_counts():
    # brute-force counts at n = 0, 1, 2 pin the quadratic exactly
    p = et.convex_hull(NAMED_POLYGONS["unit_triangle"])
    counts = [len(oracle_polygon_points(p.vertices, n)) for n in (0, 1, 2)]
    assert counts == [1, 3, 6]
    poly = et.ehrhart_tensor_polynomial(p, 0)
    assert [c.as_scalar() for c in poly.coeffs] == [1, F(3, 2), F(1, 2)]


def test_polynomial_predicts_held_out_dilations(corpus_polygons):
    for name, p in corpus_polygons.items():
        for r in (0, 1, 2):
            poly = et.ehrhart_tensor_polynomial(p, r)
            m = p.dim + r
            for n in (m + 1, m + 2):
                assert poly.evaluate(n) == et.discrete_moment(p, r, n), (name, r, n)


def test_hr_vector_unit_triangle_rank2():
    p = et.convex_hull(NAMED_POLYGONS["unit_triangle"])
    h = et.to_hr_vector(p, 2)
    assert [e for e in h.entries] == [
        et.SymTensor.zero(2, 2), mat([[1, 0], [0, 1]]), mat([[1, 1], [1, 1]]),
        et.SymTensor.zero(2, 2), et.SymTensor.zero(2, 2)]


def test_hr_vector_unit_triangle_rank0():
    p = et.convex_hull(NAMED_POLYGONS["unit_triangle"])
    h = et.to_hr_vector(p, 0)
    assert [e.as_scalar() for e in h.entries] == [1, 0, 0]


def test_hr_vector_entry0_and_entry1(corpus_polygons):
    for p in corpus_polygons.values():
        for r in (1, 2):
            h = et.to_hr_vector(p, r)
            assert h[0].is_zero
            assert h[1] == et.discrete_moment(p, r, 1)


def test_hr_vector_top_entry_is_interior_moment(corpus_polygons):
    for p in corpus_polygons.values():
        for r in (0, 1, 2):
            h = et.to_hr_vector(p, r)
            assert h[len(h) - 1] == et.discrete_moment_interior(p, r, 1)


@pytest.mark.parametrize("m", range(13))
def test_binomial_expansion_is_the_product_of_linear_factors(m):
    # column i holds the coefficients of prod_{j<m} (n+m-i-j), lowest first
    columns = []
    for i in range(m + 1):
        coeffs = [1]
        for j in range(m):
            coeffs = [(m - i - j) * a + b for a, b in zip(coeffs + [0], [0] + coeffs)]
        columns.append(tuple(coeffs))
    assert ehrhart._binomial_expansion(m) == tuple(zip(*columns))


@pytest.mark.parametrize("m", range(1, 13))
def test_binomial_expansion_top_rows_give_the_sum_identities(m):
    # row m is all ones and row m-1 is (m/2)(m+1-2i): the coefficients of
    # n^m and n^(m-1) are sum_i h_i / m! and sum_i (m+1-2i) h_i / (2 (m-1)!)
    rows = ehrhart._binomial_expansion(m)
    assert rows[m] == (1,) * (m + 1)
    assert [2 * x for x in rows[m - 1]] == [m * (m + 1 - 2 * i) for i in range(m + 1)]


def _fraction_checks(p, h):
    """The volume and facet comparisons verify made on Fraction tensors: the
    leading coefficient against moment_tensor, the second against
    second_coefficient_facets, and the entry sums against m! moment_tensor."""
    m, r = len(h) - 1, h.rank
    coeffs, volume = et.hr_vector_to_polynomial(h).coeffs, et.moment_tensor(p, r)
    total = et.SymTensor(r, p.dim, tuple(map(sum, zip(*(e.entries for e in h.entries)))))
    return (coeffs[m] == volume, coeffs[m - 1] == et.second_coefficient_facets(p, r),
            total == volume * math.factorial(m))


@pytest.mark.parametrize("shift", [0, 10 ** 30, -10 ** 30])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_integer_sum_identities_decide_as_the_fraction_checks(d, shift):
    # on the production h, and on it with any one entry moved, the integer
    # gaps give the booleans of the Fraction comparisons they replace; a move
    # of h_i with m+1-2i = 0 keeps the facet identity in both
    for seed in range(3):
        p = et.random_lattice_polytope(d, 6 if d < 3 else 2, 8, seed)
        p = p.translate((shift,) * d) if shift else p
        for h in ehrhart.hr_vectors(p, (0, 1, 2)):
            moved = [et.HrVector(h.entries[:i] + (et.SymTensor(
                h.rank, d, (e.entries[0] + 1,) + e.entries[1:]),) + h.entries[i + 1:])
                for i, e in enumerate(h.entries)]
            for candidate in (h, *moved):
                volume, facets = (not any(g) for g in ehrhart._sum_gaps(
                    p, h.rank, [e.entries for e in candidate.entries], range(len(h))))
                assert (volume, facets, volume) == _fraction_checks(p, candidate)
            assert _fraction_checks(p, h) == (True, True, True)


def test_hr_vector_binomial_expansion_round_trip(corpus_polygons):
    for p in corpus_polygons.values():
        for r in (0, 1, 2):
            poly, h = fraction_vandermonde_oracle(p, r)
            assert et.to_hr_vector(p, r) == h
            assert et.hr_vector_to_polynomial(h) == poly


@pytest.mark.parametrize("d", range(1, 6))
def test_chosen_coefficient_rows_are_the_polynomial_rows(d):
    # the rows verify checks, n^m and n^(m-1), are m! and 2(m-1)! times two
    # integer sums of h, and on the production h of ranks 0..3 those sums are
    # the volume and facet sums: both gaps of _sum_gaps are zero
    p = et.random_lattice_polytope(d, 2 if d < 4 else 1, d + 3, seed=620 + d)
    for h in ehrhart.hr_vectors(p, range(4)):
        m, coeffs = len(h) - 1, et.hr_vector_to_polynomial(h).coeffs
        columns = list(zip(*(e.entries for e in h.entries)))
        assert [c * math.factorial(m) for c in coeffs[m].entries] == list(map(sum, columns))
        assert [c * 2 * math.factorial(m - 1) for c in coeffs[m - 1].entries] == \
            [sum((m + 1 - 2 * i) * x for i, x in enumerate(col)) for col in columns]
        zero = (0,) * len(columns)
        assert ehrhart._sum_gaps(p, h.rank, [e.entries for e in h.entries],
                                 range(m + 1)) == (zero, zero)


def test_chosen_coefficient_rows_of_a_fraction_h_vector():
    # entries need not be integers: rows m and m-1 are still the two sums of
    # h over m! and 2(m-1)!, and the polynomial is sum_i h_i C(n+m-i, m) at
    # n = -2..4
    h = et.HrVector((vec((F(1, 2), 3)), vec((F(-2, 3), F(5, 7))), vec((0, F(1, 9))),
                     vec((4, F(-3, 4)))))
    poly = et.hr_vector_to_polynomial(h)
    zero = et.SymTensor.zero(1, 2)
    assert poly.coeffs[3] * 6 == sum(h.entries, zero)
    assert poly.coeffs[2] * 4 == sum((e * (4 - 2 * i) for i, e in enumerate(h.entries)), zero)
    for n in range(-2, 5):
        binomial = [math.prod(range(n + 1 - i, n + 4 - i)) // 6 for i in range(4)]
        assert poly.evaluate(n) == sum((e * b for e, b in zip(h.entries, binomial)),
                                       et.SymTensor.zero(1, 2))


def test_reciprocity_pass_stops_at_the_first_wrong_n(monkeypatch):
    # one pass per rank reads the oracle h once and asks for L^r(nP°) at each
    # n in order, until one differs
    p = et.random_lattice_polytope(3, 2, 6, seed=763)
    h = ehrhart._oracle(p, (2,))[0]
    interior, asked = ehrhart.discrete_moment_interior, []

    def perturbed(p, r, n):
        asked.append(n)
        t = interior(p, r, n)
        return et.SymTensor(t.rank, t.dim, (t.entries[0] + (n == 2),) + t.entries[1:])

    monkeypatch.setattr(ehrhart, "discrete_moment_interior", perturbed)
    assert ehrhart._reciprocity_holds(p, h, (1, 3))
    assert not ehrhart._reciprocity_holds(p, h, (1, 2, 3))
    assert asked == [1, 3, 1, 2]


def test_reciprocity_examples():
    sq = et.convex_hull(NAMED_POLYGONS["unit_square"])
    assert et.reciprocity_check(sq, 0, 1)
    assert et.reciprocity_check(sq, 2, 2)
    tri = et.convex_hull(NAMED_POLYGONS["neg_def_triangle"])
    for n in (1, 2, 3):
        assert et.reciprocity_check(tri, 2, n)


def test_reciprocity_corpus(corpus_polygons, random_3polytopes):
    for p in list(corpus_polygons.values()) + random_3polytopes:
        for r in (0, 1, 2):
            for n in (1, 2, 3):
                assert et.reciprocity_check(p, r, n)


def test_integer_oracle_matches_fraction_oracle_and_main_route():
    # both parities of m = d + r: the closed half of h reads n = 0..floor(m/2),
    # the interior half n = 1..ceil(m/2)
    ranks = {(1, 4): range(5), (2, 3): range(5), (3, 2): range(5), (4, 1): range(5),
             (5, 1): range(3)}
    for (d, bound), rs in ranks.items():
        for seed in range(3):
            p = et.random_lattice_polytope(d, bound, d + 3, seed=700 + seed)
            for r in rs:
                poly, h = fraction_vandermonde_oracle(p, r)
                assert all_dilates_oracle(p, r) == h, (d, seed, r)
                assert et.ehrhart_tensor_polynomial(p, r) == poly, (d, seed, r)
                assert et.to_hr_vector(p, r) == h, (d, seed, r)


def known_coefficient_corpus():
    return [et.random_lattice_polytope(d, bound, d + 3, seed=760 + seed)
            for d, bound, seeds in ((4, 1, 2), (4, 2, 2), (5, 1, 1), (6, 1, 1))
            for seed in range(seeds)]


def test_hr_vector_from_known_coefficients_matches_all_dilates_oracle():
    # from d = 4 on the h route scans one dilate fewer and solves for the
    # middle entries of h from the volume and facet moments, one entry at
    # odd m and two at even m, up to m = 10 on the d = 6 polytope; the
    # oracle, on a freshly built copy that shares no stored pass, reads the
    # closed moments of every dilate and neither moment
    for p in known_coefficient_corpus():
        for r in range(5):
            fresh = et.convex_hull(p.vertices)
            assert et.to_hr_vector(p, r) == all_dilates_oracle(fresh, r), (p.dim, r)


def test_all_dilates_h_meets_the_volume_and_facet_sums():
    # the two top coefficients of L(n) = sum_i h_i C(n+m-i, m), m = d + r,
    # are two sums of h: sum_i h_i = V, the volume moment times m!, and
    # sum_i (m+1-2i) h_i = F, the facet sum.  The all-dilates h reads neither,
    # and the identities are checked below d = 4 too, where the h route
    # does not use them
    for d, bound in ((1, 4), (2, 3), (3, 2), (4, 1), (5, 1)):
        p = et.random_lattice_polytope(d, bound, d + 3, seed=720 + d)
        for r in range(5):
            m = d + r
            columns = list(zip(*(e.entries for e in all_dilates_oracle(p, r).entries)))
            volume, facets = (sums[r] for sums in ehrhart._simplex_sums(p, r))
            assert [sum(col) for col in columns] == list(volume), (d, r)
            assert [sum((m + 1 - 2 * i) * x for i, x in enumerate(col))
                    for col in columns] == list(facets), (d, r)


@pytest.mark.parametrize("kind", ["volume", "facets"])
def test_a_wrong_known_coefficient_breaks_the_hr_vector(kind, monkeypatch):
    # adding 1 to one entry of the volume sum V shifts the filled-in value by
    # 1 at odd m and by 1/2 at even m, which the exact division refuses; the
    # facet sum F is read at even m only, where adding 1 is refused the same
    # way.  Adding 2 shifts every value it enters by 1, so h disagrees.
    corpus = known_coefficient_corpus()
    oracle = {(p, r): all_dilates_oracle(et.convex_hull(p.vertices), r)
              for p in corpus for r in range(5)}
    sums, which = ehrhart._simplex_sums, ("volume", "facets").index(kind)
    shift = 0

    def perturbed(p, top):
        out = list(sums(p, top))
        out[which] = tuple((ranks[0] + shift,) + ranks[1:] for ranks in out[which])
        return tuple(out)

    monkeypatch.setattr(ehrhart, "_simplex_sums", perturbed)
    for (p, r), h in oracle.items():
        even = (p.dim + r) % 2 == 0
        shift = 1
        if even:
            with pytest.raises(ArithmeticError):
                et.to_hr_vector(p, r)
        else:
            assert (et.to_hr_vector(p, r) == h) == (kind == "facets"), (p.dim, r)
        shift = 2
        assert (et.to_hr_vector(p, r) == h) == (kind == "facets" and not even), (p.dim, r)
        shift = 0
        assert et.to_hr_vector(p, r) == h, (p.dim, r)


def closed_oracle_corpus():
    """Seeded polytopes in d = 1..3 and far translates of them."""
    out = []
    for d, bound in ((1, 4), (2, 3), (3, 2)):
        for seed in range(2):
            p = et.random_lattice_polytope(d, bound, d + 3, seed=740 + seed)
            out += [p, p.translate((10**6 + 1, -3, 7)[:d])]
    return out


@pytest.mark.parametrize("kind", ["volume", "facets"])
def test_a_wrong_volume_or_facet_sum_breaks_the_closed_moment_oracle(kind, monkeypatch):
    # below d = 4 the oracle takes h_0..h_(m-2) from the closed moments and
    # solves h_(m-1) = (B + (m-1)A)/2 and h_m = A - h_(m-1), with A and B the
    # volume and facet sums less the known entries.  Adding 1 to one entry
    # of F makes that numerator odd, which the exact division refuses; adding
    # 1 to V adds m - 1 to it, refused at even m and a wrong h at odd m.
    # Adding 2 moves h_(m-1) + h_m by 2 (V) or h_(m-1) - h_m by 2 (F), so h
    # disagrees with the all-dilates h, built beforehand on a fresh copy.
    corpus = closed_oracle_corpus()
    oracle = {(p, r): all_dilates_oracle(et.convex_hull(p.vertices), r)
              for p in corpus for r in range(5)}
    sums, which = ehrhart._simplex_sums, ("volume", "facets").index(kind)
    shift = 0

    def perturbed(p, top):
        out = list(sums(p, top))
        out[which] = tuple((ranks[0] + shift,) + ranks[1:] for ranks in out[which])
        return tuple(out)

    monkeypatch.setattr(ehrhart, "_simplex_sums", perturbed)
    for (p, r), h in oracle.items():
        shift = 1
        if kind == "facets" or (p.dim + r) % 2 == 0:
            with pytest.raises(ArithmeticError):
                ehrhart._closed_moment_oracle(p, r)
        else:
            assert ehrhart._closed_moment_oracle(p, r) != h, (p.dim, r)
        shift = 2
        assert ehrhart._closed_moment_oracle(p, r) != h, (p.dim, r)
        shift = 0
        assert ehrhart._closed_moment_oracle(p, r) == h, (p.dim, r)


def test_the_closed_moment_oracle_reads_no_interior_moment(monkeypatch):
    # adding 1 to every interior moment of every pass moves the top entry of
    # the h route's h, which reads them, and leaves the oracle's h as it was
    corpus = closed_oracle_corpus()
    oracle = {(p, r): all_dilates_oracle(et.convex_hull(p.vertices), r)
              for p in corpus for r in range(5)}
    moments = ehrhart.row_moments

    def perturbed(rows, r, dim, sides, order):
        return [tuple([x + (side == "interior") for x in entries]
                      for side, entries in zip(sides, ranks))
                for ranks in moments(rows, r, dim, sides, order)]

    monkeypatch.setattr(ehrhart, "row_moments", perturbed)
    for (p, r), h in oracle.items():
        fresh = et.convex_hull(p.vertices)
        assert ehrhart._closed_moment_oracle(fresh, r) == h, (p.dim, r)
        assert et.to_hr_vector(fresh, r) != h, (p.dim, r)
        assert et.discrete_moment_interior(fresh, r, 1) != h[len(h) - 1], (p.dim, r)


@pytest.mark.parametrize("d", range(1, 6))
def test_reciprocity_check_refuses_a_negative_rank(d):
    # below d = 4 the oracle reads rank r of the volume and facet sums, where
    # r = -1 would read the top rank when no dilate is scanned first
    p = et.random_lattice_polytope(d, 1 if d > 3 else 2, d + 3, seed=750)
    for n in (1, 2, 3):
        with pytest.raises(ValueError):
            et.reciprocity_check(p, -1, n)


# The dimension policy, per d: the oracle that meets the h route, and for
# r = 0..5 the last dilate n the h route reads (it reads n = last..1, the
# largest first) and how many entries of h, after those the rows give, it
# solves from the volume and facet sums.
POLICY = {
    1: ("closed", [(1, 0), (1, 0), (2, 0), (2, 0), (3, 0), (3, 0)]),
    2: ("closed", [(1, 0), (2, 0), (2, 0), (3, 0), (3, 0), (4, 0)]),
    3: ("closed", [(2, 0), (2, 0), (3, 0), (3, 0), (4, 0), (4, 0)]),
    4: ("cells", [(1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]),
    5: ("cells", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]),
    6: ("cells", [(2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1)]),
    7: ("cells", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)]),
    8: ("cells", [(3, 2), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1)]),
}


@pytest.mark.parametrize("d", sorted(POLICY))
def test_dimension_policy_is_pinned(d, monkeypatch):
    # on the unit simplex, the dilates the h route reads; the entries that
    # move when V gains 2 and F gains 4 in their first entry, which are the
    # ones solved from the sums; and the oracle _oracle takes, with both
    # oracles stubbed out
    oracle, reach = POLICY[d]
    scanned = record_calls(monkeypatch, ehrhart, "dilate_rows")
    sums, shift = ehrhart._simplex_sums, [0, 0]

    def perturbed(p, top):
        return tuple(tuple((ranks[0] + k,) + ranks[1:] for ranks in side)
                     for k, side in zip(shift, sums(p, top)))

    monkeypatch.setattr(ehrhart, "_simplex_sums", perturbed)
    taken = []
    monkeypatch.setattr(ehrhart, "_closed_moment_oracle", lambda p, r: taken.append("closed"))
    monkeypatch.setattr(ehrhart, "_halfopen_cells", lambda p: [])
    monkeypatch.setattr(ehrhart, "_hr_sums", lambda cells, ranks: taken.append("cells"))
    for r, (last, known) in enumerate(reach):
        p = et.convex_hull([(0,) * d] + [tuple(int(i == j) for j in range(d)) for i in range(d)])
        scanned.clear()
        shift[:] = 0, 0
        h = et.to_hr_vector(p, r)
        assert [c["n"] for c in scanned] == list(range(last, 0, -1)), (d, r)
        shift[:] = 2, 4
        moved = et.to_hr_vector(p, r)
        assert [i for i in range(len(h)) if h[i] != moved[i]] \
            == list(range(last + 1, last + 1 + known)), (d, r)
        taken.clear()
        ehrhart._oracle(p, (r,))
        assert taken == [oracle], (d, r)


# Seeded polytopes per dimension, (d, coordinate bound, seeds); the first of each
# dimension is met far from the origin too.
ROUTE_CORPUS = ((1, 6, 4), (2, 3, 4), (3, 2, 4), (4, 1, 3), (5, 1, 2), (6, 1, 1))


@pytest.mark.parametrize("d, bound, seeds", ROUTE_CORPUS, ids=[f"d{c[0]}" for c in ROUTE_CORPUS])
def test_each_row_of_the_route_table_meets_the_all_dilates_h(d, bound, seeds):
    # the production route and the oracle of the row that holds d, and the
    # all-dilates h, each on a freshly built copy that shares no stored pass,
    # give the same h of ranks 0..3; a row that changes is met here as it is
    production, oracle = ehrhart.routes(d)
    corpus = [et.random_lattice_polytope(d, bound, d + 2, seed=4600 + seed)
              for seed in range(seeds)]
    shift = tuple((-1) ** i * (10**6 + 7 * i) for i in range(d))
    for p in corpus + [corpus[0].translate(shift)]:
        expected = [all_dilates_oracle(et.convex_hull(p.vertices), r) for r in range(4)]
        assert production.h(et.convex_hull(p.vertices), range(4)) == expected, p.vertices
        assert oracle.h(et.convex_hull(p.vertices), range(4)) == expected, p.vertices


def test_the_route_corpus_reaches_every_row():
    assert {ehrhart.routes(d) for d, _, _ in ROUTE_CORPUS} == {row[1:] for row in ehrhart.ROUTES}


def test_hr_vector_scans_dilates_up_to_half_the_degree(monkeypatch):
    # reciprocity halves the dilates: h of rank r reads the scans of nP for
    # n = 1..ceil((m - known)/2), m = d + r, each once, where from d = 4 on
    # the volume moment and, at even m, the facet moments are the known top
    # coefficients, and 0P's moments are known in closed form; a fresh
    # polytope per rank, since the scans and moment passes stay on the polytope
    scanned = record_calls(monkeypatch, ehrhart, "dilate_rows")
    for d, bound in ((1, 4), (2, 3), (3, 2), (4, 1), (5, 1)):
        for r in range(4):
            p = et.random_lattice_polytope(d, bound, d + 3, seed=710 + d)
            scanned.clear()
            et.to_hr_vector(p, r)
            known = 2 - (d + r) % 2 if d >= 4 else 0
            last = (d + r - known + 1) // 2
            assert sorted(c["n"] for c in scanned) == list(range(1, last + 1)), (d, r)


@pytest.mark.parametrize("d", range(1, 6))
def test_hr_vectors_match_per_rank_calls(d, monkeypatch):
    # one call gives the h of each rank in the order asked, equal to one
    # to_hr_vector call per rank, and on a fresh polytope it reads the same
    # dilates and makes the same moment and boundary passes as those calls
    # made highest rank first, the order it derives them in
    p = et.random_lattice_polytope(d, 2 if d < 4 else 1, d + 3, seed=760 + d)
    reads = record_calls(monkeypatch, ehrhart, "dilate_rows")
    passes = record_calls(monkeypatch, ehrhart, "row_moments")
    boundary = record_calls(monkeypatch, ehrhart, "_newton_columns")

    def made():
        out = ([c["n"] for c in reads], [(c["r"], tuple(c["sides"])) for c in passes],
               [(c["r"], len(c["faces"])) for c in boundary])
        for calls in (reads, passes, boundary):
            calls.clear()
        return out

    for ranks in [(2, 0), (0, 1, 2), (3,), (4, 1, 3), (1, 1)]:
        together = et.hr_vectors(et.convex_hull(p.vertices), ranks)
        made_together = made()
        fresh = et.convex_hull(p.vertices)
        apart = {r: et.to_hr_vector(fresh, r) for r in sorted(set(ranks), reverse=True)}
        assert together == [apart[r] for r in ranks], (d, ranks)
        assert made_together == made(), (d, ranks)
        assert [h.rank for h in together] == list(ranks)


def test_hr_vectors_refuse_no_rank_and_a_negative_rank_before_any_scan(monkeypatch):
    p = et.random_lattice_polytope(4, 2, 8, seed=770)
    scans = record_calls(monkeypatch, polytopes, "scan_rows")
    boundary = record_calls(monkeypatch, ehrhart, "_newton_columns")
    for ranks in [(), [], range(0), (-1,), (2, -1), (0, 1, -3)]:
        with pytest.raises(ValueError):
            et.hr_vectors(p, ranks)
    with pytest.raises(ValueError, match="nonnegative"):
        et.to_hr_vector(p, -1)
    assert scans == boundary == [] and p.dilates == {}


def test_hr_vectors_of_many_polytopes_scan_each_dilate_once(monkeypatch):
    # 9 polytopes at ranks 0..2 read 21 (polytope, n) dilates, 1 <= n <= 2 at
    # d = 2 and d = 4, 1 <= n <= 3 at d = 3: each is passed over once, and
    # all but the 3 at d = 3 scanned, where rank 0 reads 1P off the rows of
    # 2P; a second round reads them all off the polytopes
    corpus = [et.random_lattice_polytope(d, 2, d + 3, seed=730 + 3 * d + k)
              for d in (2, 3, 4) for k in range(3)]
    scans = record_calls(monkeypatch, polytopes, "scan_rows")
    passes = record_calls(monkeypatch, ehrhart, "row_moments")
    first = [et.to_hr_vector(p, r) for p in corpus for r in range(3)]
    assert (len(scans), len(passes)) == (18, 21)
    scans.clear()
    passes.clear()
    assert [et.to_hr_vector(p, r) for p in corpus for r in range(3)] == first
    assert scans == passes == []


@pytest.mark.parametrize("build, ranks, last", [
    (lambda: et.random_lattice_polytope(4, 2, 8, trial_seed(0, 3)), [2], 2),
    (lambda: et.random_lattice_polytope(2, 8, 8, 5), [1, 2], 2),
], ids=["scan-d4-trial", "pick-2d-polygon"])
def test_h_route_makes_one_two_sided_pass_per_dilate(build, ranks, last, monkeypatch):
    # the conjecture scan reads h of rank 2, the Pick checks h of ranks 1 and
    # 2: both sides of nP in one pass per dilate, n = ceil((dim+2)/2)..1 in
    # 2D and n = 2..1 at d = 4, where the volume and facet moments stand in
    # for dilate 3; 0P's moments are known in closed form
    p = build()
    reads = record_calls(monkeypatch, ehrhart, "dilate_rows")
    passes = record_calls(monkeypatch, ehrhart, "row_moments")
    for r in ranks:
        et.to_hr_vector(p, r)
    dilates = list(range(last, 0, -1))
    assert [c["n"] for c in reads] == dilates
    assert [(c["r"], tuple(c["sides"])) for c in passes] == [(2, BOTH)] * len(dilates)


def test_a_moment_pass_serves_every_rank_up_to_its_top(monkeypatch):
    # each side of nP is kept under (n, side) with the ranks 0..top of its
    # last pass, and passed again only for a rank it lacks, at top max(r, 2):
    # on a 3-polytope rank 4 reads n = 1..4, and ranks 1 and 3 read n <= 2
    # and n <= 3 off those passes
    p = et.random_lattice_polytope(3, 2, 6, seed=763)
    passes = record_calls(monkeypatch, ehrhart, "row_moments")
    hs = et.hr_vectors(p, (4, 1, 3))
    assert [c["r"] for c in passes] == [4] * 4
    assert {key for key in p.dilates if isinstance(key, tuple)} \
        == {(n, side) for n in range(1, 5) for side in BOTH}
    passes.clear()
    assert et.to_hr_vector(p, 1) == hs[1]
    assert passes == []
    # ranks asked lowest first are derived highest first, so each dilate of
    # a fresh copy is passed once, at top 3
    fresh = et.convex_hull(p.vertices)
    assert et.hr_vectors(fresh, (1, 3)) == hs[1:]
    assert [c["r"] for c in passes] == [3, 3, 3]


def test_the_boundary_pass_serves_every_rank_up_to_its_top(monkeypatch):
    p = et.random_lattice_polytope(4, 2, 8, seed=763)
    boundary = record_calls(monkeypatch, ehrhart, "_newton_columns")
    high = et.moment_tensor(p, 4)
    low = et.moment_tensor(p, 1)
    assert [c["r"] for c in boundary] == [4]
    fresh = et.convex_hull(p.vertices)
    assert (et.moment_tensor(fresh, 4), et.moment_tensor(fresh, 1)) == (high, low)


def test_the_closed_moment_oracle_asks_for_the_closed_side_only(monkeypatch):
    # on a fresh polytope the oracle passes the closed side of each dilate it
    # reads, and reciprocity_check the interior side of nP and no other
    p = et.random_lattice_polytope(3, 2, 6, seed=763)
    h = et.to_hr_vector(et.convex_hull(p.vertices), 3)
    reads = record_calls(monkeypatch, ehrhart, "dilate_rows")
    passes = record_calls(monkeypatch, ehrhart, "row_moments")
    assert ehrhart._closed_moment_oracle(p, 3) == h
    assert [c["n"] for c in reads] == [1, 2, 3, 4]
    assert [tuple(c["sides"]) for c in passes] == [CLOSED] * 4
    for p in reciprocity_corpus():
        for r in range(4):
            for n in (1, 2, 3):
                reads.clear()
                passes.clear()
                assert et.reciprocity_check(et.convex_hull(p.vertices), r, n)
                made = [(read["n"], tuple(c["sides"])) for read, c in zip(reads, passes)]
                assert [m for m in made if m[1] != CLOSED] == [(n, INTERIOR)], (p.dim, r, n)


def test_record_calls_forwards_and_records_keywords(monkeypatch):
    rows = polytopes.dilate_rows(et.convex_hull(NAMED_POLYGONS["skew_quad"]), 2)
    want = ehrhart.row_moments(rows, 1, 2, CLOSED)
    passes = record_calls(monkeypatch, ehrhart, "row_moments")
    assert ehrhart.row_moments(rows, 1, dim=2, sides=CLOSED) == want
    assert ehrhart.row_moments(rows, 1, 2) != want
    assert [(c["r"], c["dim"], c["sides"]) for c in passes] == [(1, 2, CLOSED), (1, 2, BOTH)]


def reciprocity_corpus():
    return [et.random_lattice_polytope(d, bound, d + 3, seed=750 + d)
            for d, bound in ((1, 4), (2, 3), (3, 2), (4, 1))]


def test_reciprocity_extrapolation_is_the_fraction_polynomial_at_minus_n(monkeypatch):
    oracle = {(p, r): fraction_vandermonde_oracle(p, r)[0]
              for p in reciprocity_corpus() for r in range(4)}
    for p, r in oracle:
        for n in (1, 2, 3):
            assert et.reciprocity_check(p, r, n), (p.dim, r, n)
    # with (-1)^m times the oracle polynomial at -n as the interior side, the
    # check holds exactly when its extrapolation equals that polynomial at -n
    monkeypatch.setattr(ehrhart, "discrete_moment_interior",
                        lambda p, r, n: oracle[p, r].evaluate(-n) * (-1) ** (p.dim + r))
    for p, r in oracle:
        for n in (1, 2, 3):
            assert et.reciprocity_check(p, r, n), (p.dim, r, n)


def test_reciprocity_check_fails_on_a_perturbed_interior_moment(monkeypatch):
    interior = ehrhart.discrete_moment_interior

    def perturbed(p, r, n):
        t = interior(p, r, n)
        return et.SymTensor(t.rank, t.dim, (t.entries[0] + 1,) + t.entries[1:])

    monkeypatch.setattr(ehrhart, "discrete_moment_interior", perturbed)
    for p in reciprocity_corpus():
        for r in range(4):
            for n in (1, 2, 3):
                assert not et.reciprocity_check(p, r, n), (p.dim, r, n)


def test_moment_tensor_examples():
    sq = et.convex_hull(NAMED_POLYGONS["unit_square"])
    assert et.moment_tensor(sq, 0).as_scalar() == 1
    assert et.moment_tensor(sq, 2) == mat([[F(1, 3), F(1, 4)], [F(1, 4), F(1, 3)]])
    tri = et.convex_hull(NAMED_POLYGONS["unit_triangle"])
    assert et.moment_tensor(tri, 2) == mat([[F(1, 12), F(1, 24)], [F(1, 24), F(1, 12)]])


def barycentric_simplex_moment(verts, r: int, dim: int, volume: int) -> et.SymTensor:
    """Integral of x^r over a k-simplex as ``volume * r!/(k+r)!`` times the sum
    of ``w_0^(k_0) ... w_k^(k_k)`` over every vertex multiset of size r.

    The chain of r unnormalized rank-1 products carries the r! itself."""
    acc = et.SymTensor.zero(r, dim)
    for combo in combinations_with_replacement(range(len(verts)), r):
        term = et.SymTensor.scalar(dim, 1)
        for i in combo:
            term = et.sym_product(term, et.outer_power(verts[i], 1, dim))
        acc = acc + term
    return acc * Fraction(volume, math.factorial(len(verts) - 1 + r))


def test_simplex_moment_matches_barycentric_oracle():
    # the library's integer H_r entries (the Newton kernel with weights c!),
    # weighted by the volume, over (k+r)!, and the Fraction tensor oracle that
    # tests meet moment_tensor with
    def integer_simplex_moment(verts, r, d, volume):
        columns = _newton_columns(verts, [range(len(verts))], r, d,
                                  [(math.factorial(c),) for c in range(r + 1)])
        entries = [volume * col[0] for col in columns[r][0]]
        return et.SymTensor(r, d, tuple(entries)) * Fraction(1, math.factorial(len(verts) - 1 + r))

    rng = random.Random(1400)
    for d in range(1, 6):
        done = 0
        while done < 2:
            verts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 1)]
            volume = abs(leibniz_det([vsub(v, verts[0]) for v in verts[1:]]))
            if volume == 0:
                continue
            done += 1
            # the simplex and one of its facets, in the facet lattice measure
            facet = verts[1:]
            facet_volume = math.gcd(*cofactor_cross([vsub(v, facet[0]) for v in facet[1:]], d))
            for r in range(5):
                for vs, vol in ((verts, volume), (facet, facet_volume)):
                    expected = barycentric_simplex_moment(vs, r, d, vol)
                    assert integer_simplex_moment(vs, r, d, vol) == expected, (vs, r)
                    assert fraction_simplex_moment(vs, r, d, vol) == expected, (vs, r)


def test_boundary_pass_refuses_weights_that_leave_a_remainder(monkeypatch):
    # all-1 weights through the volume and facet pass: the exact division
    # raises at every top rank, and rank 2 is the top one at r = 2
    kernel = ehrhart._newton_columns
    monkeypatch.setattr(ehrhart, "_newton_columns", lambda vertices, faces, r, dim, weights:
                        kernel(vertices, faces, r, dim, [(1,) * len(w) for w in weights]))
    for r in range(2, 6):
        p = et.convex_hull([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        with pytest.raises(ArithmeticError, match="remainder at rank 2$"):
            et.moment_tensor(p, r)


def test_volume_and_facet_moments_match_fraction_oracle(corpus_polygons, random_3polytopes):
    # one integer pass over the boundary with one division per entry against
    # one Fraction tensor per simplex of the vertices' own triangulation, on
    # the seeded corpora of d = 1..5, on a 3-polytope whose boundary has the
    # non-vertex corner (1, 0, 0), and on translates of each: with the origin
    # strictly outside P, where the volume weights rhs * g take both signs,
    # and at a vertex, where the faces through it have rhs = 0
    bounds = {1: 4, 2: 3, 3: 2, 4: 1, 5: 1}
    seeded = [et.random_lattice_polytope(d, bound, d + 3, seed=700 + seed)
              for d, bound in bounds.items() for seed in range(2)]
    non_vertex = et.convex_hull([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    points, boundary = non_vertex.boundary
    assert len(non_vertex.vertices) == 5
    assert any(points[i] == (1, 0, 0) for face, _, _ in boundary for i in face)
    polytopes = list(corpus_polygons.values()) + random_3polytopes + seeded + [non_vertex]
    assert {p.dim for p in polytopes} == {1, 2, 3, 4, 5}
    outside = [p.translate([1 - min(c) for c in zip(*p.vertices)]) for p in polytopes]
    at_vertex = [p.translate(vneg(p.vertices[-1])) for p in polytopes]
    assert all(min(f.rhs for f in p.facets) < 0 < max(f.rhs for f in p.facets) for p in outside)
    assert all(any(f.rhs == 0 for f in p.facets) for p in at_vertex)
    for p in polytopes + outside + at_vertex:
        for r in range(4):
            volume, facets = fraction_volume_and_facet_moments(p, r)
            assert et.moment_tensor(p, r).entries == volume.entries, (p.vertices, r)
            assert et.second_coefficient_facets(p, r).entries == facets.entries, (p.vertices, r)


def test_moment_tensor_is_leading_coefficient_in_every_dim_and_rank():
    for d in (1, 2, 3, 4):
        for seed in range(3):
            p = et.random_lattice_polytope(d, 1 if d == 4 else 2, d + 3, seed=1300 + seed)
            for r in (0, 1, 2, 3):
                assert et.moment_tensor(p, r) == \
                    et.ehrhart_tensor_polynomial(p, r).coeffs[-1], (d, seed, r)


def test_leading_coefficient_is_moment(corpus_polygons, random_3polytopes):
    for p in list(corpus_polygons.values()) + random_3polytopes:
        for r in (0, 1, 2):
            poly = et.ehrhart_tensor_polynomial(p, r)
            assert poly.coeffs[-1] == et.moment_tensor(p, r)


def test_h_sum_is_factorial_times_moment(corpus_polygons, random_3polytopes):
    for p in list(corpus_polygons.values()) + random_3polytopes:
        for r in (0, 1, 2):
            h = et.to_hr_vector(p, r)
            total = et.SymTensor.zero(r, p.dim)
            for e in h.entries:
                total = total + e
            assert total == et.moment_tensor(p, r) * math.factorial(p.dim + r)


def test_second_coefficient_unit_square():
    sq = et.convex_hull(NAMED_POLYGONS["unit_square"])
    assert et.second_coefficient_facets(sq, 0).as_scalar() == 2
    assert et.second_coefficient_facets(sq, 2) == \
        mat([[F(5, 6), F(1, 2)], [F(1, 2), F(5, 6)]])
    tri = et.convex_hull(NAMED_POLYGONS["unit_triangle"])
    assert et.second_coefficient_facets(tri, 0).as_scalar() == F(3, 2)


def test_second_coefficient_matches_interpolation(corpus_polygons):
    seeded = [et.random_lattice_polytope(d, 1 if d == 4 else 2, d + 3, seed=1500 + seed)
              for d in (1, 3, 4) for seed in range(3)]
    for p in list(corpus_polygons.values()) + seeded:
        for r in (0, 1, 2, 3):
            poly = et.ehrhart_tensor_polynomial(p, r)
            assert poly.coeffs[p.dim + r - 1] == et.second_coefficient_facets(p, r)


def test_translation_covariance(corpus_polygons):
    shifts = [(1, 0), (0, -2), (3, 5), (-2, -1)]
    for p in list(corpus_polygons.values())[:6]:
        for t in shifts:
            q = p.translate(t)
            for r in (0, 1, 2):
                assert et.discrete_moment(q, r, 1) == translation_covariance_rhs(p, r, 1, t)


def test_h_vector_unimodular_equivariance():
    # h-entries of a transformed polygon are pushforwards of the originals
    phi = [[2, 1], [1, 1]]
    p = et.convex_hull(NAMED_POLYGONS["skew_quad"])
    q = et.convex_hull([tuple(sum(phi[i][j] * v[j] for j in range(2))
                              for i in range(2)) for v in p.vertices])
    for r in (0, 1, 2):
        hp = et.to_hr_vector(p, r)
        hq = et.to_hr_vector(q, r)
        for a, b in zip(hp.entries, hq.entries):
            assert apply_linear_map(a, phi) == b


def test_segment_matrix_coefficients_are_psd():
    # 1-dimensional polytopes: every matrix coefficient is PSD and the
    # linear one is a sum of squared edge differences
    seg = et.convex_hull([(-2,), (3,)])
    poly = et.ehrhart_tensor_polynomial(seg, 2)
    for c in poly.coeffs[1:]:
        rep = et.classify_definiteness(c)
        assert rep.classification in ("zero", "positive_semidefinite",
                                      "positive_definite")
