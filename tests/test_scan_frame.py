"""The scan frame and the zero dilate.

From dim 3 on a polytope scans its dilates in one axis order of its own
(``Polytope.scan_order``), and the moment kernel maps the entries back to the
original frame.  The reference here is the same polytope with its coordinates
permuted into that order and scanned in its given order, pushed back along
the permutation matrix by ``conftest.apply_linear_map``.  0P's moments are
read in closed form, with no scan and no pass.
"""
from itertools import product

import pytest

import ehrtensor as et
from ehrtensor import ehrhart, polytopes
from ehrtensor.cli import main
from ehrtensor.polytopes import dilate_rows

from conftest import apply_linear_map, record_calls

STRETCHED = {
    3: [(0, 0, 0), (6, 0, 0), (0, 2, 0), (0, 0, 1), (5, 1, 1)],
    4: [(0, 0, 0, 0), (5, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (4, 1, 1, 1)],
    5: [(0, 0, 0, 0, 0), (4, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 1, 0),
        (0, 0, 0, 0, 1), (3, 1, 1, 1, 1)],
}


def frame_corpus(d):
    """Seeded polytopes of dimension d, and from d = 3 on one stretched along axis 0."""
    bound = 1 if d == 5 else 2
    corpus = [et.random_lattice_polytope(d, bound, d + 3, 5100 * d + k) for k in range(3)]
    if d in STRETCHED:
        corpus.append(et.convex_hull(STRETCHED[d]))
    return corpus


def in_given_order(p):
    """p with coordinate k moved to axis scan_order[k]'s place, scanned in
    that given order, and the matrix taking it back to p."""
    order = p.scan_order
    q = et.convex_hull([tuple(v[i] for i in order) for v in p.vertices])
    object.__setattr__(q, "scan_order", tuple(range(p.dim)))
    back = [[int(order[k] == i) for k in range(p.dim)] for i in range(p.dim)]
    return q, back


@pytest.mark.parametrize("d", range(2, 6))
def test_moments_and_h_vectors_push_back_from_the_permuted_polytope(d):
    corpus = frame_corpus(d)
    if d >= 3:
        assert any(p.scan_order != tuple(range(d)) for p in corpus)
    for p in corpus:
        q, back = in_given_order(p)
        for r in range(4):
            for n in range(4):
                want = apply_linear_map(et.discrete_moment(q, r, n), back)
                assert et.discrete_moment(p, r, n) == want, (p.vertices, r, n)
                if n:
                    want = apply_linear_map(et.discrete_moment_interior(q, r, n), back)
                    assert et.discrete_moment_interior(p, r, n) == want, (p.vertices, r, n)
            h = et.to_hr_vector(p, r)
            assert list(h.entries) == [apply_linear_map(t, back)
                                       for t in et.to_hr_vector(q, r).entries], (p.vertices, r)


@pytest.mark.parametrize("d", range(2, 6))
def test_point_lists_keep_lexicographic_order(d):
    for p in frame_corpus(d):
        for n in range(4):
            box = product(*(range(lo, hi + 1) for lo, hi in polytopes.dilate_bounds(p, n)))
            closed = [x for x in box if p.contains(x, n)]
            assert et.lattice_points(p, n) == closed, (p.vertices, n)
            if n:
                assert et.interior_lattice_points(p, n) == \
                    [x for x in closed if p.contains(x, n, strict=True)], (p.vertices, n)


@pytest.mark.parametrize("d", range(1, 6))
def test_zero_dilate_in_closed_form_matches_its_scan(d):
    for p in frame_corpus(d):
        rows = dilate_rows(et.convex_hull(p.vertices), 0)
        for r in range(5):
            scanned = ehrhart.row_moments(rows, r, d, order=p.scan_order)[r]
            assert ehrhart._moments(p, r, 0) == [tuple(side) for side in scanned], (p.vertices, r)
        assert p.dilates == {}


def test_no_route_scans_or_passes_over_the_zero_dilate(capsys, monkeypatch):
    corpus = [p for d in range(1, 6) for p in frame_corpus(d)[::2]]
    zero_rows = [list(dilate_rows(et.convex_hull(p.vertices), 0)) for p in corpus]
    scans = record_calls(monkeypatch, polytopes, "scan_rows")
    passes = record_calls(monkeypatch, ehrhart, "row_moments")
    for p in corpus:
        for r in range(3):
            et.to_hr_vector(p, r)
            et.discrete_moment(p, r, 0)
        if p.dim <= 4:
            request = '{"vertices": %s}' % [list(v) for v in p.vertices]
            assert main(["verify", request, "--json"]) == 0
            capsys.readouterr()
    assert scans and passes
    assert not any(all(b == (0, 0) for b in c["bounds"]) for c in scans)
    assert not any(list(c["rows"]) in zero_rows for c in passes)
