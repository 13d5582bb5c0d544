"""Definiteness classification, square certificates, scanners."""
import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehrtensor as et
from ehrtensor import polytopes, positivity
from ehrtensor.positivity import NotPositiveSemidefiniteError, _congruence, trial_seed

from conftest import NAMED_POLYGONS, fraction_congruence, leibniz_det, record_calls

F = Fraction


def mat(rows):
    return et.SymTensor.from_matrix(rows)


def test_classify_identity_positive_definite():
    rep = et.classify_definiteness(mat([[1, 0], [0, 1]]))
    assert rep.classification == "positive_definite"
    assert rep.witness is None


def test_classify_printed_negative_definite_coefficient():
    rep = et.classify_definiteness(mat([[F(-1, 12), F(-1, 8)], [F(-1, 8), F(-23, 12)]]))
    assert rep.classification == "negative_definite"
    assert rep.witness is not None
    t = mat([[F(-1, 12), F(-1, 8)], [F(-1, 8), F(-23, 12)]])
    assert t.apply(rep.witness) < 0


def test_classify_semidefinite_with_kernel():
    t = mat([[1, 1], [1, 1]])
    rep = et.classify_definiteness(t)
    assert rep.classification == "positive_semidefinite"
    assert rep.kernel is not None
    assert all(sum(t.to_matrix()[i][j] * rep.kernel[j] for j in range(2)) == 0
               for i in range(2))


def test_classify_zero_and_indefinite():
    assert et.classify_definiteness(et.SymTensor.zero(2, 2)).classification == "zero"
    rep = et.classify_definiteness(mat([[1, 0], [0, -1]]))
    assert rep.classification == "indefinite"
    assert rep.witness_value < 0


def test_classify_negative_semidefinite():
    rep = et.classify_definiteness(mat([[-1, 1], [1, -1]]))
    assert rep.classification == "negative_semidefinite"


def _principal_minor_class(matrix) -> str:
    """Oracle: the class from the elementary symmetric functions of the eigenvalues.

    e_k is the sum of the k x k principal minors; weakly alternating signs
    characterize positive semidefiniteness, strict ones definiteness.
    """
    d = len(matrix)
    if all(x == 0 for row in matrix for x in row):
        return "zero"
    es = [sum(leibniz_det([[matrix[i][j] for j in rows] for i in rows])
              for rows in combinations(range(d), k))
          for k in range(1, d + 1)]
    if all(e > 0 for e in es):
        return "positive_definite"
    if all(e >= 0 for e in es):
        return "positive_semidefinite"
    if all((e > 0 if k % 2 == 0 else e < 0) for k, e in enumerate(es, start=1)):
        return "negative_definite"
    if all((e >= 0 if k % 2 == 0 else e <= 0) for k, e in enumerate(es, start=1)):
        return "negative_semidefinite"
    return "indefinite"


@st.composite
def symmetric_matrices(draw):
    """Random symmetric integer matrices, d <= 5; rank-one sums make singular
    and semidefinite cases common."""
    d = draw(st.integers(1, 5))
    if draw(st.booleans()):
        upper = draw(st.lists(st.integers(-4, 4), min_size=d * d, max_size=d * d))
        return [[upper[min(i, j) * d + max(i, j)] for j in range(d)] for i in range(d)]
    terms = draw(st.lists(st.tuples(st.sampled_from((-1, 1, 2)),
                                    st.lists(st.integers(-3, 3), min_size=d, max_size=d)),
                          min_size=1, max_size=d))
    return [[sum(s * v[i] * v[j] for s, v in terms) for j in range(d)] for i in range(d)]


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices())
def test_inertia_class_matches_principal_minor_signs(m):
    t = mat(m)
    rep = et.classify_definiteness(t)
    assert rep.classification == _principal_minor_class(m)
    assert (rep.witness is None) == rep.is_psd
    if rep.witness is not None:
        assert rep.witness_value < 0
        assert t.apply(rep.witness) == rep.witness_value
    if rep.kernel is not None:
        assert t.apply(rep.kernel) == 0
        assert all(sum(row[j] * rep.kernel[j] for j in range(t.dim)) == 0 for row in m)


def _seeded_symmetric_matrices(seed: int, count: int):
    """Symmetric matrices with d = 1..6 and integer or Fraction entries, many
    with zero diagonals or an all-zero row."""
    rng = random.Random(seed)
    for k in range(count):
        d = 1 + k % 6
        m = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                v = rng.choice((0, rng.randint(-5, 5), F(rng.randint(-9, 9), rng.randint(1, 7))))
                m[i][j] = m[j][i] = 0 if i == j and k % 3 == 0 else v
        if k % 5 == 0:
            z = rng.randrange(d)
            for i in range(d):
                m[z][i] = m[i][z] = 0
        yield m


def fraction_report(m) -> et.DefinitenessReport:
    """The definiteness report read off :func:`fraction_congruence`: the class
    from the signs of its diagonal, the witness from its first negative column
    and the kernel from its first zero one."""
    if not any(any(row) for row in m):
        return et.DefinitenessReport("zero", kernel=tuple(F(int(i == 0)) for i in range(len(m))))
    diag, c = fraction_congruence(m)
    neg = next((k for k, v in enumerate(diag) if v < 0), None)
    null = next((k for k, v in enumerate(diag) if v == 0), None)
    if neg is None:
        cls = "positive_definite" if null is None else "positive_semidefinite"
    elif max(diag) <= 0:
        cls = "negative_definite" if null is None else "negative_semidefinite"
    else:
        cls = "indefinite"
    return et.DefinitenessReport(
        cls, witness=None if neg is None else tuple(row[neg] for row in c),
        witness_value=None if neg is None else diag[neg],
        kernel=None if null is None else tuple(row[null] for row in c))


def _assert_congruence_matches_oracle(m):
    # the integer core read in Q: D_kk = A_kk / (s_k^2 L) and C = X / s
    a, x, s, scale = _congruence(m)
    assert all(a[i][j] == 0 for i in range(len(m)) for j in range(len(m)) if i != j)
    diag = [F(a[k][k], s[k] * s[k] * scale) for k in range(len(m))]
    assert (diag, [[F(v, sk) for v, sk in zip(row, s)] for row in x]) == fraction_congruence(m)
    t = mat(m)
    # the class read in integers, field by field, with Fraction directions
    rep = et.classify_definiteness(t)
    assert rep == fraction_report(m)
    assert all(type(v) is F for v in (rep.witness or ()) + (rep.kernel or ()))
    if all(v >= 0 for v in diag):
        cert = et.sos_certificate(t)
        assert cert.reconstruct(t.dim) == t


def test_congruence_matches_fraction_oracle_on_seeded_matrices():
    for m in _seeded_symmetric_matrices(17, 600):
        _assert_congruence_matches_oracle(m)


def test_congruence_matches_fraction_oracle_on_the_d4_scan():
    # every h_i - h_1 the seed-42 d=4 hibi scan classifies, top index included
    polytopes = [et.random_lattice_polytope(4, 2, 8, trial_seed(42, trial))
                 for trial in range(96)]
    hs = [et.to_hr_vector(p, 2) for p in polytopes if et.interior_lattice_points(p, 1)]
    assert len(hs) == 93
    for h in hs:
        for i in range(1, 7):
            _assert_congruence_matches_oracle((h[i] - h[1]).to_matrix())


def _definite_matrices(seed: int, count: int):
    """Positive- and negative-definite matrices with d = 1..6 and integer or
    Fraction entries: a positive diagonal plus weighted squares, times +-1."""
    rng = random.Random(seed)
    for k in range(count):
        d = 1 + k % 6
        if k % 2:
            def weight():
                return rng.randint(1, 5)
        else:
            def weight():
                return F(rng.randint(1, 9), rng.randint(1, 7))
        m = [[weight() if i == j else 0 for j in range(d)] for i in range(d)]
        for _ in range(rng.randint(0, d)):
            w, v = weight(), [rng.randint(-3, 3) for _ in range(d)]
            m = [[m[i][j] + w * v[i] * v[j] for j in range(d)] for i in range(d)]
        sign = -1 if k % 4 >= 2 else 1
        yield [[sign * x for x in row] for row in m]


def test_definite_forms_never_reach_the_congruence(monkeypatch):
    # a definite form exits on its leading minors with the congruence's report
    calls = record_calls(monkeypatch, positivity, "_congruence")
    classes = set()
    for m in _definite_matrices(29, 600):
        rep = et.classify_definiteness(mat(m))
        assert rep == fraction_report(m)
        assert all(type(v) is F for v in (rep.witness or ()) + (rep.witness_value,)
                   if v is not None)
        classes.add(rep.classification)
    assert calls == []
    assert classes == {"positive_definite", "negative_definite"}


def test_the_d4_scan_runs_the_congruence_only_on_forms_that_are_not_definite(monkeypatch):
    # the seed-42 d=4 hibi scan classifies h_i - h_1, i = 1..6, per polytope
    # with an interior point; the zero and the definite forms exit first
    forms = []
    for trial in range(96):
        p = et.random_lattice_polytope(4, 2, 8, trial_seed(42, trial))
        if et.interior_lattice_points(p, 1):
            h = et.to_hr_vector(p, 2)
            forms += [(h[i] - h[1]).to_matrix() for i in range(1, 7)]
    rest = [m for m in forms if fraction_report(m).classification
            not in ("zero", "positive_definite", "negative_definite")]
    assert 0 < len(rest) < len(forms) // 4
    calls = record_calls(monkeypatch, positivity, "_congruence")
    et.conjecture_scan(4, 96, 2, 8, 42, "hibi")
    assert [c["matrix"] for c in calls] == rest


def test_a_wrong_witness_raises(monkeypatch):
    # both exits check their witness on the form: the congruence's column, here
    # doubled so that its value is four times A_kk, and the negative-definite e_0
    congruence = positivity._congruence

    def doubled_witness(matrix):
        a, x, s, scale = congruence(matrix)
        neg = next(k for k in range(len(a)) if a[k][k] < 0)
        return a, [[2 * v if j == neg else v for j, v in enumerate(row)] for row in x], s, scale

    monkeypatch.setattr(positivity, "_congruence", doubled_witness)
    with pytest.raises(AssertionError, match="witness value mismatch"):
        et.classify_definiteness(mat([[1, 2], [2, 1]]))
    with pytest.raises(AssertionError, match="witness value mismatch"):
        et.classify_definiteness(mat([[0, F(1, 2)], [F(1, 2), 0]]))
    monkeypatch.undo()
    apply = et.SymTensor.apply
    monkeypatch.setattr(et.SymTensor, "apply", lambda self, v: apply(self, v) + 1)
    assert et.classify_definiteness(mat([[2, 1], [1, 3]])).classification == "positive_definite"
    with pytest.raises(AssertionError, match="witness value mismatch"):
        et.classify_definiteness(mat([[-2, 1], [1, -3]]))


def _brute_force_sign_scan(t: et.SymTensor, bound: int = 10):
    """One-sided oracle: sample the form on an integer grid."""
    saw_neg = saw_pos = False
    d = t.dim
    for v in product(range(-bound, bound + 1), repeat=d):
        if all(c == 0 for c in v):
            continue
        val = t.apply(v)
        saw_neg |= val < 0
        saw_pos |= val > 0
    return saw_neg, saw_pos


def test_classification_consistent_with_sign_scan(corpus_polygons):
    # brute force can refute semidefiniteness, never confirm it
    for p in list(corpus_polygons.values())[:6]:
        for tensor in et.to_hr_vector(p, 2).entries:
            rep = et.classify_definiteness(tensor)
            saw_neg, saw_pos = _brute_force_sign_scan(tensor, bound=6)
            if rep.is_psd:
                assert not saw_neg
            if rep.classification in ("negative_definite", "negative_semidefinite"):
                assert not saw_pos
            if rep.classification == "indefinite":
                assert saw_neg and saw_pos


def test_sos_certificate_rank_one():
    cert = et.sos_certificate(mat([[1, 1], [1, 1]]))
    assert len(cert.terms) == 1
    lam, u = cert.terms[0]
    assert lam > 0
    assert cert.reconstruct(2) == mat([[1, 1], [1, 1]])


def test_sos_certificate_completing_the_square():
    t = mat([[2, 1], [1, 2]])
    cert = et.sos_certificate(t)
    assert cert.reconstruct(2) == t
    assert all(lam >= 0 for lam, _ in cert.terms)
    assert cert.terms[0] == (F(2), (F(1), F(1, 2)))


def test_sos_refuses_indefinite_with_witness():
    with pytest.raises(NotPositiveSemidefiniteError) as exc:
        et.sos_certificate(mat([[1, 0], [0, -1]]))
    t = mat([[1, 0], [0, -1]])
    assert t.apply(exc.value.witness) < 0


def _sos_pin_matrices(seed: int, count: int):
    """Symmetric matrices with d = 1..5 and integer or Fraction entries: every
    third one has independent random entries, so it is mostly indefinite; the
    others are positive sums of 1..d rank-one squares, PSD and often singular."""
    rng = random.Random(seed)
    for k in range(count):
        d = 1 + k % 5

        def entry(lo, hi):
            x = rng.randint(lo, hi)
            return F(x, rng.randint(1, 6)) if k % 2 else x

        if k % 3 == 0:
            m = [[0] * d for _ in range(d)]
            for i in range(d):
                for j in range(i, d):
                    m[i][j] = m[j][i] = entry(-6, 6)
        else:
            vectors = [[entry(-3, 3) for _ in range(d)] for _ in range(rng.randint(1, d))]
            weights = [entry(1, 4) for _ in vectors]
            m = [[sum(w * v[i] * v[j] for w, v in zip(weights, vectors)) for j in range(d)]
                 for i in range(d)]
        yield m


def test_sos_certificate_outputs_are_pinned():
    # the repr of every certificate's terms, or of every refusal's witness and
    # value, types included, over 3,000 seeded matrices
    lines, refused = [], 0
    for m in _sos_pin_matrices(2017, 3000):
        try:
            lines.append(repr(et.sos_certificate(mat(m)).terms))
        except NotPositiveSemidefiniteError as exc:
            lines.append(repr(("refused", exc.witness, exc.value)))
            refused += 1
    assert refused == 863
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "405aeb3baceac44aabc5c93a863887bb7aef444c49bae69c8dfa436777a90caf"


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_sos_on_gram_matrices(rows):
    # A^t A is always PSD; certificate must reconstruct it exactly
    gram = [[sum(rows[k][i] * rows[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    t = mat(gram)
    cert = et.sos_certificate(t)
    assert all(lam >= 0 for lam, _ in cert.terms)
    assert cert.reconstruct(2) == t


def test_three_point_triangle_square_identity():
    # unimodular triangles: second h-entry is the square of the vertex sum
    rng = random.Random(3)
    checked = 0
    while checked < 40:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        if a * d - b * c not in (-1, 1):
            continue
        t = (rng.randint(-5, 5), rng.randint(-5, 5))
        verts = [t, (t[0] + a, t[1] + b), (t[0] + c, t[1] + d)]
        p = et.convex_hull(verts)
        h = et.to_hr_vector(p, 2)
        vsum = tuple(sum(v[i] for v in verts) for i in range(2))
        assert h[2] == et.outer_power(vsum, 2)
        checked += 1


def _random_unimodular_2x2(rng):
    m = [[1, 0], [0, 1]]
    for _ in range(6):
        k = rng.randint(-2, 2)
        m = [[m[0][0] + k * m[1][0], m[0][1] + k * m[1][1]], [m[1][0], m[1][1]]]
        m.reverse()
    return m


def _affine_image(verts, m, t):
    return [(m[0][0] * x + m[0][1] * y + t[0], m[1][0] * x + m[1][1] * y + t[1])
            for x, y in verts]


def test_four_point_classes_square_identities():
    # the three four-point polygon types and their displayed square forms
    rng = random.Random(9)
    reps = {
        "interior_point": [(-1, 0), (0, -1), (1, 1), (0, 0)],
        "parallelogram": [(0, 0), (1, 0), (1, 1), (0, 1)],
        "edge_midpoint": [(-1, 0), (0, 0), (1, 0), (0, 1)],
    }
    for _ in range(12):
        m = _random_unimodular_2x2(rng)
        t = (rng.randint(-4, 4), rng.randint(-4, 4))

        v1, v2, v3, v4 = _affine_image(reps["interior_point"], m, t)
        p = et.convex_hull([v1, v2, v3, v4])
        assert len(et.lattice_points(p, 1)) == 4
        h2 = et.to_hr_vector(p, 2)[2]
        s = tuple(v1[i] + v2[i] + v3[i] for i in range(2))
        expected = (et.outer_power((v1[0] + v2[0], v1[1] + v2[1]), 2)
                    + et.outer_power((v1[0] + v3[0], v1[1] + v3[1]), 2)
                    + et.outer_power((v2[0] + v3[0], v2[1] + v3[1]), 2)
                    + et.outer_power(s, 2) * F(8, 9))
        assert h2 == expected

        v1, v2, v3, v4 = _affine_image(reps["parallelogram"], m, t)
        p = et.convex_hull([v1, v2, v3, v4])
        assert len(et.lattice_points(p, 1)) == 4
        h2 = et.to_hr_vector(p, 2)[2]
        total = tuple(v1[i] + v2[i] + v3[i] + v4[i] for i in range(2))
        half = F(1, 2)
        expected = (et.outer_power(total, 2) * half
                    + et.outer_power((v1[0] + v2[0], v1[1] + v2[1]), 2) * half
                    + et.outer_power((v2[0] + v3[0], v2[1] + v3[1]), 2) * half
                    + et.outer_power((v3[0] + v4[0], v3[1] + v4[1]), 2) * half
                    + et.outer_power((v1[0] + v4[0], v1[1] + v4[1]), 2) * half)
        assert h2 == expected

        v1, v2, v3, v4 = _affine_image(reps["edge_midpoint"], m, t)
        p = et.convex_hull([v1, v2, v3, v4])
        assert len(et.lattice_points(p, 1)) == 4
        h2 = et.to_hr_vector(p, 2)[2]
        s = tuple(v1[i] + v3[i] + v4[i] for i in range(2))
        expected = (et.outer_power(s, 2) * F(3, 2) + et.outer_power(v1, 2)
                    + et.outer_power(v3, 2) + et.outer_power(v4, 2) * half)
        assert h2 == expected


def test_check_h2_psd_examples(corpus_polygons):
    tri = et.convex_hull(NAMED_POLYGONS["unit_triangle"])
    reps = et.check_h2_psd(tri)
    assert [r.classification for r in reps] == \
        ["zero", "positive_definite", "positive_semidefinite", "zero", "zero"]
    neg = et.convex_hull(NAMED_POLYGONS["neg_def_triangle"])
    assert all(r.is_psd for r in et.check_h2_psd(neg))
    for p in corpus_polygons.values():
        assert all(r.is_psd for r in et.check_h2_psd(p))


def test_check_ehrhart_psd_examples():
    neg = et.convex_hull(NAMED_POLYGONS["neg_def_triangle"])
    reps = et.check_ehrhart_psd(neg)
    assert reps[1].classification == "negative_definite"
    ind = et.convex_hull(NAMED_POLYGONS["indef_triangle"])
    assert et.check_ehrhart_psd(ind)[1].classification == "indefinite"
    sq = et.convex_hull(NAMED_POLYGONS["unit_square"])
    assert all(r.is_psd for r in et.check_ehrhart_psd(sq))


def test_psd_checks_take_a_polytope_or_its_rank2_h(corpus_polygons, random_3polytopes):
    # a caller that holds the rank-2 h gets the reports that the polytope gives
    for p in [*corpus_polygons.values(), *random_3polytopes]:
        h = et.to_hr_vector(p, 2)
        assert et.check_h2_psd(h) == et.check_h2_psd(p)
        assert et.check_ehrhart_psd(h) == et.check_ehrhart_psd(p)
    neg = et.to_hr_vector(et.convex_hull(NAMED_POLYGONS["neg_def_triangle"]), 2)
    assert et.check_ehrhart_psd(neg)[1].classification == "negative_definite"


def test_halfopen_non_monotonicity_reproduced():
    s = et.HalfOpenSimplex.make([(2, -2), (3, -2), (2, -1)], [0])
    h = et.hr_halfopen(s, 2)
    rep = et.classify_definiteness(h[2])
    assert not rep.is_psd
    assert rep.classification == "indefinite"
    translate = et.HalfOpenSimplex.make([(0, 0), (1, 0), (0, 1)], [0])
    ht = et.hr_halfopen(translate, 2)
    assert all(et.classify_definiteness(e).is_psd for e in ht.entries)


def test_palindromic_examples():
    sym = et.convex_hull(NAMED_POLYGONS["sym_square"])
    h0 = et.to_hr_vector(sym, 0)
    assert [e.as_scalar() for e in h0.entries] == [1, 6, 1]
    assert et.palindromic(h0)
    tri = et.convex_hull(NAMED_POLYGONS["unit_triangle"])
    assert not et.palindromic(et.to_hr_vector(tri, 2))
    zero = et.HrVector(tuple(et.SymTensor.zero(2, 2) for _ in range(5)))
    assert et.palindromic(zero)


@pytest.mark.parametrize("d", [3, 4])
def test_generalized_hibi_theorem_on_cross_polytopes(d):
    # conv(+-e_i) has every facet at distance 1 from the origin, so it is
    # reflexive and its h of ranks 0, 2 and 4 are palindromic; its 2x dilate
    # keeps the origin inside with every facet at distance 2, and none of
    # those h is palindromic.  The biconditional holds on both.
    units = [tuple(s * (i == j) for j in range(d)) for i in range(d) for s in (1, -1)]
    cross = et.convex_hull(units)
    double = et.convex_hull([tuple(2 * x for x in u) for u in units])
    for p, reflexive in ((cross, True), (double, False)):
        assert all(f.rhs >= 1 for f in p.facets)
        assert et.is_reflexive(p) is reflexive
        for r, h in zip((0, 2, 4), et.hr_vectors(p, (0, 2, 4))):
            assert et.palindromic(h) is reflexive, (d, reflexive, r)
            assert et.reflexivity_palindromicity_check(p, r), (d, reflexive, r)


def test_reflexivity_palindromicity_named_cases():
    assert et.reflexivity_palindromicity_check(
        et.convex_hull(NAMED_POLYGONS["sym_square"]), 2)
    assert et.reflexivity_palindromicity_check(
        et.convex_hull(NAMED_POLYGONS["reflexive_triangle"]), 2)
    assert et.reflexivity_palindromicity_check(
        et.convex_hull(NAMED_POLYGONS["dilated_reflexive_triangle"]), 2)


def test_reflexivity_check_requires_interior_origin_and_even_rank():
    tri = et.convex_hull(NAMED_POLYGONS["unit_triangle"])
    with pytest.raises(ValueError):
        et.reflexivity_palindromicity_check(tri, 2)
    sym = et.convex_hull(NAMED_POLYGONS["sym_square"])
    with pytest.raises(ValueError):
        et.reflexivity_palindromicity_check(sym, 1)


def test_scan_reproducible_and_clean():
    a = et.conjecture_scan(2, 8, 4, 6, seed=21, which="psd")
    b = et.conjecture_scan(2, 8, 4, 6, seed=21, which="psd")
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)
    assert a == b
    assert not a.violations  # polygons: semidefiniteness is a theorem
    assert a.completed == 8


def test_scan_hibi_skips_and_last_index():
    rep = et.conjecture_scan(3, 6, 2, 6, seed=5, which="hibi")
    assert rep.completed + rep.skipped_no_interior == 6
    assert not rep.violations
    # the top entry is interior-minus-full, a negative boundary sum: the
    # conjectured range genuinely must stop below it
    assert rep.violations_last_index or rep.completed == 0


def test_hibi_scan_reads_interior_emptiness_off_the_rows(monkeypatch):
    # the hibi scan tests the interior of 1P for emptiness on the rows of
    # dilate 1 and builds no point list; the skips are those polytopes whose
    # interior point list is empty
    expected = sum(not et.interior_lattice_points(
        et.random_lattice_polytope(4, 2, 8, trial_seed(3, k)), 1) for k in range(20))
    assert 0 < expected < 20

    def refuse(*args):
        raise AssertionError("the scan built a point list")

    monkeypatch.setattr(polytopes, "_points", refuse)
    rep = et.conjecture_scan(4, 20, 2, 8, seed=3, which="hibi")
    assert rep.skipped_no_interior == expected
    assert rep.completed == 20 - expected


def centroid_point_is_interior(p) -> bool:
    """Whether the lattice point nearest P's vertex centroid, ties rounded up, is inside P."""
    centroid = [Fraction(sum(column), len(p.vertices)) for column in zip(*p.vertices)]
    return p.contains([math.floor(c + Fraction(1, 2)) for c in centroid], strict=True)


def test_a_centroid_point_inside_spares_the_scan_of_p(monkeypatch):
    # the 120 trials of a seed-1 scan-d4 run of bench/ (60 items, two d = 4 hibi
    # trials each, bound 2, 8 generators): a trial whose centroid point is
    # interior scans 2P alone and reads P off its rows; any other one scans P
    # to decide, and 2P after it when it has an interior point.  The skips are
    # the polytopes with no interior lattice point, as the rows of P tell.
    rng = random.Random("scan-d4/1")
    seeds = [rng.getrandbits(63) for _ in range(60)]
    trials = []     # per trial: its polytope, scans, reads of P by the test, h derived
    build = positivity.random_lattice_polytope

    def built(*args):
        trials.append([build(*args), 0, 0, 0])
        return trials[-1][0]

    def counted(index, fn):
        def call(*args):
            trials[-1][index] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(positivity, "random_lattice_polytope", built)
    monkeypatch.setattr(polytopes, "scan_rows", counted(1, polytopes.scan_rows))
    monkeypatch.setattr(positivity, "dilate_rows", counted(2, positivity.dilate_rows))
    monkeypatch.setattr(positivity, "to_hr_vector", counted(3, positivity.to_hr_vector))
    skipped = sum(et.conjecture_scan(4, 2, 2, 8, seed, "hibi").skipped_no_interior
                  for seed in seeds)
    monkeypatch.undo()
    kinds = []
    for p, scans, reads, derived in trials:
        certified = centroid_point_is_interior(p)
        interior = bool(et.interior_lattice_points(et.convex_hull(p.vertices), 1))
        expected = (1, 0, 1) if certified else (1 + interior, 1, interior)
        assert (scans, reads, derived) == expected, p.vertices
        kinds.append((certified, interior))
    assert (len(trials), skipped) == (120, 1)
    assert [kinds.count(kind) for kind in [(True, True), (False, True), (False, False)]] \
        == [100, 19, 1]


def test_the_interior_test_meets_far_translates_in_integers():
    # the centroid point of a translate by 10^400 is rounded in integers, with
    # no float to overflow; a centroid point outside falls back to the rows
    cases = [((0, 0), (1, 0), (0, 1)), ((-2, 0), (-1, -1), (0, 0), (1, 2)),
             ((0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)),
             ((-1, 0, 2), (-1, 2, 2), (0, 2, -1), (1, 2, -2), (2, -2, 1)),
             ((0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))]
    seen = []
    for vertices in cases:
        p = et.convex_hull(vertices)
        far = p.translate((10**400,) * p.dim)
        interior = bool(et.interior_lattice_points(p, 1))
        assert positivity._has_interior_point(far) is interior, vertices
        seen.append((centroid_point_is_interior(far), interior))
    assert seen == [(False, False), (False, True), (True, True), (False, True), (False, False)]


SCAN_PIN_CASES = [(1, 6, 3, 2, 0), (1, 5, 1, 3, 7), (2, 10, 3, 6, 1), (2, 8, 1, 4, 5),
                  (3, 8, 2, 6, 2), (3, 6, 1, 5, 9), (4, 6, 2, 8, 0), (4, 5, 1, 6, 4),
                  (4, 96, 2, 8, 42)]


def test_scan_outputs_are_pinned():
    # the canonical JSON of both families on d = 1..4, the seed-42 d=4 finding
    # included, and the refusal of an unknown family
    lines, reports = [], []
    for which in ("psd", "hibi"):
        for d, trials, bound, gens, seed in SCAN_PIN_CASES:
            rep = et.conjecture_scan(d, trials, bound, gens, seed, which)
            reports.append(rep)
            lines.append(json.dumps(rep.to_json(), sort_keys=True))
    with pytest.raises(ValueError) as exc:
        et.conjecture_scan(2, 1, 2, 4, 0, "nope")
    lines.append(str(exc.value))
    hibi = [rep for rep in reports if rep.which == "hibi"]
    assert sum(rep.skipped_no_interior for rep in hibi) == 24
    assert sum(len(rep.violations_last_index) for rep in hibi) == 126
    assert [(v.trial, v.index) for v in hibi[-1].violations] == [(95, 5)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "d986becbcac3ced0834404bab232f28f54869a31c3cbf008e63eac6abb382ce1"


# (d, trials, bound, gens, seed) of hibi scans that skip most of their trials
# (78, 71 and 55), so the test for an interior point decides most of the report
SKIP_HEAVY_CASES = [(2, 100, 1, 4, 4), (3, 100, 1, 6, 2), (4, 60, 1, 6, 1)]


def test_skip_heavy_hibi_scans_are_pinned():
    reports = [et.conjecture_scan(*case, "hibi") for case in SKIP_HEAVY_CASES]
    assert [rep.skipped_no_interior for rep in reports] == [78, 71, 55]
    lines = [json.dumps(rep.to_json(), sort_keys=True) for rep in reports]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "b1bc3f81647dfffb97eec675e4731e8101fe5f81a04e6fc3f593bb174c2ccc04"


def test_a_family_added_to_the_table_runs_through_the_scan(monkeypatch):
    # a third family, the negated entries on polytopes with an interior point
    # and the top index past the range, needs no edit beyond its table entry
    monkeypatch.setitem(positivity.SCAN_FAMILIES, "negated", (
        True, lambda h, d: [(i, -h[i], i == d + 2) for i in range(len(h))]))
    rep = et.conjecture_scan(2, 10, 3, 6, seed=1, which="negated")
    assert (rep.which, rep.completed, rep.skipped_no_interior) == ("negated", 8, 2)
    expected, expected_last = [], []
    for trial in range(10):
        p = et.random_lattice_polytope(2, 3, 6, trial_seed(1, trial))
        if not et.interior_lattice_points(p, 1):
            continue
        for i, entry in enumerate(et.to_hr_vector(p, 2).entries):
            cls = et.classify_definiteness(-entry)
            if not cls.is_psd:
                (expected_last if i == 4 else expected).append((trial, i, cls.classification))
    assert [(v.trial, v.index, v.classification) for v in rep.violations] == expected
    assert [(v.trial, v.index, v.classification) for v in rep.violations_last_index] == \
        expected_last
    assert expected and expected_last


def test_trial_seed_stable():
    assert trial_seed(42, 0) == trial_seed(42, 0)
    assert trial_seed(42, 0) != trial_seed(42, 1)
    assert trial_seed(42, 0) != trial_seed(43, 0)


def test_difference_inequality_counterexample_is_frozen():
    # a 4-polytope with an interior lattice point whose h_5 - h_1 is
    # indefinite: the difference inequality fails at index dim+1 (found by
    # the seeded scanner, verified against independent enumeration)
    verts = [(-2, 0, -2, -2), (-2, 0, 0, 0), (-2, 0, 1, 0), (-1, 0, 0, 2),
             (0, 0, -1, -1), (0, 1, -1, -2), (0, 1, 1, 1), (1, 2, 0, -1)]
    p = et.convex_hull(verts)
    assert et.interior_lattice_points(p, 1) == [(0, 1, 0, 0)]
    h = et.to_hr_vector(p, 2)
    diff = h[5] - h[1]
    rep = et.classify_definiteness(diff)
    assert rep.classification == "indefinite"
    assert diff.apply((-8, -7, 0, 0)) == -5
    assert diff.apply((-8, -8, -8, 0)) == 640
    # all earlier differences stay PSD for this polytope
    for i in range(1, 5):
        assert et.classify_definiteness(h[i] - h[1]).is_psd
