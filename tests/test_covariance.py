"""Unimodular and translation covariance of moments and h-vectors.

Both sides of every property are computed from scratch: the library's
``lru_cache``s are cleared in between, so neither side replays moments the
other one stored.  The image polytopes are rebuilt by ``convex_hull`` from
the mapped vertices.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

import ehrtensor as et
from ehrtensor.tensors import dot

from conftest import apply_linear_map, translation_covariance_rhs


def unimodular_matrix(d: int, steps) -> list[list[int]]:
    """Product of elementary integer matrices: ``(i, j, k)`` adds k times row
    j to row i for i != j, and negates row i for i == j."""
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for i, j, k in steps:
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return m


@st.composite
def polytopes(draw):
    """Seeded random lattice polygons and 3-polytopes."""
    d = draw(st.integers(2, 3))
    return et.random_lattice_polytope(d, 2, d + 3, draw(st.integers(0, 10**6)))


@st.composite
def polytope_and_map(draw):
    p = draw(polytopes())
    steps = draw(st.lists(st.tuples(st.integers(0, p.dim - 1), st.integers(0, p.dim - 1),
                                    st.sampled_from((-1, 1))), min_size=1, max_size=4))
    return p, unimodular_matrix(p.dim, steps)


def _image(p: et.Polytope, m) -> et.Polytope:
    return et.convex_hull([tuple(dot(row, v) for row in m) for v in p.vertices])


@settings(max_examples=40, deadline=None)
@given(polytope_and_map())
def test_moments_and_h_vectors_push_forward_under_unimodular_maps(case):
    p, m = case
    q = _image(p, m)
    image = {r: (et.to_hr_vector(q, r).entries,
                 [et.discrete_moment(q, r, n) for n in (1, 2)]) for r in range(3)}
    assert p.dilates == {}      # p's side is computed, not read off q's
    for r, (h_image, moments_image) in image.items():
        assert [apply_linear_map(h, m) for h in et.to_hr_vector(p, r).entries] \
            == list(h_image), (m, r)
        assert [apply_linear_map(et.discrete_moment(p, r, n), m) for n in (1, 2)] \
            == moments_image, (m, r)


@settings(max_examples=40, deadline=None)
@given(polytopes(), st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_moments_of_translates_expand_binomially(p, shift):
    t = tuple(shift[:p.dim])
    q = et.convex_hull([tuple(x + c for x, c in zip(v, t)) for v in p.vertices])
    translated = {(r, n): et.discrete_moment(q, r, n) for r in range(3) for n in (1, 2)}
    assert p.dilates == {}      # p's side is computed, not read off q's
    for (r, n), moment in translated.items():
        assert moment == translation_covariance_rhs(p, r, n, t), (t, r, n)
