"""Symmetric tensor algebra: exactness, symmetry, diagonal evaluation."""
import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehrtensor as et
from ehrtensor import tensors
from ehrtensor.tensors import (SymTensor, _index_position, _moment_entries, dot, moment_of_points,
                               multi_indices, rational_to_str, tensor_to_json)

from conftest import apply_linear_map

small_ints = st.integers(min_value=-9, max_value=9)


def test_outer_power_square():
    t = et.outer_power((1, 2), 2)
    assert t.to_matrix() == ((1, 2), (2, 4))


def test_outer_power_rank_zero_is_one():
    t = et.outer_power((5, -3), 0)
    assert t.as_scalar() == 1


def test_outer_power_zero_vector():
    t = et.outer_power((0, 0), 3)
    assert t.is_zero


def test_tensor_apply_identity_form():
    t = SymTensor.from_matrix([[1, 0], [0, 1]])
    assert t.apply((3, 4)) == 25


def test_tensor_apply_rank_one_square_kernel():
    t = SymTensor.from_matrix([[1, 1], [1, 1]])
    assert t.apply((1, -1)) == 0


def test_tensor_apply_outer_power_diagonal():
    # (x.v)^2 with x = (1,2), v = (2,1): 4^2 = 16
    t = et.outer_power((1, 2), 2)
    assert t.apply((2, 1)) == 16


def test_linear_ops():
    a = SymTensor.from_matrix([[1, 0], [0, 1]])
    b = SymTensor.from_matrix([[1, 1], [1, 1]])
    assert (a + b).to_matrix() == ((2, 1), (1, 2))
    assert (a - a).is_zero
    half = et.outer_power((1, 2), 2) * Fraction(1, 2)
    assert half.to_matrix() == ((Fraction(1, 2), 1), (1, 2))


def test_rank_dim_mismatch_raises():
    a = SymTensor.zero(2, 2)
    b = SymTensor.zero(1, 2)
    c = SymTensor.zero(2, 3)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a + c
    with pytest.raises(ValueError):
        a.apply((1, 2, 3))


def test_dot_of_unequal_lengths_raises_as_a_strict_zip():
    for x, y in (((1, 2, 3), (4, 5)), ((1, 2), (3, 4, 5)), ((), (1,)), ((Fraction(1, 2),), ())):
        with pytest.raises(ValueError) as want:
            list(zip(x, y, strict=True))
        with pytest.raises(ValueError) as got:
            dot(x, y)
        assert str(got.value) == str(want.value)
    assert dot((1, 2, 3), (4, 5, 6)) == 32 and dot((), ()) == 0
    assert dot((Fraction(1, 2), 3), (4, Fraction(1, 3))) == 3


def test_entry_access_any_permutation():
    t = et.outer_power((2, 3, 5), 3)
    assert t.get((0, 1, 2)) == t.get((2, 1, 0)) == t.get((1, 2, 0)) == 30


@settings(max_examples=60, deadline=None)
@given(st.lists(small_ints, min_size=2, max_size=3), st.integers(0, 4),
       st.lists(st.fractions(max_denominator=7), min_size=2, max_size=3))
def test_diagonal_evaluation_is_dot_power(x, r, v):
    d = min(len(x), len(v))
    x, v = tuple(x[:d]), tuple(v[:d])
    t = et.outer_power(x, r)
    dotxv = sum(a * b for a, b in zip(x, v))
    assert t.apply(v) == dotxv ** r


@settings(max_examples=40, deadline=None)
@given(st.lists(small_ints, min_size=2, max_size=2), st.integers(0, 3),
       st.sampled_from([[[1, 0], [0, 1]], [[2, 1], [1, 1]], [[1, 3], [0, 1]],
                        [[0, -1], [1, 0]], [[5, 2], [2, 1]]]),
       st.lists(st.fractions(max_denominator=5), min_size=2, max_size=2))
def test_unimodular_pullback(x, r, phi, v):
    # evaluating the power of phi(x) on v matches x on phi^t(v)
    phix = tuple(sum(phi[i][j] * x[j] for j in range(2)) for i in range(2))
    phitv = tuple(sum(phi[j][i] * v[j] for j in range(2)) for i in range(2))
    lhs = et.outer_power(phix, r).apply(v)
    rhs = et.outer_power(x, r).apply(phitv)
    assert lhs == rhs


def test_apply_linear_map_matches_mapped_power():
    phi = [[2, 1], [1, 1]]
    x = (3, -4)
    phix = (2 * 3 - 4, 3 - 4)
    assert apply_linear_map(et.outer_power(x, 2), phi) == et.outer_power(phix, 2)


def test_sym_product_polarization():
    u, w = (1, 2), (3, -1)
    uw = et.sym_product(et.outer_power(u, 1), et.outer_power(w, 1))
    expect = et.outer_power((4, 1), 2) - et.outer_power(u, 2) - et.outer_power(w, 2)
    assert uw == expect


def test_sym_product_scalar_case():
    s = SymTensor.scalar(2, Fraction(3, 2))
    t = et.outer_power((1, 1), 2)
    assert et.sym_product(s, t) == t * Fraction(3, 2)


def test_tensor_polynomial_evaluation():
    c0 = SymTensor.scalar(2, 1)
    c1 = SymTensor.scalar(2, 2)
    c2 = SymTensor.scalar(2, 1)
    poly = et.TensorPolynomial((c0, c1, c2))
    assert poly.evaluate(3).as_scalar() == 16
    assert poly.evaluate(-1).as_scalar() == 0


def test_rational_strings_reduced():
    assert rational_to_str(Fraction(2, 4)) == "1/2"
    assert rational_to_str(Fraction(-6, 3)) == "-2"


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_tensor_json_round_trip(rank):
    # read the layout back by hand: a bare string at rank 0, a symmetric
    # matrix at rank 2, otherwise a map keyed by comma-joined sorted indices
    idx = multi_indices(2, rank)
    entries = [Fraction(k - 2, 3) for k in range(len(idx))]
    data = tensor_to_json(SymTensor.from_entries(rank, 2, entries))
    if rank == 0:
        back = [data]
    elif rank == 2:
        back = [data[i][j] for i, j in idx] + [data[j][i] for i, j in idx]
        entries = entries * 2
    else:
        back = [data[",".join(map(str, m))] for m in idx]
    assert [Fraction(x) for x in back] == entries
    # an integral entry prints alike whether it is stored as int or Fraction
    ints = [k - 2 for k in range(len(idx))]
    assert tensor_to_json(SymTensor.from_entries(rank, 2, ints)) == \
        tensor_to_json(SymTensor.from_entries(rank, 2, map(Fraction, ints)))


def all_int(t: SymTensor) -> bool:
    return all(type(e) is int for e in t.entries)


def test_integer_tensors_stay_int():
    p = et.convex_hull([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    for r in range(4):
        assert all_int(et.discrete_moment(p, r, 2))
        assert all(all_int(e) for e in et.to_hr_vector(p, r).entries)
        assert all_int(moment_of_points([(1, -2, 3), (0, 4, -1)], r, 3))
        assert all_int(moment_of_points([], r, 3))
        assert all_int(et.outer_power((3, -1), r))
        assert all_int(et.sym_product(et.outer_power((3, -1), r), et.outer_power((2, 5), 2)))
    for s in (et.HalfOpenSimplex.make([(2, -2), (3, -2), (2, -1)], [0]),
              et.HalfOpenSimplex.make([(0, 0, 0, 0), (2, 0, 0, 1), (0, 3, 0, 0),
                                       (1, 1, 2, 0), (0, 1, 1, 3)], [1, 3])):
        for r in range(3):
            assert all(all_int(e) for e in et.hr_halfopen(s, r).entries)


def test_moment_of_points_edge_cases():
    assert moment_of_points([], 0, 2).as_scalar() == 0
    assert moment_of_points([], 2, 2).is_zero
    assert moment_of_points([(1, 2), (3, 4), (0, 0)], 0, 2).as_scalar() == 3
    assert et.outer_power((), 0).as_scalar() == 1
    assert moment_of_points([(1, 2), (3, 4)], 2, 2) == \
        et.outer_power((1, 2), 2) + et.outer_power((3, 4), 2)
    with pytest.raises(ValueError):
        et.outer_power((1, 2), -1)


def test_moment_entries_of_every_rank_match_direct_products():
    rng = random.Random(21)
    for dim in range(1, 6):
        for count in (0, 1, 7):
            points = [tuple(rng.randint(-9, 9) for _ in range(dim)) for _ in range(count)]
            ranks = _moment_entries(points, 4, dim)
            assert len(ranks) == 5
            for k, entries in enumerate(ranks):
                assert entries == [sum(math.prod(x[i] for i in m) for x in points)
                                   for m in multi_indices(dim, k)], (dim, count, k)


def test_inexact_entries_are_refused():
    with pytest.raises(TypeError):
        SymTensor.from_entries(1, 2, [1, 0.5])
    with pytest.raises(TypeError):
        SymTensor.scalar(2, True)
    with pytest.raises(TypeError):
        SymTensor.from_map(2, 2, {(0, 1): False})
    with pytest.raises(TypeError):
        et.outer_power((1, 2), 2) * 0.5
    with pytest.raises(TypeError):
        et.outer_power((1.0, 2), 1)


def test_an_inexact_refusal_names_each_offending_type_once():
    with pytest.raises(TypeError, match="^tensor entries must be int or Fraction, got bool, float$"):
        SymTensor.from_entries(1, 4, [0.5, True, Fraction(1, 2), 2.5])
    with pytest.raises(TypeError, match="^direction entries must be int or Fraction, got float$"):
        et.outer_power((1, 2, 3), 2).apply((1, 0.5, 1.5))
    assert SymTensor.from_entries(1, 3, [1, Fraction(1, 2), 0]).entries[1] == Fraction(1, 2)


def test_apply_refuses_inexact_directions():
    t = et.outer_power((1, 2), 2)
    with pytest.raises(TypeError):
        t.apply((0.5, 1))
    with pytest.raises(TypeError):
        t.apply((True, 1))
    with pytest.raises(TypeError):
        SymTensor.scalar(2, 3).apply((1.0, 0))


def test_apply_takes_int_and_fraction_directions():
    t = et.outer_power((1, 2), 2)
    assert t.apply((3, -1)) == 1
    assert t.apply((Fraction(1, 2), 1)) == Fraction(25, 4)
    assert type(t.apply((3, -1))) is int


vectors = st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.lists(small_ints, min_size=d, max_size=d),
                        st.lists(small_ints, min_size=d, max_size=d)))


@settings(max_examples=60, deadline=None)
@given(vectors)
def test_sym_product_of_vectors_is_polarization(uw):
    u, w = uw
    s = et.sym_product(et.outer_power(u, 1), et.outer_power(w, 1))
    assert s == et.outer_power([a + b for a, b in zip(u, w)], 2) \
        - et.outer_power(u, 2) - et.outer_power(w, 2)
    assert et.sym_product(et.outer_power(u, 1), et.outer_power(u, 1)) == et.outer_power(u, 2) * 2


def normalized_product(words, dim: int) -> SymTensor:
    """Symmetrization of ``w_1 (x) ... (x) w_r``: the mean over the r! slot orders."""
    r = len(words)
    return SymTensor.from_entries(r, dim, [
        Fraction(sum(math.prod(w[i] for w, i in zip(perm, m)) for perm in permutations(words)),
                 math.factorial(r))
        for m in multi_indices(dim, r)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 4), st.data())
def test_chain_of_vertex_powers_carries_the_multinomial(dim, r, data):
    points = data.draw(st.lists(st.lists(small_ints, min_size=dim, max_size=dim),
                                min_size=1, max_size=3))
    cuts = sorted(data.draw(st.lists(st.integers(0, r), min_size=len(points) - 1,
                                     max_size=len(points) - 1)))
    ks = [b - a for a, b in zip([0] + cuts, cuts + [r])]
    chain = SymTensor.scalar(dim, 1)
    multinomial = math.factorial(r)
    for x, k in zip(points, ks):
        chain = et.sym_product(chain, et.outer_power(x, k))
        multinomial //= math.factorial(k)
    words = [x for x, k in zip(points, ks) for _ in range(k)]
    assert chain == normalized_product(words, dim) * multinomial
    assert all_int(chain)


def split_loop_sym_product(a: SymTensor, b: SymTensor) -> SymTensor:
    """Unnormalized symmetric product by looping over the C(r, r_a) slot splits
    of every output index and looking each factor entry up by its key."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    d, ra, rb = a.dim, a.rank, b.rank
    r = ra + rb
    apos, bpos = _index_position(d, ra), _index_position(d, rb)
    splits = [(sel, [i for i in range(r) if i not in sel])
              for sel in combinations(range(r), ra)]
    return SymTensor(r, d, tuple(
        sum(a.entries[apos[tuple(m[i] for i in left)]]
            * b.entries[bpos[tuple(m[i] for i in right)]] for left, right in splits)
        for m in multi_indices(d, r)))


def test_sym_product_matches_split_loop_oracle():
    rng = random.Random(12)
    for dim in range(1, 6):
        for ra in range(5):
            for rb in range(5):
                for entry in (lambda: rng.randint(-9, 9),
                              lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))):
                    a, b = (SymTensor(k, dim, tuple(entry() for _ in multi_indices(dim, k)))
                            for k in (ra, rb))
                    got = et.sym_product(a, b)
                    assert got == split_loop_sym_product(a, b), (dim, ra, rb)
                    assert got == et.sym_product(b, a)


def test_sym_product_refuses_mixed_dimensions():
    for ra, rb in ((0, 0), (0, 2), (1, 0), (2, 1)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            et.sym_product(SymTensor.zero(ra, 2), SymTensor.zero(rb, 3))


def reference_product_plan(dim, ra, rb):
    """The slot splits of :func:`tensors._product_plan` by the earlier comprehension."""
    apos, bpos, r = _index_position(dim, ra), _index_position(dim, rb), ra + rb
    return tuple(tuple((apos[tuple(m[i] for i in sel)],
                        bpos[tuple(m[i] for i in range(r) if i not in sel)])
                       for sel in combinations(range(r), ra))
                 for m in multi_indices(dim, r))


def test_product_plan_matches_the_reference_comprehension():
    for dim in range(1, 7):
        for ra in range(5):
            for rb in range(5):
                assert tensors._product_plan(dim, ra, rb) == \
                    reference_product_plan(dim, ra, rb), (dim, ra, rb)


def test_entry_count_is_the_number_of_multi_indices():
    for dim in range(8):
        for rank in range(7):
            assert tensors.entry_count(dim, rank) == len(multi_indices(dim, rank)), (dim, rank)
    for dim in range(3):
        with pytest.raises(ValueError):
            tensors.entry_count(dim, -1)
