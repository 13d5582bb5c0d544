"""Symmetric tensor algebra: exactness, symmetry, diagonal evaluation."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehrtensor as et
from ehrtensor.tensors import (SymTensor, multi_indices, rational_from_str,
                               rational_to_str, tensor_from_json, tensor_to_json)

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
    assert et.apply_linear_map(et.outer_power(x, 2), phi) == et.outer_power(phix, 2)


def test_sym_product_polarization():
    u, w = (1, 2), (3, -1)
    uw = et.sym_product(et.outer_power(u, 1), et.outer_power(w, 1))
    expect = et.outer_power((4, 1), 2) - et.outer_power(u, 2) - et.outer_power(w, 2)
    assert uw * 2 == expect


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
    assert rational_from_str("7/3") == Fraction(7, 3)


@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_tensor_json_round_trip(rank):
    entries = [Fraction(k - 2, 3) for k in range(len(multi_indices(2, rank)))]
    t = SymTensor.from_entries(rank, 2, entries)
    assert tensor_from_json(tensor_to_json(t), rank, 2) == t
