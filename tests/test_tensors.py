import numpy as np
import pytest

from extcalc import (
    ArityError,
    DimensionError,
    KTensor,
    alt,
    evaluate_tensor,
    ktensor_from_rows,
    perm_sign,
    tensor_product,
)

from oracles import dense_tensor_value


def example_tensor():
    # 1.5 phi5 x phi1 x phi1 x phi1 + 2.5 ... + 3.5 ...
    return ktensor_from_rows(
        [(5, 1, 1, 1), (1, 1, 2, 3), (1, 3, 4, 2)], [1.5, 2.5, 3.5]
    )


def test_from_rows_accumulates_duplicates():
    S = ktensor_from_rows([(1, 2), (1, 2), (2, 1)], [1.0, 2.0, 5.0])
    assert S.terms == {(1, 2): 3.0, (2, 1): 5.0}


def test_from_rows_validation():
    with pytest.raises(ValueError):
        ktensor_from_rows([])
    with pytest.raises(ArityError):
        ktensor_from_rows([(1, 2), (1, 2, 3)])
    with pytest.raises(ValueError):
        ktensor_from_rows([(1, 2)], [1.0, 2.0])


def test_linear_combination_display_values():
    S = example_tensor()
    S1 = ktensor_from_rows(
        [(2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2)], [1, 2, 3, 4]
    )
    out = S.scale(2.0) + S1.scale(-3.0)
    assert out.terms == {
        (5, 1, 1, 1): 3.0,
        (1, 1, 2, 3): 5.0,
        (1, 3, 4, 2): 7.0,
        (2, 1, 1, 1): -3.0,
        (1, 2, 1, 1): -6.0,
        (1, 1, 2, 1): -9.0,
        (1, 1, 1, 2): -12.0,
    }


def test_evaluation_matches_dense_contraction():
    S = example_tensor()
    rng = np.random.default_rng(42)
    for _ in range(25):
        E = rng.standard_normal((5, 4))
        want = dense_tensor_value(S.terms, S.arity, E)
        got = evaluate_tensor(S, E)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_extra_frame_rows_are_ignored():
    S = ktensor_from_rows([(1, 2)], [2.0])
    E = np.arange(1.0, 7.0).reshape(3, 2)
    E9 = np.vstack([E, np.full((4, 2), 99.0)])
    assert evaluate_tensor(S, E) == evaluate_tensor(S, E9)


def test_frame_shape_errors():
    S = ktensor_from_rows([(1, 3)], [1.0])
    with pytest.raises(DimensionError):
        evaluate_tensor(S, np.ones((2, 2)))  # rows below implied dimension
    with pytest.raises(DimensionError):
        evaluate_tensor(S, np.ones((3, 3)))  # wrong column count
    with pytest.raises(DimensionError):
        evaluate_tensor(S, np.ones((2, 2, 2)))


def test_one_form_accepts_plain_vector():
    S = ktensor_from_rows([(3,)], [1.0])
    assert evaluate_tensor(S, np.array([14.0, 15.0, 16.0])) == 16.0
    assert S(np.array([14.0, 15.0, 16.0])) == 16.0
    # a 0-tensor is its constant on any frame
    assert evaluate_tensor(KTensor(0, {(): 2.5}), np.zeros((3, 0))) == 2.5
    assert evaluate_tensor(KTensor(0), np.zeros((3, 0))) == 0.0


def test_tensor_product_terms():
    S1 = ktensor_from_rows([(1, 2), (2, 3), (3, 4)], [1, 2, 3])
    S2 = ktensor_from_rows([(1, 3, 5), (2, 4, 6)])
    P = tensor_product(S1, S2)
    assert P.terms == {
        (1, 2, 1, 3, 5): 1.0,
        (1, 2, 2, 4, 6): 1.0,
        (2, 3, 1, 3, 5): 2.0,
        (2, 3, 2, 4, 6): 2.0,
        (3, 4, 1, 3, 5): 3.0,
        (3, 4, 2, 4, 6): 3.0,
    }


def test_tensor_product_evaluation_factorizes():
    S1 = ktensor_from_rows([(1, 2), (2, 3), (3, 4)], [1, 2, 3])
    S2 = ktensor_from_rows([(1, 3, 5), (2, 4, 6)])
    rng = np.random.default_rng(3)
    for _ in range(10):
        E = rng.standard_normal((6, 5))
        lhs = evaluate_tensor(tensor_product(S1, S2), E)
        rhs = evaluate_tensor(S1, E[:, :2]) * evaluate_tensor(S2, E[:, 2:])
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_tensor_product_with_zero_is_empty():
    S = example_tensor()
    assert not tensor_product(S, KTensor(2)).terms


def test_alt_of_two_form_tensor():
    S1 = ktensor_from_rows([(1, 2), (2, 3), (3, 4)], [1, 2, 3])
    assert alt(S1).terms == {
        (1, 2): 0.5,
        (2, 1): -0.5,
        (2, 3): 1.0,
        (3, 2): -1.0,
        (3, 4): 1.5,
        (4, 3): -1.5,
    }


def test_alt_kills_repeated_indices():
    assert not alt(ktensor_from_rows([(1, 1)], [3.0])).terms


def test_alt_idempotent_small():
    T = ktensor_from_rows([(1, 2, 3), (2, 2, 1), (3, 1, 2)], [1.0, -2.0, 0.5])
    a1 = alt(T)
    assert alt(a1).equals(a1, 1e-15)


def test_alt_guards():
    with pytest.raises(ArityError):
        alt(KTensor(0, {(): 1.0}))
    with pytest.raises(ValueError, match="permutations"):
        alt(KTensor(11, {tuple(range(1, 12)): 1.0}))


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((3, 1, 2)) == 1
    assert perm_sign((1,)) == 1
    with pytest.raises(ValueError):
        perm_sign((1, 1, 2))
    with pytest.raises(ValueError):
        perm_sign((0, 1))


def test_multilinearity_in_one_column():
    S = example_tensor()
    rng = np.random.default_rng(11)
    E = rng.standard_normal((5, 4))
    u, v = rng.standard_normal((2, 5))
    for col in range(4):
        Eu, Ev, Emix = E.copy(), E.copy(), E.copy()
        Eu[:, col] = u
        Ev[:, col] = v
        Emix[:, col] = 2.0 * u - 3.0 * v
        lhs = evaluate_tensor(S, Emix)
        rhs = 2.0 * evaluate_tensor(S, Eu) - 3.0 * evaluate_tensor(S, Ev)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_not_linear_in_whole_frame():
    # joint scaling of every column is degree-k, not linear
    S = example_tensor()
    rng = np.random.default_rng(2)
    E1, E2 = rng.standard_normal((2, 5, 4))
    lhs = evaluate_tensor(S, 2.0 * E1 + 1.0 * E2)
    rhs = 2.0 * evaluate_tensor(S, E1) + 1.0 * evaluate_tensor(S, E2)
    assert abs(lhs - rhs) > 1e-3
