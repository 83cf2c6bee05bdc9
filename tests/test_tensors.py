import itertools
import math
import random
import time

import numpy as np
import pytest

from extcalc import (
    DimensionError,
    KForm,
    KTensor,
    SparseMap,
    alt,
    evaluate_form,
    evaluate_tensor,
    form_to_tensor,
    ktensor_from_rows,
    perm_sign,
    tensor_product,
)

from extcalc.arrays import _finite_array
from oracles import dense_tensor_value


def example_tensor():
    # 1.5 phi5 x phi1 x phi1 x phi1 + 2.5 ... + 3.5 ...
    return ktensor_from_rows(
        [(5, 1, 1, 1), (1, 1, 2, 3), (1, 3, 4, 2)], [1.5, 2.5, 3.5]
    )


def test_from_rows_accumulates_duplicates():
    S = ktensor_from_rows([(1, 2), (1, 2), (2, 1)], [1.0, 2.0, 5.0])
    assert S.terms == {(1, 2): 3.0, (2, 1): 5.0}


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


def test_alt_settles_empty_and_oversized_inputs_before_any_factorial():
    t0 = time.perf_counter()
    # nothing to permute: the empty tensor at any arity, although 171! overflows a float
    for k in (171, 10**6):
        empty = alt(KTensor(k))
        assert empty.arity == k and not empty.terms
    # one term past 20!: refused without evaluating the count, so none is printed
    with pytest.raises(ValueError) as refused:
        alt(KTensor(10**4, {tuple(range(1, 10**4 + 1)): 1.0}))
    assert str(refused.value) == (
        "alt on arity 10000: 10000! permutations exceed the bound; refusing")
    assert time.perf_counter() - t0 < 1.0
    # at 20! the count is still evaluated and printed
    with pytest.raises(ValueError) as refused:
        alt(KTensor(20, {tuple(range(1, 21)): 1.0}))
    assert str(refused.value) == (
        "alt on arity 20: 1 terms x 20! permutations = 2432902008176640000"
        " exceeds the bound 1048576; refusing")


# key (1, 2) of a kform is dx1^dx2 = phi1 x phi2 - phi2 x phi1; read as
# phi1 x phi2, alt halved it, evaluation gave 0 where the form gives -1,
# and the tensor product dropped the (2, 1, 3) term
DX12 = KForm(2, {(1, 2): 1.0})
SWAP = [[0.0, 1.0], [1.0, 0.0]]
def test_tensor_routes_take_an_expanded_form_and_a_plain_map():
    T = form_to_tensor(DX12)
    assert alt(T) == T
    assert evaluate_tensor(T, SWAP) == evaluate_form(DX12, SWAP) == -1.0
    assert tensor_product(T, KTensor(1, {(3,): 1.0})).terms == {(1, 2, 3): 1.0, (2, 1, 3): -1.0}
    plain = SparseMap(2, {(1, 2): 1.0})
    assert alt(plain).terms == {(1, 2): 0.5, (2, 1): -0.5}
    assert evaluate_tensor(plain, SWAP) == 0.0
    assert tensor_product(KTensor(1, {(3,): 1.0}), plain).terms == {(3, 1, 2): 1.0}


def test_evaluate_tensor_returns_a_python_float():
    assert type(KTensor(1, {(1,): 2.0})([1.0])) is float
    # a 0-tensor or 0-form reads its empty frame and gives its constant
    zero = np.zeros((3, 0))
    assert evaluate_tensor(KTensor(0, {(): 2.0}), zero) == 2.0
    assert evaluate_form(KForm(0, {(): 2.0}), zero) == 2.0
    assert type(evaluate_tensor(example_tensor(), np.ones((5, 4)))) is float
    assert type(KForm(1, {(1,): 2.0})([1.0])) is float


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((3, 1, 2)) == 1
    assert perm_sign((1,)) == 1


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


def _gate_outcome(A, ndim, min_rows):
    try:
        return _finite_array(A, ndim, "frame", min_rows)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("A", [
    [], [[]], [[], []], [1.0, 2], (3, -4.5), [[1, 2], [3, 4]], [(1.0,), (2.0,)], 3.0, True,
    [[[1.0]]], [1, math.nan], [[1, math.inf], [0, 0]], [[-math.inf]],
])
def test_list_gate_reads_lists_as_numpy_would(A):
    # nested lists of Python numbers take the numpy-free path; values, shape and every
    # refusal equal those of the same entries given as a numpy array
    for ndim in (1, 2):
        for min_rows in (0, 2):
            got = _gate_outcome(A, ndim, min_rows)
            assert got == _gate_outcome(np.asarray(A, dtype=float), ndim, min_rows)


def test_list_gate_refuses_rows_of_unequal_length():
    with pytest.raises(DimensionError, match="frame has rows of unequal lengths"):
        _finite_array([[1.0, 2.0], [3.0]], 2, "frame")


def _expanded_term_by_term(S, fact=None):
    # the expansion as it was written before each permutation got one itemgetter: per term,
    # per permutation in itertools.permutations order, tuple(map(key.__getitem__, perm)) with
    # sign * c, then divided by fact where alt averages
    items = []
    for key, c in S.terms.items():
        for perm in itertools.permutations(range(S.arity)):
            signed = perm_sign([i + 1 for i in perm]) * c
            items.append((tuple(map(key.__getitem__, perm)),
                          signed if fact is None else signed / fact))
    return items


def _hexed(terms):
    return [(key, c.hex()) for key, c in terms]


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
def test_expansions_match_the_term_by_term_loop_bitwise(k):
    rng = random.Random(40 + k)
    for _ in range(30):
        n = rng.randint(max(k, 1), k + 3)
        keys = {tuple(sorted(rng.sample(range(1, n + 1), k))) for _ in range(rng.randint(1, 4))}
        w = KForm(k, {key: rng.uniform(-9.0, 9.0) for key in keys})
        want = KTensor._trusted(k, _expanded_term_by_term(w)).terms
        assert _hexed(form_to_tensor(w).terms.items()) == _hexed(want.items())
        if k == 0:
            continue
        # repeated indices too, and coefficients whose quotient by k! rounds
        T = KTensor(k, [(tuple(rng.randint(1, n) for _ in range(k)), rng.uniform(-9.0, 9.0))
                        for _ in range(rng.randint(1, 4))])
        want = KTensor._trusted(k, _expanded_term_by_term(T, float(math.factorial(k)))).terms
        assert _hexed(alt(T).terms.items()) == _hexed(want.items())


def _first_non_finite(values):
    # the refusal of the gate's old loop: _check_finite on each value in row-major order
    for v in itertools.chain.from_iterable(values if isinstance(values[0], list) else [values]):
        if not math.isfinite(v):
            return f"need a finite number, got {v}"
    return None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_gate_names_the_first_non_finite_value(bad, where):
    place = {"first": 0, "middle": 5, "last": 11}[where]
    flat = [float(i) + 0.5 for i in range(12)]
    flat[place] = bad
    # a second bad value after the first must not be the one named
    if place < 11:
        flat[11] = -bad if not math.isnan(bad) else math.inf
    for ndim, values in ((1, flat), (2, [flat[i:i + 3] for i in range(0, 12, 3)])):
        want = _first_non_finite(values)
        assert want == f"need a finite number, got {bad}"
        for given in (values, np.array(values)):
            with pytest.raises(ValueError) as refused:
                _finite_array(given, ndim, "frame")
            assert str(refused.value) == want
