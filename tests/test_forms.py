import itertools
import math
import time

import numpy as np
import pytest

from extcalc import (
    ArityError,
    DimensionError,
    KForm,
    KTensor,
    alt,
    alternating_tensor_to_form,
    contract,
    contract_matrix,
    elementary,
    evaluate_form,
    form_to_tensor,
    kform_from_rows,
    kform_general,
    pullback,
    rform,
    symbolic,
    wedge,
    wedge_definitional,
)

from extcalc import forms, sparse
from oracles import form_value_by_expansion


def test_from_rows_canonicalizes_with_signs():
    K = kform_from_rows([(4, 2, 3), (1, 4, 2)], [1, 5])
    assert K.terms == {(2, 3, 4): 1.0, (1, 2, 4): -5.0}


def test_from_rows_drops_repeated_indices():
    assert not kform_from_rows([(1, 2, 1)], [7.0]).terms


def test_from_rows_cancellation():
    assert not kform_from_rows([(2, 1), (1, 2)], [1.0, 1.0]).terms


def test_constructor_rejects_unsorted_keys():
    with pytest.raises(ValueError, match="strictly increasing"):
        KForm(2, {(2, 1): 1.0})
    with pytest.raises(ValueError, match="strictly increasing"):
        KForm(2, {(3, 3): 1.0})
    # every given key is checked, also one whose coefficient is zero or cancels
    for terms in ({(2, 1): 0.0}, [((2, 1), 1.0), ((2, 1), -1.0)], [((1, 2), 1.0), ((3, 3), 0.0)]):
        with pytest.raises(ValueError, match="strictly increasing"):
            KForm(2, terms)


def test_elementary_evaluation():
    dx3 = elementary(3)
    assert evaluate_form(dx3, np.array([14.0, 15.0, 16.0])) == 16.0
    combo = dx3 + elementary(5).scale(2.0)
    assert evaluate_form(combo, np.arange(1.0, 11.0)) == 13.0


def test_kform_general_colex_assignment():
    K = kform_general(4, 2, [1, 2, 3, 4, 5, 6])
    assert K.terms == {
        (1, 2): 1.0,
        (1, 3): 2.0,
        (2, 3): 3.0,
        (1, 4): 4.0,
        (2, 4): 5.0,
        (3, 4): 6.0,
    }
    # same content through an explicit index list
    assert kform_general([1, 2, 3, 4], 2, [1, 2, 3, 4, 5, 6]) == K


def test_kform_general_defaults_and_validation():
    K = kform_general(8, 2)
    assert len(K) == math.comb(8, 2)
    assert set(K.terms.values()) == {1.0}
    with pytest.raises(ValueError):
        kform_general(4, 2, [1.0])
    with pytest.raises(ValueError):
        kform_general([1, 1, 2], 2)


def test_evaluation_matches_signed_expansion_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, min(n, 4) + 1))
        w = rform(int(rng.integers(0, 2**63)), k, n, min(3, math.comb(n, k)))
        E = rng.standard_normal((n, k))
        want = form_value_by_expansion(w.terms, k, E)
        assert evaluate_form(w, E) == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_evaluation_vanishes_on_equal_columns():
    w = kform_general(5, 3)
    rng = np.random.default_rng(8)
    E = rng.standard_normal((5, 3))
    E[:, 2] = E[:, 0]
    assert evaluate_form(w, E) == pytest.approx(0.0, abs=1e-12)


def test_wedge_worked_example():
    K1 = kform_from_rows([(3, 5, 4), (4, 6, 1)], [2, 7])
    K2 = kform_from_rows([(1, 3), (2, 4), (3, 5), (4, 6), (5, 7)], [1, 2, 3, 4, 5])
    out = wedge(K1, K2)
    assert out.terms == {(1, 4, 5, 6, 7): -35.0, (1, 3, 4, 5, 6): -21.0}
    # operator spelling
    assert (K1 ^ K2) == out


def test_wedge_with_scalar_form_scales():
    w = kform_from_rows([(1, 3)], [2.0])
    c = KForm(0, {(): 5.0})
    assert wedge(c, w).terms == {(1, 3): 10.0}
    assert wedge(w, c).terms == {(1, 3): 10.0}
    assert wedge_definitional(c, KForm(0, {(): -2.0})).terms == {(): -10.0}


def test_wedge_self_is_zero_for_odd_degree():
    w = kform_from_rows([(1,), (3,)], [2.0, 5.0])
    assert not wedge(w, w).terms


def test_definitional_routes_refuse_large_arity_before_expanding():
    with pytest.raises(ValueError, match="form_to_tensor on arity 11"):
        form_to_tensor(KForm(11, {tuple(range(1, 12)): 1.0}))
    a = KForm(6, {tuple(range(1, 7)): 1.0})
    b = KForm(5, {tuple(range(7, 12)): 1.0})
    with pytest.raises(ValueError, match="wedge_definitional on arity 11"):
        wedge_definitional(a, b)
    # one-term 10-tensor: 10! permutations; two one-term 5-forms:
    # 120 x 120 product terms x 10! permutations, refused at once
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="alt on arity 10"):
        alt(KTensor(10, {tuple(range(1, 11)): 1.0}))
    five = KForm(5, {tuple(range(1, 6)): 1.0})
    with pytest.raises(ValueError, match="wedge_definitional on arity 10"):
        wedge_definitional(five, KForm(5, {tuple(range(6, 11)): 1.0}))
    assert time.perf_counter() - t0 < 1.0


def test_wedge_definitional_agreement_small():
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = int(rng.integers(1, 3))
        l = int(rng.integers(1, 5 - k))
        n = int(rng.integers(k + l, 6))
        a = rform(int(rng.integers(0, 2**63)), k, n, min(2, math.comb(n, k)))
        b = rform(int(rng.integers(0, 2**63)), l, n, min(2, math.comb(n, l)))
        assert wedge(a, b).equals(wedge_definitional(a, b), 1e-10)


def test_form_tensor_round_trip():
    w = kform_from_rows([(1, 3), (2, 4)], [2.0, -1.5])
    T = form_to_tensor(w)
    assert T.terms[(3, 1)] == -2.0
    assert alternating_tensor_to_form(T) == w


def test_associativity_triple_display_values():
    F1 = kform_from_rows([(3, 4, 5), (4, 6, 1), (3, 2, 1)])
    F2 = kform_from_rows([(1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 8)],
                         [1, 2, 3, 4, 5, 6])
    F3 = kform_general(8, 2)
    left = wedge(wedge(F1, F2), F3)
    right = wedge(F1, wedge(F2, F3))
    want = {
        (1, 2, 3, 4, 5, 7, 8): -5.0,
        (1, 3, 4, 5, 6, 7, 8): -2.0,
        (1, 2, 3, 5, 6, 7, 8): 11.0,
        (1, 2, 3, 4, 5, 6, 8): 1.0,
        (2, 3, 4, 5, 6, 7, 8): 6.0,
        (1, 2, 3, 4, 6, 7, 8): 2.0,
        (1, 2, 3, 4, 5, 6, 7): 1.0,
        (1, 2, 4, 5, 6, 7, 8): -5.0,
    }
    assert left.terms == want
    assert left == right
    assert not (left - right).terms


def test_contract_elementary_signs():
    w = kform_from_rows([(1, 2)], [1.0])
    assert contract(w, [0.0, 1.0]).terms == {(1,): -1.0}
    assert contract(w, [1.0, 0.0]).terms == {(2,): 1.0}


def test_contract_one_form_gives_scalar_form():
    w = kform_from_rows([(2,)], [3.0])
    out = contract(w, [0.0, 2.0])
    assert out.arity == 0
    assert out.terms == {(): 6.0}


def test_contract_errors():
    with pytest.raises(ArityError):
        contract(KForm(0, {(): 1.0}), [1.0])
    with pytest.raises(DimensionError):
        contract(kform_from_rows([(1, 5)], [1.0]), [1.0, 2.0])
    with pytest.raises(ArityError):
        contract_matrix(kform_from_rows([(1, 2)], [1.0]), np.eye(2)[:, [0, 1, 0]])


def test_full_contraction_equals_evaluation():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        k = int(rng.integers(1, min(n, 3) + 1))
        w = rform(int(rng.integers(0, 2**63)), k, n, min(4, math.comb(n, k)))
        V = rng.standard_normal((n, k))
        assert contract_matrix(w, V) == pytest.approx(
            evaluate_form(w, V), rel=1e-10, abs=1e-10
        )
        kept = contract_matrix(w, V, lose=False)
        assert kept.arity == 0


def test_stepwise_contraction_composes():
    rng = np.random.default_rng(22)
    w = rform(9, 3, 6, 4)
    V = rng.standard_normal((6, 3))
    step = contract(contract(w, V[:, 0]), V[:, 1])
    assert evaluate_form(step, V[:, 2:]) == pytest.approx(
        evaluate_form(w, V), rel=1e-10
    )


def test_pullback_worked_example_exact():
    w = kform_from_rows([(1, 2), (1, 3)], [1, 5])
    M = np.array([[1.0, 4.0, 7.0], [2.0, 5.0, 8.0], [3.0, 6.0, 9.0]])
    out = pullback(w, M)
    assert out.terms == {(1, 2): -33.0, (1, 3): -66.0, (2, 3): -33.0}


def test_pullback_identity_and_errors():
    w = kform_from_rows([(2, 4)], [3.0])
    assert pullback(w, np.eye(4)) == w
    with pytest.raises(ValueError):
        pullback(w, np.ones((3, 4)))
    with pytest.raises(DimensionError):
        pullback(w, np.eye(3))


def test_enumeration_bound_is_checked_before_any_work(monkeypatch):
    # a one-term 10-form through eye(40) would take C(40, 10) = 847,660,528 minors
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="bound"):
        pullback(KForm(10, {tuple(range(1, 11)): 1.0}), np.eye(40))
    with pytest.raises(ValueError, match="bound"):
        kform_general(40, 10)
    assert time.perf_counter() - t0 < 1.0
    # exactly at the bound the work is done
    monkeypatch.setattr(sparse, "MAX_ENUMERATION", 10)
    w = KForm(2, {(1, 2): 1.0})
    assert pullback(w, np.eye(5)) == w
    with pytest.raises(ValueError, match="bound"):
        pullback(w + KForm(2, {(3, 4): 1.0}), np.eye(5))
    assert len(kform_general(5, 2)) == len(kform_general(5, 3)) == 10
    with pytest.raises(ValueError, match="bound"):
        kform_general(6, 2)
    # alt and form_to_tensor: terms x k! permutations, 5 x 2! = 10
    five = {(i, i + 1): 1.0 for i in range(1, 6)}
    assert len(alt(KTensor(2, five))) == len(form_to_tensor(KForm(2, five))) == 10
    with pytest.raises(ValueError, match="bound"):
        alt(KTensor(2, {**five, (6, 7): 1.0}))
    with pytest.raises(ValueError, match="bound"):
        form_to_tensor(KForm(2, {**five, (6, 7): 1.0}))
    # wedge_definitional: its alt stage, (5 x 1!) (1 x 1!) terms x 2! = 10
    a = KForm(1, {(i,): 1.0 for i in range(1, 6)})
    b = KForm(1, {(6,): 1.0})
    assert wedge_definitional(a, b) == wedge(a, b)
    # just above the bound it refuses before its first stage
    monkeypatch.setattr(forms, "form_to_tensor", None)
    with pytest.raises(ValueError, match="bound"):
        wedge_definitional(a + KForm(1, {(7,): 1.0}), b)


def test_pullback_round_trip():
    w = kform_from_rows([(2, 4, 5)], [2.0])
    rng = np.random.default_rng(31)
    M = rng.standard_normal((5, 5))
    back = pullback(pullback(w, M), np.linalg.inv(M))
    assert back.zap(1e-8).equals(w, 1e-8)


def test_pullback_functoriality():
    rng = np.random.default_rng(32)
    w = rform(4, 2, 4, 3)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4))
    assert pullback(w, A @ B).equals(pullback(pullback(w, A), B), 1e-8)


def test_pullback_minor_agrees_with_expansion_oracle():
    # a pulled-back form evaluates like the original on mapped frames:
    # pullback(w, M)(E) == w(M @ E)
    rng = np.random.default_rng(33)
    w = rform(2, 2, 4, 3)
    M = rng.standard_normal((4, 4))
    E = rng.standard_normal((4, 2))
    lhs = evaluate_form(pullback(w, M), E)
    rhs = form_value_by_expansion(w.terms, 2, M @ E)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def _one_minor(A):
    # one determinant at a time: cofactors up to 3x3, LAPACK above
    m = A.shape[0]
    if m == 0:
        return 1.0
    if m == 1:
        return float(A[0, 0])
    if m == 2:
        return float(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    if m == 3:
        return float(
            A[0, 0] * (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1])
            - A[0, 1] * (A[1, 0] * A[2, 2] - A[1, 2] * A[2, 0])
            + A[0, 2] * (A[1, 0] * A[2, 1] - A[1, 1] * A[2, 0])
        )
    return float(np.linalg.det(A))


def _pullback_minor_by_minor(w, M):
    acc = {}
    for key, a in w.terms.items():
        rows = [i - 1 for i in key]
        for target in itertools.combinations(range(1, M.shape[0] + 1), w.arity):
            d = _one_minor(M[np.ix_(rows, [j - 1 for j in target])])
            if d != 0.0:
                c = acc.get(target, 0.0) + a * d
                if c == 0.0:
                    acc.pop(target, None)
                else:
                    acc[target] = c
    return sorted(acc.items())


def _evaluate_minor_by_minor(w, E):
    total = 0.0
    for key, c in w.terms.items():
        total += c * _one_minor(E[[i - 1 for i in key], :])
    return total


def test_stacked_minors_match_one_minor_at_a_time_bitwise():
    from extcalc import forms

    rng = np.random.default_rng(34)
    n = 8
    gauss = rng.standard_normal((n, n))
    ints = rng.integers(-4, 5, (n, n)).astype(float)
    deficient = gauss.copy()
    deficient[2, :] = 0.0
    deficient[:, 5] = 0.0
    cases = [(KForm(0, {(): 2.5}), M) for M in (gauss, ints)]
    for k in range(1, 7):
        w = rform(seed=40 + k, k=k, n=n, terms=min(6, math.comb(n, k)))
        cases += [(w, gauss), (w, ints), (w, deficient)]
    cases += [(KForm(k, {}), gauss) for k in (0, 2, 5)]
    # C(16, 5) targets span more than one chunk
    big = rform(seed=47, k=5, n=16, terms=3)
    assert math.comb(16, 5) > forms._TARGET_CHUNK
    cases.append((big, rng.standard_normal((16, 16))))
    for w, M in cases:
        got = pullback(w, M)
        assert list(got.terms.items()) == _pullback_minor_by_minor(w, M)
        E = M[:, : w.arity]
        assert evaluate_form(w, E) == _evaluate_minor_by_minor(w, E)
        if M is deficient:
            # every minor on zero column 6 is an exact zero, so dropped
            assert all(6 not in target for target in got.terms)


def test_symbolic_letters_style():
    from extcalc import ktensor_from_rows

    U = ktensor_from_rows([(1, 2), (2, 3), (3, 4), (4, 5)], [1, 2, 3, 4])
    assert symbolic(U) == "+ a*b +2 b*c +3 c*d +4 d*e"


def test_symbolic_d_style():
    K = kform_general(3, 2, [1, 2, 3])
    assert symbolic(K, style="d") == "+ dx1^dx2 +2 dx1^dx3 +3 dx2^dx3"
    assert symbolic(K, style="d-names") == symbolic(K, style="d")
    assert symbolic(K, style="d", symbols="wxyz") == "+ dw^dx +2 dw^dy +3 dx^dy"


def test_symbolic_signs_and_units():
    w = kform_from_rows([(1, 3, 7), (3, 5, 7), (1, 2, 7), (2, 5, 7)],
                        [1, -1, -5, 5])
    assert (
        symbolic(w, style="d")
        == "-5 dx1^dx2^dx7 + dx1^dx3^dx7 +5 dx2^dx5^dx7 - dx3^dx5^dx7"
    )
    assert symbolic(KForm(2)) == "0"
    assert symbolic(KForm(0, {(): -2.5})) == "- 2.5"


def test_symbolic_symbol_supply_errors():
    w = kform_from_rows([(1, 27)], [1.0])
    with pytest.raises(ValueError, match="symbols"):
        symbolic(w)
    with pytest.raises(ValueError):
        symbolic(w, style="shout")


def test_rform_deterministic_and_shaped():
    a = rform(1, 3, 7, 8)
    b = rform(1, 3, 7, 8)
    assert a == b
    assert a.arity == 3 and len(a) == 8 and a.dimension <= 7
    assert all(
        c == int(c) and 1 <= abs(c) <= 12 for c in a.terms.values()
    )
    assert rform(2, 3, 7, 8) != a
    with pytest.raises(ValueError):
        rform(1, 3, 7, math.comb(7, 3) + 1)


def test_rform_distinct_keys_fill_full_space():
    w = rform(5, 2, 4, 6)
    assert set(w.terms) == set(itertools.combinations(range(1, 5), 2))
