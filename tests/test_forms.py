import itertools
import math
import time

import numpy as np
import pytest

from extcalc import (
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
    tensor_product,
    wedge,
    wedge_definitional,
)

from extcalc import QuadratureRule, hat, verify_stokes
from extcalc import forms, rules
from oracles import form_value_by_expansion


def test_from_rows_canonicalizes_with_signs():
    K = kform_from_rows([(4, 2, 3), (1, 4, 2)], [1, 5])
    assert K.terms == {(2, 3, 4): 1.0, (1, 2, 4): -5.0}


def test_from_rows_drops_repeated_indices():
    assert not kform_from_rows([(1, 2, 1)], [7.0]).terms


def test_from_rows_cancellation():
    assert not kform_from_rows([(2, 1), (1, 2)], [1.0, 1.0]).terms


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
    # one-term 10-tensor: 10! permutations; two one-term 5-forms:
    # 120 x 120 product terms x 10! permutations, refused at once
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="alt on arity 10"):
        alt(KTensor(10, {tuple(range(1, 11)): 1.0}))
    five = KForm(5, {tuple(range(1, 6)): 1.0})
    with pytest.raises(ValueError, match="wedge_definitional on arity 10"):
        wedge_definitional(five, KForm(5, {tuple(range(6, 11)): 1.0}))
    assert time.perf_counter() - t0 < 1.0


def test_definitional_routes_settle_empty_and_oversized_forms_at_once():
    t0 = time.perf_counter()
    big = KForm(100000)
    # no term: nothing counted and no C(200000, 100000) scale factor taken
    empty = wedge_definitional(big, big)
    assert empty.arity == 200000 and not empty.terms
    assert not form_to_tensor(big).terms and form_to_tensor(big).arity == 100000
    assert not wedge_definitional(KForm(3, {(1, 2, 3): 1.0}), KForm(40)).terms
    # one term each, arity 22 > 20: refused without evaluating 22!
    one = KForm(11, {tuple(range(1, 12)): 1.0})
    with pytest.raises(ValueError) as refused:
        wedge_definitional(one, KForm(11, {tuple(range(12, 23)): 1.0}))
    assert str(refused.value) == (
        "wedge_definitional on arity 22: 22! permutations exceed the bound; refusing")
    with pytest.raises(ValueError, match="^form_to_tensor on arity 25: 25! permutations"):
        form_to_tensor(KForm(25, {tuple(range(1, 26)): 1.0}))
    assert time.perf_counter() - t0 < 1.0


def test_wedge_definitional_with_one_empty_operand_is_the_empty_product():
    # the empty side is seen before the other is expanded: 11! permutations of the
    # one-term side would exceed the bound
    one = KForm(11, {tuple(range(1, 12)): 1.0})
    for w, e in ((one, KForm(11)), (KForm(11), one)):
        product = wedge_definitional(w, e)
        assert product.arity == 22 and not product.terms


def test_wedge_definitional_agreement_small():
    rng = np.random.default_rng(12)
    for _ in range(20):
        k = int(rng.integers(1, 3))
        l = int(rng.integers(1, 5 - k))
        n = int(rng.integers(k + l, 6))
        a = rform(int(rng.integers(0, 2**63)), k, n, min(2, math.comb(n, k)))
        b = rform(int(rng.integers(0, 2**63)), l, n, min(2, math.comb(n, l)))
        assert wedge(a, b).equals(wedge_definitional(a, b), 1e-10)


def test_wedge_definitional_reads_off_then_scales_bitwise():
    # only the increasing keys of alt(w x e) are scaled by C(k+l, k), and each comes out
    # bitwise as when every key was scaled before the read-off; two 6-term 2-forms on R^7
    # keep 12 of 288 keys
    for seed, (k, l, n) in enumerate(((1, 1, 4), (2, 2, 7), (2, 3, 7), (1, 3, 6), (3, 2, 7))):
        w = rform(seed, k, n, min(6, math.comb(n, k))).scale(0.3)
        e = rform(seed + 50, l, n, min(6, math.comb(n, l))).scale(1 / 7)
        product = tensor_product(form_to_tensor(w), form_to_tensor(e))
        old = alternating_tensor_to_form(alt(product).scale(float(math.comb(k + l, k))))
        got = wedge_definitional(w, e)
        assert got.arity == k + l and len(got) > 0
        assert [(key, c.hex()) for key, c in got.items()] == [
            (key, c.hex()) for key, c in old.items()]


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


def test_pullback_by_the_identity_and_by_a_vector():
    w = kform_from_rows([(2, 4)], [3.0])
    assert pullback(w, np.eye(4)) == w
    # a vector where the matrix is expected is its one column
    assert pullback(KForm(1, {(1,): 2.0}), [3.0]).terms == {(1,): 6.0}


def test_enumeration_bound_is_checked_before_any_work(monkeypatch):
    # a one-term 10-form through eye(40) would take C(40, 10) = 847,660,528 minors
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="bound"):
        pullback(KForm(10, {tuple(range(1, 11)): 1.0}), np.eye(40))
    with pytest.raises(ValueError, match="bound"):
        kform_general(40, 10)
    assert time.perf_counter() - t0 < 1.0
    # exactly at the bound the work is done
    monkeypatch.setattr(rules, "MAX_ENUMERATION", 10)
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


# each count's message is formatted only when it refuses, to the same text as before
ENUMERATION_REFUSALS = {
    "pullback": (lambda: pullback(KForm(10, {tuple(range(1, 11)): 1.0}), np.eye(40)),
                 "pullback: 1 keys x C(40, 10) minors = 847660528"),
    "kform_general": (lambda: kform_general(40, 10), "kform_general: C(40, 10) subsets = 847660528"),
    "rform-steps": (lambda: rform(1, 1, 2**21, 1),
                    "rform: 1 keys x 2097152 unranking steps = 2097152"),
    "rform-bits": (lambda: rform(1, 150000, 300000, 1),
                   "rform: C(300000,150000) of up to 2850000 bits = 2850000"),
    "hat": (lambda: hat(1025), "hat(1025): 1025 keys x 1024 indices = 1049600"),
    "gauss_legendre": (lambda: QuadratureRule.gauss_legendre(1025, 1.0),
                       "gauss_legendre: m^2 = 1025^2 recurrence steps = 1050625"),
    "verify_stokes": (lambda: verify_stokes(6, 1.0, 11),
                      "verify_stokes: m^n = 11^6 volume nodes = 1771561"),
    "form_to_tensor": (lambda: form_to_tensor(kform_general(10, 8)),
                       "form_to_tensor on arity 8: 45 terms x 8! permutations = 1814400"),
    "wedge_definitional": (lambda: wedge_definitional(kform_general(8, 3), kform_general(6, 2)),
                           "wedge_definitional on arity 5: 10080 terms x 5! permutations"
                           " = 1209600"),
}


@pytest.mark.parametrize("call, what", ENUMERATION_REFUSALS.values(), ids=ENUMERATION_REFUSALS)
def test_enumeration_refusals_keep_their_text(call, what):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == f"{what} exceeds the bound 1048576; refusing"


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


def test_rform_deterministic_and_shaped():
    a = rform(1, 3, 7, 8)
    b = rform(1, 3, 7, 8)
    assert a == b
    assert a.arity == 3 and len(a) == 8 and a.dimension <= 7
    assert all(
        c == int(c) and 1 <= abs(c) <= 12 for c in a.terms.values()
    )
    assert rform(2, 3, 7, 8) != a


@pytest.mark.parametrize("args", [(1, 3, 7, -1), (1, 0, 5, 2), (1, 3, 0, 0), (1, -1, 5, 0)])
def test_rform_checks_its_ranges_before_counting_keys(args):
    with pytest.raises(ValueError, match="need k >= 1, n >= 1 and terms >= 0"):
        rform(*args)


def test_rform_distinct_keys_fill_full_space():
    w = rform(5, 2, 4, 6)
    assert set(w.terms) == set(itertools.combinations(range(1, 5), 2))


def test_rform_refuses_more_unranking_steps_than_the_bound_before_drawing():
    # one key on R^(2^21) would walk up to 2^21 math.comb steps
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="rform: 1 keys x 2097152 unranking steps"):
        rform(1, 1, 2**21, 1)
    assert time.perf_counter() - t0 < 0.1
    # at the bound it still draws
    assert len(rform(1, 1, rules.MAX_ENUMERATION, 1)) == 1


def test_rform_settles_no_terms_and_bounds_the_binomial_before_computing_it(monkeypatch):
    def no_comb(*args):
        raise AssertionError("math.comb ran")

    monkeypatch.setattr(math, "comb", no_comb)
    # no key is wanted: the empty form, without C(300000, 150000)
    empty = rform(1, 150000, 300000, 0)
    assert empty.arity == 150000 and not empty.terms
    # one key would need C(300000, 150000), up to 150000 * 19 bits: refused unbuilt
    with pytest.raises(ValueError, match=r"rform: C\(300000,150000\) of up to 2850000 bits"):
        rform(1, 150000, 300000, 1)
    monkeypatch.undo()
    # small binomials are computed as before
    assert len(rform(1, 3, 7, 8)) == 8


def test_evaluate_form_returns_a_value_at_the_float_limit():
    assert evaluate_form(KForm(1, {(1,): 1e308}), [1.0]) == 1e308


def _hex(x):
    # a result's exact bits: a float, or a form's (key, float.hex) items in order
    if isinstance(x, float):
        return x.hex()
    return [(key, c.hex()) for key, c in x.terms.items()]


def test_list_and_ndarray_inputs_give_bitwise_equal_results():
    # the list route never converts to numpy; every degree through 3 must agree bit for bit
    rng = np.random.default_rng(141)
    for k in range(4):
        for _ in range(5):
            n = int(rng.integers(max(k, 1), 7))
            w = rform(int(rng.integers(0, 2**63)), k, n, min(5, math.comb(n, k))) if k else (
                KForm(0, {(): float(rng.integers(-9, 10) or 1)}))
            M = rng.standard_normal((n, n))
            M[rng.random((n, n)) < 0.2] = 0.0
            E = M[:, :k]
            assert _hex(evaluate_form(w, E.tolist())) == _hex(evaluate_form(w, E))
            assert _hex(pullback(w, M.tolist())) == _hex(pullback(w, M))
            assert _hex(contract_matrix(w, E.tolist())) == _hex(contract_matrix(w, E))


def _wedge_pair_by_pair(w, e):
    # the wedge by merging each pair of keys: a shared index drops the pair, otherwise the
    # merged key is sorted and its sign counts the index pairs (i in ka, j in kb) with i > j;
    # sums accumulate per key in pair order (w's terms outside), exact zeros deleted
    acc = {}
    for ka, ca in w.terms.items():
        for kb, cb in e.terms.items():
            if set(ka) & set(kb):
                continue
            inversions = sum(1 for i in ka for j in kb if i > j)
            c = acc.get(tuple(sorted(ka + kb)), 0.0) + (-1 if inversions % 2 else 1) * ca * cb
            if c == 0.0:
                acc.pop(tuple(sorted(ka + kb)), None)
            else:
                acc[tuple(sorted(ka + kb))] = c
    return sorted(acc.items())


def test_wedge_matches_a_pair_by_pair_merge_bitwise():
    rng = np.random.default_rng(171)
    cases = [(KForm(0, {(): 2.5}), KForm(0, {(): -3.0})), (KForm(0, {(): 0.5}), rform(3, 2, 5, 4)),
             (KForm(2, {}), rform(4, 1, 5, 3)), (rform(5, 2, 6, 7), KForm(3, {})),
             (KForm(0, {}), KForm(0, {}))]
    for _ in range(300):
        n = int(rng.choice([4, 9, 70, 200]))
        k, l = (int(rng.integers(1, 4)) for _ in range(2))
        cases.append(tuple(KForm(arity, {tuple(sorted(rng.choice(np.arange(1, n + 1), arity,
                                                                   replace=False).tolist())):
                                          float(rng.choice([rng.integers(-9, 10) or 1,
                                                            rng.standard_normal()]))
                                          for _ in range(int(rng.integers(1, 8)))})
                           for arity in (k, l)))
    # indices 64 and up take more than one machine word of mask, and 10^12 would take 10^12
    # bits if masks were indexed by the index itself
    cases.append((KForm(2, {(3, 64): 1.5, (65, 10**12): -2.0}), KForm(2, {(1, 200): 3.0, (64, 99): 1.0})))
    cases.append((KForm(1, {(10**12,): 2.0}), KForm(1, {(1,): 1.0, (10**12 + 1,): 4.0})))
    for w, e in cases:
        for a, b in ((w, e), (e, w)):
            assert _hex(wedge(a, b)) == [(key, c.hex()) for key, c in _wedge_pair_by_pair(a, b)]
    assert wedge(KForm(1, {(10**12,): 2.0}), KForm(1, {(1,): 1.0})).terms == {(1, 10**12): -2.0}


def test_wedge_sums_each_key_in_the_left_keys_order_bitwise():
    # wedge runs e's keys outside, last first: each merged key must still sum its terms in w's
    # key order.  Seeded forms on few indices, so that keys collect 3 or more non-dyadic
    # terms, where another order rounds differently, as summing in e's key order does here
    rng = np.random.default_rng(231)
    most, reordered = 0, 0
    for _ in range(60):
        n = int(rng.integers(5, 8))
        k, l = (int(rng.integers(1, 4)) for _ in range(2))
        w, e = (KForm(arity, {tuple(sorted(rng.choice(np.arange(1, n + 1), arity,
                                                      replace=False).tolist())):
                              float(rng.uniform(-3.0, 3.0)) for _ in range(10)})
                for arity in (k, l))
        assert _hex(wedge(w, e)) == [(key, c.hex()) for key, c in _wedge_pair_by_pair(w, e)]
        counts = {}
        for ka in w.terms:
            for kb in e.terms:
                if not set(ka) & set(kb):
                    key = tuple(sorted(ka + kb))
                    counts[key] = counts.get(key, 0) + 1
        most = max(most, *counts.values(), 0)
        # the same pairs with e's terms outside, first first: w's keys then run descending
        flipped = [(key, -c) for key, c in _wedge_pair_by_pair(e, w)] if k * l % 2 else (
            _wedge_pair_by_pair(e, w))
        reordered += _hex(wedge(w, e)) != [(key, c.hex()) for key, c in flipped]
    assert most >= 3 and reordered > 0


@pytest.mark.parametrize("k", [4, 5, 6])
def test_pullback_from_4x4_up_refuses_an_overflowing_sum(k, tmp_path, capsys):
    # the minors' running sums are float64 rows: c * det overflowing to inf, or inf - inf
    # making NaN, must reach the storage kernel's refusal without a numpy warning, as the
    # Python-float sums of degree 3 and less do
    from extcalc.cli import main

    n = k + 1
    M = 10.0 * np.eye(n)
    upper = tuple(range(1, k + 1))
    with pytest.raises(ValueError, match="^cannot store the non-finite coefficient inf$"):
        pullback(KForm(k, {upper: 1e308}), M)
    M[k, :] = M[k - 1, :]  # rows k and k + 1 (1-based) are equal
    lower = tuple(range(1, k)) + (k + 1,)
    with pytest.raises(ValueError, match="^cannot store the non-finite coefficient nan$"):
        pullback(KForm(k, {upper: 1e308, lower: -1e308}), M)
    (tmp_path / "w").write_text(KForm(k, {upper: 1e308}).to_text())
    (tmp_path / "m").write_text("\n".join(" ".join(map(str, row))
                                          for row in 10 * np.eye(n, dtype=int)))
    capsys.readouterr()
    assert main(["pullback", str(tmp_path / "w"), str(tmp_path / "m")]) == 2
    assert capsys.readouterr() == ("", "error: cannot store the non-finite coefficient inf\n")
    # degree 3 on the same shapes refuses with the same message
    with pytest.raises(ValueError, match="^cannot store the non-finite coefficient inf$"):
        pullback(KForm(3, {(1, 2, 3): 1e308}), 10.0 * np.eye(4))


def test_pullback_and_evaluation_drop_a_target_whose_terms_cancel_across_keys():
    # two keys whose minors on a target are equal and whose coefficients are opposite: the
    # target's sum is exactly 0.0 and is dropped, through cofactors (k <= 3) and the stack (k >= 4)
    for k in (1, 2, 3, 4, 5):
        n = k + 1
        M = np.eye(n)
        M[k, :] = M[k - 1, :]  # rows k and k + 1 (1-based) are equal
        upper = tuple(range(1, k)) + (k,)
        lower = tuple(range(1, k)) + (k + 1,)
        w = KForm(k, {upper: 2.0, lower: -2.0})
        out = pullback(w, M)
        assert tuple(range(1, k + 1)) not in out.terms
        assert list(out.terms.items()) == _pullback_minor_by_minor(w, M)
        E = M[:, :k]
        assert _hex(evaluate_form(w, E)) == (0.0).hex() == _hex(_evaluate_minor_by_minor(w, E))
        if k == 1:
            continue
        # a third key keeps the targets alive, summed in key order
        w3 = KForm(k, {upper: 2.0, lower: -2.0, tuple(range(2, k + 2)): 0.5})
        assert list(pullback(w3, M).terms.items()) == _pullback_minor_by_minor(w3, M)
        assert _hex(evaluate_form(w3, E)) == _hex(_evaluate_minor_by_minor(w3, E))


def test_evaluate_form_stacks_the_minors_of_many_keys_in_few_determinant_calls(monkeypatch):
    # from 4x4 up, the minors of up to _TARGET_CHUNK (key, target) pairs go to one np.linalg.det
    calls = []
    dets = forms._dets
    monkeypatch.setattr(forms, "_dets", lambda A: calls.append(A.shape) or dets(A))
    w = rform(6, 4, 12, 400)
    E = np.random.default_rng(172).standard_normal((12, 4))
    assert _hex(evaluate_form(w, E)) == _hex(_evaluate_minor_by_minor(w, E))
    assert calls == [(400, 1, 4, 4)]
    calls.clear()
    monkeypatch.setattr(forms, "_TARGET_CHUNK", 7)
    M = np.random.default_rng(173).standard_normal((6, 6))
    w = rform(7, 4, 6, 5)
    assert list(pullback(w, M).terms.items()) == _pullback_minor_by_minor(w, M)
    # C(6, 4) = 15 targets in chunks of 7, 7 and 1; one key per call, then five
    assert calls == [(1, 7, 4, 4)] * 10 + [(5, 1, 4, 4)]


def _contract_skipping_zeros(w, v):
    # (dx_I)_v term by term, with no term at all for an exactly zero entry v[i]: each
    # remaining key's products summed in key order, then exact-zero sums dropped
    acc = {}
    for key, c in w.terms.items():
        for j, i in enumerate(key):
            if v[i - 1] != 0.0:
                rest = key[:j] + key[j + 1:]
                acc[rest] = acc.get(rest, 0.0) + (-v[i - 1] if j % 2 else v[i - 1]) * c
    return [(key, acc[key].hex()) for key in sorted(acc) if acc[key] != 0.0]


def test_contract_adds_zero_products_bitwise_as_a_loop_skipping_them():
    # a key that receives only zero products ends at 0.0 and is dropped
    assert contract(KForm(2, {(1, 2): 3.0}), [0.0, 5.0]).terms == {(1,): -15.0}
    assert not contract(KForm(2, {(1, 2): 3.0, (1, 3): -2.0}), [-0.0, 0.0, 0.0]).terms
    rng = np.random.default_rng(142)
    pool = np.array([0.0, -0.0, 0.0, 1.5, -2.0, 0.1, 0.2, -0.3, 7.0])
    only_zeros = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        w = rform(int(rng.integers(0, 2**63)), k, n, int(rng.integers(1, math.comb(n, k) + 1)))
        v = rng.choice(pool, size=n).tolist()
        got = _hex(contract(w, v))
        assert got == _contract_skipping_zeros(w, v)
        touched = {key[:j] + key[j + 1:] for key in w.terms for j in range(k)}
        only_zeros += len(touched) - len(got)
    assert only_zeros > 50


def _rform_by_rank_set(seed, k, n, terms):
    # the rform draw with a set of the ranks taken, each rank read off the lexicographic list
    # of k-subsets
    subsets = list(itertools.combinations(range(1, n + 1), k))
    g, seen, out = forms.SplitMix64(seed), set(), {}
    while len(out) < terms:
        r = g.next() % len(subsets)
        if r in seen:
            continue
        seen.add(r)
        v = g.next() % 24
        out[subsets[r]] = float(v - 12 if v < 12 else v - 11)
    return sorted(out.items())


def test_rform_matches_a_rank_set_reference_under_many_repeated_draws():
    for k, n, terms in ((2, 5, 10), (3, 5, 10), (1, 6, 6), (2, 6, 12), (4, 7, 35)):
        for seed in range(200):
            assert list(rform(seed, k, n, terms).terms.items()) == _rform_by_rank_set(
                seed, k, n, terms)


def test_symbolic_d_style_names_indices_by_the_supplied_symbols():
    assert symbolic(KForm(2, {(1, 3): 2.0}), style="d", symbols="abc") == "+2 da^dc"


def test_symbolic_letters_past_z_names_the_default_alphabet():
    # no symbols were supplied, so the refusal names the default a-z and the d style instead
    t = KTensor(2, {(1, 27): 3.0})
    with pytest.raises(ValueError) as exc:
        symbolic(t)
    assert str(exc.value) == (
        "index 27 has no letter (the default symbols a-z name 1-26); use --style d")
    assert symbolic(t, style="d") == "+3 dx1*dx27"
    assert symbolic(KTensor(1, {(26,): 1.0})) == "+ z"


def _unrank_by_double_comb(r, n, k):
    # the r-th k-subset of 1..n as it was unranked before: math.comb evaluated twice a step
    out = []
    x = 1
    for slots in range(k, 0, -1):
        while math.comb(n - x, slots - 1) <= r:
            r -= math.comb(n - x, slots - 1)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def _rform_step_by_step(seed, k, n, terms):
    # the rform draw as it was written before: g.next() looked up at each draw
    g, total, acc = forms.SplitMix64(seed), math.comb(n, k), {}
    while len(acc) < terms:
        r = g.next() % total
        if r in acc:
            continue
        v = g.next() % 24
        acc[r] = float(v - 12 if v < 12 else v - 11)
    return sorted((_unrank_by_double_comb(r, n, k), c) for r, c in acc.items())


def test_unranking_matches_the_double_comb_loop_on_every_rank():
    for n in range(1, 11):
        for k in range(1, n + 1):
            for r in range(math.comb(n, k)):
                assert forms._unrank_subset(r, n, k) == _unrank_by_double_comb(r, n, k)


def test_rform_matches_the_step_by_step_draw_over_many_seeds():
    for k, n, terms in ((1, 3, 2), (2, 7, 5), (3, 9, 30), (4, 12, 60), (6, 13, 100)):
        for seed in range(0, 2**64, 2**64 // 150 + 12345):
            assert list(rform(seed, k, n, terms).terms.items()) == _rform_step_by_step(
                seed, k, n, terms)
