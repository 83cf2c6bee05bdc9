import math
import random

import numpy as np
import pytest

from extcalc import ArityError, KForm, KTensor, SparseMap
from extcalc import sparse
from extcalc.sparse import format_coefficient


def test_insert_accumulate_and_exact_cancellation():
    m = SparseMap(2, {(1, 3): 1.0})
    m = m.insert_accumulate((2, 4), 109.0)
    m = m.insert_accumulate((1, 3), -1.0)
    m = m.insert_accumulate((7, 8), 5.0)
    m = m.insert_accumulate((2, 4), 4.0)
    assert m.terms == {(2, 4): 113.0, (7, 8): 5.0}


def test_addition_merges_and_cancels():
    a = SparseMap(2, {(1, 3): 1.0, (2, 4): 109.0})
    b = SparseMap(2, {(1, 3): -1.0, (7, 8): 5.0, (2, 4): 4.0})
    assert (a + b).terms == {(2, 4): 113.0, (7, 8): 5.0}
    assert (-b).terms == {(1, 3): 1.0, (2, 4): -4.0, (7, 8): -5.0}
    # mixed types: the left operand's type decides, and a KForm checks the map's keys
    w = KForm(2, {(1, 3): 1.0})
    assert type(w + b) is KForm and (w + b).terms == {(2, 4): 4.0, (7, 8): 5.0}
    assert type(b + w) is SparseMap and (b + w).terms == (w + b).terms
    assert type(-w) is KForm and (-w).terms == {(1, 3): -1.0}
    with pytest.raises(ValueError, match="strictly increasing"):
        w + SparseMap(2, {(3, 1): 1.0})


def test_a_form_plus_a_tensor_is_refused():
    # dx1^dx2 = phi1 (x) phi2 - phi2 (x) phi1: neither type may read the other's keys
    w, T = KForm(2, {(1, 2): 1.0}), KTensor(2, {(1, 2): 1.0})
    for f in (lambda: w + T, lambda: T + w, lambda: w - T, lambda: T - w):
        with pytest.raises(TypeError, match="cannot add a k"):
            f()


def test_add_requires_matching_arity():
    with pytest.raises(ArityError):
        SparseMap(2, {(1, 2): 1.0}) + SparseMap(3, {(1, 2, 3): 1.0})


def test_self_cancellation_is_exact():
    a = SparseMap(3, {(5, 1, 1): 1.5, (2, 2, 2): -0.3})
    assert not (a + a.scale(-1.0)).terms


def test_scale():
    a = SparseMap(4, {(5, 1, 1, 1): 1.5})
    assert a.scale(2.0).terms == {(5, 1, 1, 1): 3.0}
    assert not a.scale(0.0).terms
    assert (2 * a).terms == (a * 2).terms == a.scale(2).terms


def test_construction_accumulates_pairs_and_drops_zeros():
    m = SparseMap(1, [((2,), 1.0), ((2,), -1.0), ((3,), 0.0), ((1,), 4.0)])
    assert m.terms == {(1,): 4.0}


def test_key_validation():
    with pytest.raises(ArityError):
        SparseMap(2, {(1, 2, 3): 1.0})
    with pytest.raises(ValueError):
        SparseMap(1, {(0,): 1.0})
    with pytest.raises(ValueError):
        SparseMap(1, {(-2,): 1.0})


def test_truthiness_is_having_terms():
    for cls in (KForm, KTensor):
        assert not cls(2) and not cls(0)
        assert cls(2, {(1, 2): -0.5}) and cls(0, {(): 3.0})
        assert not cls(1, {(1,): 2.0}).scale(0.0)


def test_lexicographic_iteration_any_insertion_order():
    pairs = [((2, 1), 5.0), ((1, 10), 1.0), ((1, 2), 2.0), ((2, 3), 3.0)]
    forward = SparseMap(2, pairs)
    backward = SparseMap(2, list(reversed(pairs)))
    want = [(1, 2), (1, 10), (2, 1), (2, 3)]
    assert list(forward.terms) == list(backward.terms) == want


def test_dimension_is_largest_index():
    assert SparseMap(2, {(1, 7): 1.0, (3, 2): 1.0}).dimension == 7
    assert SparseMap(2).dimension == 0


def test_zap_drops_at_or_below_tol():
    m = SparseMap(1, {(1,): 5e-12, (2,): 2e-11})
    assert m.zap(1e-11).terms == {(2,): 2e-11}
    assert not SparseMap(1, {(1,): 5e-12}).zap().terms
    assert m.zap(0.0).terms == m.terms


def test_equals_tolerance_and_empty_rule():
    a = SparseMap(2, {(1, 2): 1.0})
    b = SparseMap(2, {(1, 2): 1.0 + 5e-12})
    assert a.equals(a, 0.0)
    assert a.equals(b)
    assert not a.equals(b, 1e-13)
    assert a == a
    assert a != b
    # an empty map is the zero map whatever its recorded arity
    assert SparseMap(2).equals(SparseMap(5))
    assert SparseMap(2) == SparseMap(5)
    assert SparseMap(5).equals(SparseMap(2, {(1, 1): 1e-13}))
    assert not SparseMap(5).equals(SparseMap(2, {(1, 1): 1.0}))
    assert not a.equals(SparseMap(3, {(1, 2, 3): 1.0}))


def test_coefficient_formatting():
    assert format_coefficient(113.0) == "113"
    assert format_coefficient(-5.0) == "-5"
    assert format_coefficient(0.1) == "0.1"
    # round trip within 1e-15 relative
    x = 0.12345678901234567
    assert abs(float(format_coefficient(x)) - x) <= 1e-15 * abs(x)


def test_text_form_and_zero_line():
    m = SparseMap(2, {(2, 4): 113.0, (7, 8): 5.0, (1, 10): 0.5})
    assert m.to_text() == "1 10 : 0.5\n2 4 : 113\n7 8 : 5\n"
    assert SparseMap(3).to_text() == "zero k=3\n"


def test_non_integral_indices_are_rejected():
    from extcalc import KForm, KTensor, kform_from_rows, ktensor_from_rows

    with pytest.raises(ValueError, match="integral"):
        KForm(1, {(2.7,): 1.0})
    with pytest.raises(ValueError, match="integral"):
        KTensor(1, {(2.9,): 1.0})
    with pytest.raises(ValueError, match="integral"):
        kform_from_rows([(1.5, 3)])
    with pytest.raises(ValueError, match="integral"):
        ktensor_from_rows([(2, 0.5)])
    with pytest.raises(ValueError, match="integral"):
        SparseMap(1, {(2,): 1.0}).insert_accumulate((2.5,), 1.0)
    # integral values of other numeric types keep working
    assert KForm(1, {(2.0,): 1.0}).terms == {(2,): 1.0}
    assert kform_from_rows([(np.int64(3), 1.0)]).terms == {(1, 3): -1.0}


def test_index_helpers_reject_non_integral_indices():
    from extcalc import (
        FieldForm, KForm, QuadratureRule, dd_check, elementary, f1, hat, kform_general, perm_sign,
        rform, verify_stokes,
    )

    with pytest.raises(ValueError, match="integral"):
        elementary(2.7)
    with pytest.raises(ValueError, match="integral"):
        kform_general([1, 2.7, 3], 2)
    with pytest.raises(ValueError, match="integral"):
        FieldForm([(f1, (1.5, 2.5))])
    with pytest.raises(ValueError, match="integral"):
        perm_sign((2.9, 1.2))
    with pytest.raises(ValueError, match="integral"):
        dd_check(FieldForm([(f1, (1.9,))]), np.arange(1.0, 5.0))
    with pytest.raises(ValueError, match="integral"):
        SparseMap(1, {(2,): 1.0}).coefficient((2.7,))
    # counts are integral too: arity, hat's n, quadrature points, subset size
    for bad in (2.7, "2"):
        with pytest.raises(ValueError, match="arity must be integral"):
            KForm(bad, {})
    with pytest.raises(ValueError, match="n must be integral"):
        hat(2.5)
    with pytest.raises(ValueError, match="n must be integral"):
        verify_stokes(3.7, 1.0, 4)
    with pytest.raises(ValueError, match="m must be integral"):
        verify_stokes(3, 1.0, 4.9)
    with pytest.raises(ValueError, match="m must be integral"):
        QuadratureRule.gauss_legendre(2.5, 1)
    with pytest.raises(ValueError, match="k must be integral"):
        kform_general(3, 2.5)
    # infinity is not integral either (int(inf) itself overflows)
    inf = float("inf")
    with pytest.raises(ValueError, match="indices must be integral"):
        KForm(1, {(inf,): 1.0})
    with pytest.raises(ValueError, match="arity must be integral"):
        KForm(inf)
    with pytest.raises(ValueError, match="n must be integral"):
        hat(inf)
    with pytest.raises(ValueError, match="n must be integral"):
        verify_stokes(inf)
    # nor is NaN, and the refusal names the argument, not int()'s own message
    nan = float("nan")
    with pytest.raises(ValueError, match="indices must be integral, got nan"):
        KForm(1, {(nan,): 1.0})
    with pytest.raises(ValueError, match="arity must be integral, got nan"):
        KForm(nan)
    with pytest.raises(ValueError, match="n must be integral, got nan"):
        hat(nan)
    # rform's counts are not truncated
    for args, what in (((2.5,), "seed"), ((1, 2.5), "k"), ((1, 3, 7.5), "n"),
                       ((1, 3, 7, 2.5), "terms"), ((inf,), "seed")):
        with pytest.raises(ValueError, match=f"{what} must be integral"):
            rform(*args)
    # integral values of other numeric types keep working
    assert elementary(2.0).terms == elementary(np.int64(2)).terms == {(2,): 1.0}
    assert kform_general([1, np.int64(2), 3.0], 2).terms == {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0}
    assert FieldForm([(f1, (1.0, np.int64(2)))]).terms[0][1] == (1, 2)
    assert perm_sign((2.0, np.int64(1))) == -1
    assert SparseMap(1, {(2,): 1.0}).coefficient((np.int64(2),)) == 1.0
    assert KForm(2.0).arity == KForm(np.int64(2)).arity == 2
    assert hat(np.int64(3)) == hat(3.0) == hat(3)
    assert verify_stokes(np.int64(2), 1.0, 4.0) == verify_stokes(2, 1.0, 4)
    assert QuadratureRule.gauss_legendre(np.int64(3), 1).m == 3
    assert kform_general(np.int64(3), 2.0) == kform_general(3, 2)
    assert rform(np.int64(2), 3.0, np.int64(7), 8.0) == rform(2, 3, 7, 8)


def test_nan_tolerance_is_refused():
    m = SparseMap(1, {(1,): 1.0})
    for nan in (float("nan"), np.float64("nan"), "nan"):
        with pytest.raises(ValueError, match="tolerance"):
            m.zap(nan)
        with pytest.raises(ValueError, match="tolerance"):
            m.equals(m, nan)
    # an infinite tolerance is a number: zap drops everything
    assert not m.zap(float("inf")) and m.equals(SparseMap(1), float("inf"))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_non_finite_coefficients_are_rejected(bad):
    from extcalc import KForm, KTensor, kform_from_rows, ktensor_from_rows

    with pytest.raises(ValueError, match="finite"):
        SparseMap(1, {(1,): bad})
    with pytest.raises(ValueError, match="finite"):
        KForm(2, {(1, 2): bad})
    with pytest.raises(ValueError, match="finite"):
        KTensor(1, [((1,), 1.0), ((1,), bad)])
    with pytest.raises(ValueError, match="finite"):
        kform_from_rows([(2, 1)], [bad])
    with pytest.raises(ValueError, match="finite"):
        ktensor_from_rows([(1, 1)], [bad])
    with pytest.raises(ValueError, match="finite"):
        SparseMap(1, {(2,): 1.0}).insert_accumulate((2,), bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_frames_matrices_and_points_are_rejected(bad):
    from extcalc import (
        ScalarField,
        contract,
        contract_matrix,
        dd_check,
        demo_two_form,
        evaluate_form,
        evaluate_tensor,
        exterior_d,
        f1,
        fd_gradient,
        kform_from_rows,
        ktensor_from_rows,
        omega_gradient,
        pullback,
        verify_det_proportionality,
    )

    w = kform_from_rows([(1, 2)], [1.0])
    frame = np.array([[1.0, 2.0], [3.0, bad], [5.0, 6.0]])
    with pytest.raises(ValueError, match="finite"):
        evaluate_form(w, frame)
    with pytest.raises(ValueError, match="finite"):
        evaluate_tensor(ktensor_from_rows([(1, 1)], [1.0]), frame)
    with pytest.raises(ValueError, match="finite"):
        pullback(w, np.array([[1.0, 0.0], [bad, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        exterior_d(demo_two_form(), [1.0, bad, 3.0, 4.0])
    with pytest.raises(ValueError, match="finite"):
        omega_gradient([bad, 1.0, 2.0])
    with pytest.raises(ValueError, match="finite"):
        f1([1.0, bad, 1.0, 1.0])
    # so is an analytic derivative a field supplies
    field = ScalarField(f1.fn, grad=lambda p: np.full(4, bad), hessian=lambda p: np.full((4, 4), bad))
    with pytest.raises(ValueError, match="need a finite number"):
        field.gradient_at([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="need a finite number"):
        field.hessian_at([1.0, 2.0, 3.0, 4.0])
    # an entry the computation never reads is refused all the same
    with pytest.raises(ValueError, match="need a finite number"):
        contract(w, [1.0, 2.0, bad])
    with pytest.raises(ValueError, match="need a finite number"):
        contract_matrix(w, [[1.0, 0.0], [0.0, 1.0], [bad, 0.0]])
    unread = [[1.0, 2.0], [3.0, 4.0], [bad, 6.0]]
    named = f"^need a finite number, got {bad}$"
    with pytest.raises(ValueError, match=named):
        evaluate_form(w, unread)
    with pytest.raises(ValueError, match=named):
        evaluate_tensor(ktensor_from_rows([(2, 1)], [1.0]), unread)
    with pytest.raises(ValueError, match=named):
        pullback(w, unread)
    # the empty top form reads no entry; the refusal names the value, not an overflowed det
    with pytest.raises(ValueError, match=named):
        verify_det_proportionality(KForm(2), [[1.0, 0.0], [0.0, bad]])
    with pytest.raises(ValueError, match="need a finite number"):
        fd_gradient(f1.fn, [1.0, bad, 3.0, 4.0])
    with pytest.raises(ValueError, match="need a finite number"):
        dd_check(demo_two_form(), [1.0, 2.0, bad, 4.0])
    with pytest.raises(ValueError, match="non-finite"):
        format_coefficient(bad)


def test_points_must_be_one_dimensional():
    from extcalc import (
        DimensionError, dd_check, demo_two_form, dphi_example, exterior_d, f1, fd_gradient,
        omega_gradient, phi_example,
    )

    takers = (
        lambda x: exterior_d(demo_two_form(), x),
        lambda x: dd_check(demo_two_form(), x),
        omega_gradient,
        phi_example,
        dphi_example,
        lambda x: fd_gradient(f1.fn, x),
        f1.gradient_at,
        f1.hessian_at,
        lambda x: f1.gradient_at(x, analytic=False),
        demo_two_form().coefficients_at,
        f1,
    )
    for take in takers:
        for point in (np.ones((4, 1)), np.ones((1, 4)), np.ones((3, 2)), [[1.0, 2.0], [3.0, 4.0]]):
            with pytest.raises(DimensionError, match="point must be a 1-D array"):
                take(point)


def test_computed_non_finite_coefficients_are_refused():
    # finite inputs whose results overflow: the storage kernel refuses
    # every one of them (a NaN or inf vector entry never gets past the
    # array gate)
    from extcalc import FieldForm, KForm, KTensor, contract, contract_matrix, tensor_product, wedge

    big = KForm(1, {(1,): 1e308})
    producers = {
        "contract": lambda: contract(KForm(2, {(1, 2): 1.0}), [float("nan"), 1.0]),
        "contract_matrix": lambda: contract_matrix(KForm(2, {(1, 2): 1.0}), [[float("inf")], [1.0]]),
        "wedge": lambda: wedge(big, KForm(1, {(2,): 10.0})),
        "add": lambda: big + big,
        "scale": lambda: big.scale(10.0),
        "tensor_product": lambda: tensor_product(KTensor(1, {(1,): 1e308}), KTensor(1, {(2,): -10.0})),
        "coefficients_at": lambda: FieldForm([(lambda p: float(p[0]) * 1e308, (1,))]).coefficients_at([10.0]),
    }
    for name, produce in producers.items():
        with pytest.raises(ValueError, match="finite"):
            produce()
    # an exactly cancelling pair of huge terms is finite and stays legal
    assert not (big + big.scale(-1.0)).terms
    assert repr(big.scale(0.5)) == "KForm(k=1, {(1,): 5e+307})"


def test_text_lines_for_arity_zero_empty_maps_and_repeated_indices():
    # each line is its key's `i1 ... ik` and its coefficient's ` : c`: arity 0 writes a bare
    # ` : c`, arity 1 one index per line, an empty map only its `zero k=` line (after the
    # header), and a tensor's repeated indices each in place
    assert SparseMap(0, {(): 2.5}).to_text() == " : 2.5\n"
    assert KForm(0, {(): -3.0}).to_text() == "kform k=0\n : -3\n"
    assert KForm(0).to_text() == "kform k=0\nzero k=0\n"
    assert KTensor(4).to_text() == "ktensor k=4\nzero k=4\n"
    assert SparseMap(0).to_text() == "zero k=0\n"
    assert SparseMap(1, {(12,): -2.0, (3,): 0.1}).to_text() == "3 : 0.1\n12 : -2\n"
    assert KForm(1).to_text() == "kform k=1\nzero k=1\n"
    T = KTensor(3, {(2, 2, 1): 1e17, (1, 1, 1): -0.1, (3, 1, 3): 7.0, (10**20, 1, 1): 1.0})
    assert T.to_text() == ("ktensor k=3\n1 1 1 : -0.1\n2 2 1 : 1e+17\n3 1 3 : 7\n"
                           "100000000000000000000 1 1 : 1\n")


def test_text_formats_each_distinct_coefficient_once(monkeypatch):
    # byte for byte the per-term join, with one format_coefficient call per distinct value
    calls = []

    def counted(c):
        calls.append(c)
        return format_coefficient(c)

    rng = random.Random(19)
    pool = (0.5, -0.1, 1 / 3, 3.0, -7.0, 1e300, -1e300, 5e-324, 1e16, -1e16,
            9999999999999998.0, 1e16 + 2.0, 1.7976931348623157e308)
    for trial in range(40):
        k = trial % 4
        items = {tuple(rng.randint(1, 6) for _ in range(k)):
                 rng.choice(pool) if rng.random() < 0.7 else rng.uniform(-1e17, 1e17)
                 for _ in range(rng.randint(0, 30))}
        for m in (SparseMap(k, items), KTensor(k, items)):
            lines = [] if m._header is None else [f"{m._header} k={k}"]
            lines += [f"zero k={k}"] if not m.terms else [
                " ".join(map(str, key)) + " : " + format_coefficient(c)
                for key, c in m.terms.items()]
            monkeypatch.setattr(sparse, "format_coefficient", counted)
            calls.clear()
            assert m.to_text() == "\n".join(lines) + "\n"
            assert sorted(calls) == sorted(set(m.terms.values()))
            monkeypatch.undo()


def _accumulate_per_contribution(items):
    # the kernel as it once was: each running sum tested for zero as it forms and dropped
    # at once, the finiteness check over the final sums, then key order
    acc = {}
    for key, c in items:
        c = acc.get(key, 0.0) + float(c)
        if c == 0.0:
            acc.pop(key, None)
        else:
            acc[key] = c
    if not all(map(math.isfinite, acc.values())):
        raise ValueError("non-finite")
    return {key: acc[key] for key in sorted(acc)}


def _outcome(accumulate, items):
    # the stored (key, float.hex(c)) pairs in order, or "ValueError"
    try:
        return [(key, c.hex()) for key, c in accumulate(items).items()]
    except ValueError:
        return "ValueError"


def test_storage_kernel_matches_a_per_contribution_reference_bitwise():
    from extcalc.sparse import _accumulate

    pool = [1.0, -1.0, 0.5, -0.5, 0.1, 0.2, -0.3, 3.0, -3.0, 0.0, -0.0, 1e-300, -1e-300]
    cases = [
        [((1,), 1.5), ((1,), -1.5), ((1,), 0.25)],  # cancels, then is added to again
        [((1,), 1.5), ((2,), 1.0), ((1,), -1.5), ((2,), -1.0), ((1,), -0.0)],
        [((2,), -0.0)], [((2,), 0.0), ((2,), -0.0)], [((2,), -0.0), ((2,), 3.0)],
        [((2,), 3.0), ((2,), -0.0)], [((1, 2), 0.1), ((1, 2), 0.2), ((1, 2), -0.3)],
    ]
    for seed in range(100):
        rng = random.Random(seed)
        cases.append([((rng.randint(1, 3), rng.randint(1, 3)), rng.choice(pool))
                      for _ in range(rng.randint(0, 40))])
    cancelled_then_refilled = 0
    for items in cases:
        got = _outcome(_accumulate, items)
        assert got == _outcome(_accumulate_per_contribution, items), items
        assert got != "ValueError"
        running = {}
        for key, c in items:
            if running.get(key) == 0.0 and c != 0.0:
                cancelled_then_refilled += 1
            running[key] = running.get(key, 0.0) + c
    assert cancelled_then_refilled > 10


@pytest.mark.parametrize("items", [
    [((1,), math.inf)],
    [((1,), -math.inf), ((2,), 1.0)],
    [((1,), math.nan), ((1,), 1.0)],
    [((1,), math.inf), ((1,), -math.inf)],  # inf - inf is NaN, never 0.0
    [((1,), 1e308), ((1,), 1e308), ((1,), -1e308)],  # overflows to inf midway and stays
    [((2,), 1.0), ((1,), math.inf), ((2,), -1.0), ((3,), math.nan)],  # two bad keys
    [((1,), math.inf), ((1,), -1.0), ((1,), 0.0)],
])
def test_storage_kernel_refuses_every_non_finite_sum(items):
    from extcalc.sparse import _accumulate

    with pytest.raises(ValueError, match="cannot store the non-finite coefficient"):
        _accumulate(items)
    assert _outcome(_accumulate_per_contribution, items) == "ValueError"


def test_items_are_in_key_order_and_a_negative_arity_is_refused():
    m = SparseMap(2, [((2, 1), 1.0), ((1, 2), 2.0), ((1, 1), -0.0)])
    assert list(m.items()) == [((1, 2), 2.0), ((2, 1), 1.0)]
    with pytest.raises(ArityError, match="arity must be nonnegative, got -1"):
        SparseMap(-1)


def test_ragged_rows_are_refused_by_the_key_check():
    from extcalc import kform_from_rows, ktensor_from_rows

    for build in (kform_from_rows, ktensor_from_rows):
        with pytest.raises(ArityError, match=r"key \(3,\) has arity 1, expected 2"):
            build([(1, 2), (3,)])
        with pytest.raises(ArityError, match=r"key \(1, 2, 3\) has arity 3, expected 2"):
            build([(1, 2), (1, 2, 3)], [1.0, 2.0])
