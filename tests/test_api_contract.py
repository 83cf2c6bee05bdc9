"""The library's refusals, one table.

API_REFUSALS is the one record of what the public API refuses: each row
is a zero-argument call, the exact type of what it raises and the exact
message, and a new library refusal adds a row there, not a test.  The
message is None only where numpy or Python words it, or where it holds a
numpy repr.  Each count the enumeration bound refuses has its row here,
with the text its count formats; a test elsewhere asserts no row's
message again.

Each row runs under the default warning filters, not pytest's
warnings-as-errors, so it states what a library caller gets: any numpy
RuntimeWarning on the way, then the refusal.

The refusals tested elsewhere, beside the work they guard, are of six
kinds: one that a spy or a monkeypatched bound must see come before any
work; one held to a time limit; one whose message is compared with a
computed one; one that must arrive without a numpy warning under
pytest's warnings-as-errors; one of a non-public call (the storage
kernel, cli._json, the Legendre rule's Newton loop); and one that
Hypothesis draws.  The CLI's refusals are REFUSALS in
test_cli_contract.py.
"""

import math
import warnings

import numpy as np
import pytest

import extcalc
from extcalc import (
    ArityError, CubeDomain, DimensionError, FieldForm, KForm, KTensor, ParseError,
    QuadratureRule, ScalarField, SparseMap, alt, closed_form_value, contract, contract_matrix,
    dd_check, demo_two_form, dphi_example, elementary, evaluate_form, evaluate_tensor,
    exterior_d, f1, f2, f3, fd_gradient, fd_hessian, form_to_tensor, grad, hat,
    integrate_boundary, integrate_volume, kform_from_rows, kform_general, ktensor_from_rows,
    omega_gradient, parse_form_text, parse_matrix_text, perm_sign, phi_example, pullback, rform,
    symbolic, tensor_product, verify_det_proportionality, verify_stokes, wedge,
    wedge_definitional,
)
from extcalc.sparse import format_coefficient

P = np.arange(1.0, 5.0)
INCREASING = ("form keys must be strictly increasing, got {}; use kform_from_rows to canonicalize"
              " raw rows")


def _non_finite(bad):
    # a non-finite entry of a frame, matrix, point or supplied derivative, read or not
    w = KForm(2, {(1, 2): 1.0})
    frame = np.array([[1.0, 2.0], [3.0, bad], [5.0, 6.0]])
    unread = [[1.0, 2.0], [3.0, 4.0], [bad, 6.0]]
    field = ScalarField(f1.fn, grad=lambda p: np.full(4, bad),
                        hessian=lambda p: np.full((4, 4), bad))
    got = f"need a finite number, got {bad}"
    return [
        # a 0-form or 0-tensor reads its frame too: once it returned its constant for any input
        (lambda: evaluate_form(KForm(0, {(): 2.0}), [[bad]]), ValueError, got),
        (lambda: evaluate_tensor(KTensor(0, {(): 2.0}), [[bad]]), ValueError, got),
        (lambda: evaluate_form(w, frame), ValueError, got),
        (lambda: evaluate_tensor(KTensor(1, {(1,): 1.0}), frame), ValueError, got),
        (lambda: pullback(w, np.array([[1.0, 0.0], [bad, 1.0]])), ValueError, got),
        (lambda: exterior_d(demo_two_form(), [1.0, bad, 3.0, 4.0]), ValueError, got),
        (lambda: omega_gradient([bad, 1.0, 2.0]), ValueError, got),
        (lambda: f1([1.0, bad, 1.0, 1.0]), ValueError, got),
        (lambda: field.gradient_at(P), ValueError, got),
        (lambda: field.hessian_at(P), ValueError, got),
        # an entry the computation never reads is refused all the same
        (lambda: contract(w, [1.0, 2.0, bad]), ValueError, got),
        (lambda: contract_matrix(w, [[1.0, 0.0], [0.0, 1.0], [bad, 0.0]]), ValueError, got),
        (lambda: evaluate_form(w, unread), ValueError, got),
        (lambda: evaluate_tensor(KTensor(2, {(2, 1): 1.0}), unread), ValueError, got),
        (lambda: pullback(w, unread), ValueError, got),
        # the empty top form reads no entry; the refusal names the value, not an overflowed det
        (lambda: verify_det_proportionality(KForm(2), [[1.0, 0.0], [0.0, bad]]), ValueError, got),
        (lambda: fd_gradient(f1.fn, [1.0, bad, 3.0, 4.0]), ValueError, got),
        (lambda: dd_check(demo_two_form(), [1.0, 2.0, bad, 4.0]), ValueError, got),
        (lambda: format_coefficient(bad), ValueError,
         f"cannot write the non-finite value {bad}: the result overflowed"),
    ]


# every route that reads a point refuses one of more than one axis
POINT_TAKERS = (
    lambda x: exterior_d(demo_two_form(), x), lambda x: dd_check(demo_two_form(), x),
    omega_gradient, phi_example, dphi_example, lambda x: fd_gradient(f1.fn, x), f1.gradient_at,
    f1.hessian_at, lambda x: f1.gradient_at(x, analytic=False), demo_two_form().coefficients_at, f1,
)
BIG = KForm(1, {(1,): 1e308})
DX12, T12 = KForm(2, {(1, 2): 1.0}), KTensor(2, {(1, 2): 1.0})
RULE = QuadratureRule(2, 1.0, (0.25, 0.75), (0.5, 0.5))


def _constant(*keys):
    return FieldForm([(lambda x: 1.0, key) for key in keys])


API_REFUSALS = [
    # keys: each index a positive integral number, each key of the map's arity
    (lambda: SparseMap(2, {(1, 2, 3): 1.0}), ArityError, "key (1, 2, 3) has arity 3, expected 2"),
    (lambda: SparseMap(1, {(0,): 1.0}), ValueError,
     "indices are 1-based positive integers, got (0,)"),
    (lambda: SparseMap(1, {(-2,): 1.0}), ValueError,
     "indices are 1-based positive integers, got (-2,)"),
    (lambda: SparseMap(-1), ArityError, "arity must be nonnegative, got -1"),
    (lambda: KForm(1, {(2.7,): 1.0}), ValueError, "indices must be integral, got 2.7"),
    (lambda: KTensor(1, {(2.9,): 1.0}), ValueError, "indices must be integral, got 2.9"),
    (lambda: kform_from_rows([(1.5, 3)]), ValueError, "indices must be integral, got 1.5"),
    (lambda: ktensor_from_rows([(2, 0.5)]), ValueError, "indices must be integral, got 0.5"),
    (lambda: SparseMap(1, {(2,): 1.0}).insert_accumulate((2.5,), 1.0), ValueError,
     "indices must be integral, got 2.5"),
    (lambda: SparseMap(1, {(2,): 1.0}).coefficient((2.7,)), ValueError,
     "indices must be integral, got 2.7"),
    (lambda: elementary(2.7), ValueError, "indices must be integral, got 2.7"),
    (lambda: perm_sign((2.9, 1.2)), ValueError, "indices must be integral, got 2.9"),
    (lambda: kform_general([1, 2.7, 3], 2), ValueError, "indices must be integral, got 2.7"),
    (lambda: FieldForm([(f1, (1.5, 2.5))]), ValueError, "indices must be integral, got 1.5"),
    (lambda: dd_check(FieldForm([(f1, (1.9,))]), P), ValueError,
     "indices must be integral, got 1.9"),
    # infinity is not integral either (int(inf) itself overflows), nor is NaN, and the
    # refusal names the argument, not int()'s own message
    (lambda: KForm(1, {(math.inf,): 1.0}), ValueError, "indices must be integral, got inf"),
    (lambda: KForm(1, {(math.nan,): 1.0}), ValueError, "indices must be integral, got nan"),
    *((lambda bad=bad: KForm(bad), ValueError, f"arity must be integral, got {bad!r}")
      for bad in (2.7, "2", math.inf, math.nan)),
    (lambda: perm_sign((1, 1, 2)), ValueError, "(1, 1, 2) is not a permutation of 1..3"),
    (lambda: perm_sign((0, 1)), ValueError, "indices are 1-based positive integers, got (0, 1)"),
    # rows of unequal length are refused by the key check
    *(row for build in (kform_from_rows, ktensor_from_rows) for row in (
        (lambda build=build: build([(1, 2), (3,)]), ArityError, "key (3,) has arity 1, expected 2"),
        (lambda build=build: build([(1, 2), (1, 2, 3)], [1.0, 2.0]), ArityError,
         "key (1, 2, 3) has arity 3, expected 2"))),
    (lambda: ktensor_from_rows([(1, 2), (1, 2, 3)]), ArityError,
     "key (1, 2, 3) has arity 3, expected 2"),
    (lambda: ktensor_from_rows([]), ValueError, "need at least one row to infer arity"),
    (lambda: ktensor_from_rows([(1, 2)], [1.0, 2.0]), ValueError, "1 rows but 2 coefficients"),
    # a form's keys are strictly increasing: every given key is checked, also one whose
    # coefficient is zero or cancels, and a key asked for is checked by the same rule
    (lambda: KForm(2, {(2, 1): 1.0}), ValueError, INCREASING.format((2, 1))),
    (lambda: KForm(2, {(3, 3): 1.0}), ValueError, INCREASING.format((3, 3))),
    (lambda: KForm(2, {(2, 1): 0.0}), ValueError, INCREASING.format((2, 1))),
    (lambda: KForm(2, [((2, 1), 1.0), ((2, 1), -1.0)]), ValueError, INCREASING.format((2, 1))),
    (lambda: KForm(2, [((1, 2), 1.0), ((3, 3), 0.0)]), ValueError, INCREASING.format((3, 3))),
    (lambda: KForm(2, {(1, 3): 1.0}) + SparseMap(2, {(3, 1): 1.0}), ValueError,
     INCREASING.format((3, 1))),
    (lambda: DX12.coefficient((2, 1)), ValueError, INCREASING.format((2, 1))),
    (lambda: FieldForm([(f1, (2, 1))]), ValueError, INCREASING.format((2, 1))),
    # coefficients are finite as given, also one that would accumulate, and as computed
    *(row for bad in (math.nan, math.inf, -math.inf, np.float64("nan")) for row in (
        *((call, ValueError, f"cannot store the non-finite coefficient {bad}") for call in (
            lambda bad=bad: SparseMap(1, {(1,): bad}), lambda bad=bad: KForm(2, {(1, 2): bad}),
            lambda bad=bad: KTensor(1, [((1,), 1.0), ((1,), bad)]),
            lambda bad=bad: SparseMap(1, {(2,): 1.0}).insert_accumulate((2,), bad))),
        *((call, ValueError, f"need a finite number, got {bad}") for call in (
            lambda bad=bad: kform_from_rows([(2, 1)], [bad]),
            lambda bad=bad: ktensor_from_rows([(1, 1)], [bad]))))),
    (lambda: contract(DX12, [math.nan, 1.0]), ValueError, "need a finite number, got nan"),
    (lambda: contract_matrix(DX12, [[math.inf], [1.0]]), ValueError,
     "need a finite number, got inf"),
    *((call, ValueError, f"cannot store the non-finite coefficient {c}") for call, c in (
        (lambda: wedge(BIG, KForm(1, {(2,): 10.0})), "inf"),
        (lambda: wedge(KForm(1, {(2,): 1e200}), KForm(1, {(1,): -1e200})), "inf"),
        (lambda: BIG + BIG, "inf"),
        (lambda: BIG.scale(10.0), "inf"),
        (lambda: tensor_product(KTensor(1, {(1,): 1e308}), KTensor(1, {(2,): -10.0})), "-inf"),
        (lambda: FieldForm([(lambda p: float(p[0]) * 1e308, (1,))]).coefficients_at([10.0]), "inf"),
        (lambda: FieldForm([(lambda x: x[0] ** 2, (1,))]).coefficients_at([1e200]), "inf"),
        # x_3^3 and x_3^2 pass the float range, where Python's ** raises OverflowError
        (lambda: phi_example([1.0, 1.0, 1e200]), "inf"),
        (lambda: dphi_example([1.0, 1.0, 1e200]), "inf"))),
    *(row for bad in (math.nan, math.inf, -math.inf) for row in _non_finite(bad)),
    *((lambda evaluate=evaluate, zero=zero: evaluate(zero, [[1.0], [1.0, 2.0]]), DimensionError,
       "frame has rows of unequal lengths: [1, 2]")
      for evaluate, zero in ((evaluate_form, KForm(0, {(): 2.0})),
                             (evaluate_tensor, KTensor(0, {(): 2.0})),
                             (evaluate_form, KForm(1, {(1,): 1.0})))),
    (lambda: evaluate_form(KForm(0, {(): 2.0}), "abc"), ValueError, None),
    (lambda: evaluate_tensor(KTensor(0, {(): 2.0}), "abc"), ValueError, None),
    # sums and comparisons: one arity, one kind; dx1^dx2 = phi1 (x) phi2 - phi2 (x) phi1, so
    # neither a form nor a tensor may read the other's keys
    (lambda: SparseMap(2, {(1, 2): 1.0}) + SparseMap(3, {(1, 2, 3): 1.0}), ArityError,
     "cannot add arity 2 and arity 3 maps"),
    (lambda: DX12 + T12, TypeError, "cannot add a kform and a ktensor"),
    (lambda: T12 + DX12, TypeError, "cannot add a ktensor and a kform"),
    (lambda: DX12 - T12, TypeError, "cannot add a kform and a ktensor"),
    (lambda: T12 - DX12, TypeError, "cannot add a ktensor and a kform"),
    (lambda: DX12.equals(T12), TypeError, "cannot compare a kform with a ktensor"),
    (lambda: T12.equals(DX12), TypeError, "cannot compare a ktensor with a kform"),
    # an operand that is no map at all: Python words the refusal of + - *
    *((call, TypeError, None) for call in (lambda: DX12 + 3, lambda: DX12 - "x",
                                           lambda: DX12 * [1])),
    (lambda: DX12.equals(3), TypeError, "cannot compare SparseMap with int"),
    # a tolerance is a number, and NaN is not
    *(row for nan in (math.nan, np.float64("nan"), "nan") for row in (
        (lambda nan=nan: DX12.zap(nan), ValueError, "a tolerance must be a number, got nan"),
        (lambda nan=nan: DX12.equals(DX12, nan), ValueError,
         "a tolerance must be a number, got nan"))),
    # tensors: frames of the right shape, values finite, alt within its bound
    (lambda: evaluate_tensor(KTensor(2, {(1, 3): 1.0}), np.ones((2, 2))), DimensionError,
     "frame has 2 rows but indices reach 3"),
    (lambda: evaluate_tensor(KTensor(2, {(1, 3): 1.0}), np.ones((3, 3))), DimensionError,
     "frame has 3 columns but the object has arity 2"),
    (lambda: evaluate_tensor(KTensor(2, {(1, 3): 1.0}), np.ones((2, 2, 2))), DimensionError,
     "frame must be a 2-D array, got shape (2, 2, 2)"),
    (lambda: evaluate_tensor(KTensor(2, {(1, 2): 1e308}), [[10, 0], [0, 10]]), ValueError,
     "evaluate_tensor: the value came out inf: a product or sum overflowed"),
    # two finite terms overflow to +inf and -inf, and their sum is NaN
    (lambda: evaluate_tensor(KTensor(1, {(1,): 1e308, (2,): -1e308}), [1e10, 1e10]), ValueError,
     "evaluate_tensor: the value came out nan: a product or sum overflowed"),
    # key (1, 2) of a kform is dx1^dx2, not phi1 (x) phi2, so a tensor route refuses a kform
    *((call, TypeError, f"{name} needs a tensor, not a kform: expand it with form_to_tensor"
       " first") for name, call in (
        ("alt", lambda: alt(DX12)), ("tensor_product", lambda: tensor_product(DX12, T12)),
        ("evaluate_tensor", lambda: evaluate_tensor(DX12, [[0.0, 1.0], [1.0, 0.0]])))),
    (lambda: alt(KTensor(0, {(): 1.0})), ArityError, "alt needs arity >= 1"),
    (lambda: alt(KTensor(11, {tuple(range(1, 12)): 1.0})), ValueError,
     "alt on arity 11: 1 terms x 11! permutations = 39916800 exceeds the bound 1048576; refusing"),
    (lambda: alt(KTensor(21, {tuple(range(1, 22)): 1.0})), ValueError,
     "alt on arity 21: 21! permutations exceed the bound; refusing"),
    # forms: evaluation, contraction, pullback and the definitional routes; the factors are
    # finite, the product overflows, and a 4x4 minor goes through the numpy stack
    (lambda: evaluate_form(BIG, [10.0]), ValueError,
     "evaluate_form: the value came out inf: a product or sum overflowed"),
    (lambda: evaluate_form(KForm(2, {(1, 2): 1e308}), [[10.0, 0.0], [0.0, 10.0]]), ValueError,
     "evaluate_form: the value came out inf: a product or sum overflowed"),
    (lambda: evaluate_form(KForm(4, {(1, 2, 3, 4): -1e308}), np.eye(4) * 10.0), ValueError,
     "evaluate_form: the value came out -inf: a product or sum overflowed"),
    (lambda: contract(KForm(0, {(): 1.0}), [1.0]), ArityError, "cannot contract a 0-form"),
    (lambda: contract(KForm(2, {(1, 5): 1.0}), [1.0, 2.0]), DimensionError,
     "vector has length 2 but indices reach 5"),
    (lambda: contract_matrix(DX12, np.eye(2)[:, [0, 1, 0]]), ArityError,
     "cannot contract arity 2 form with 3 vectors"),
    *((lambda M=M: pullback(KForm(2, {(2, 4): 3.0}), M), DimensionError,
       "matrix has 3 rows but indices reach 4") for M in (np.ones((3, 4)), np.eye(3))),
    (lambda: form_to_tensor(KForm(11, {tuple(range(1, 12)): 1.0})), ValueError,
     "form_to_tensor on arity 11: 1 terms x 11! permutations = 39916800 exceeds the bound"
     " 1048576; refusing"),
    (lambda: wedge_definitional(KForm(6, {tuple(range(1, 7)): 1.0}),
                                KForm(5, {tuple(range(7, 12)): 1.0})), ValueError,
     "wedge_definitional on arity 11: 86400 terms x 11! permutations = 3448811520000 exceeds"
     " the bound 1048576; refusing"),
    (lambda: form_to_tensor(kform_general(10, 8)), ValueError,
     "form_to_tensor on arity 8: 45 terms x 8! permutations = 1814400 exceeds the bound 1048576;"
     " refusing"),
    (lambda: wedge_definitional(kform_general(8, 3), kform_general(6, 2)), ValueError,
     "wedge_definitional on arity 5: 10080 terms x 5! permutations = 1209600 exceeds the bound"
     " 1048576; refusing"),
    (lambda: pullback(KForm(10, {tuple(range(1, 11)): 1.0}), np.eye(40)), ValueError,
     "pullback: 1 keys x C(40, 10) minors = 847660528 exceeds the bound 1048576; refusing"),
    (lambda: kform_general(40, 10), ValueError,
     "kform_general: C(40, 10) subsets = 847660528 exceeds the bound 1048576; refusing"),
    (lambda: kform_general(4, 2, [1.0]), ValueError,
     "need 6 coefficients for C(4,2) subsets, got 1"),
    (lambda: kform_general([1, 1, 2], 2), ValueError, "index set must be distinct"),
    (lambda: kform_general(3, 2.5), ValueError, "k must be integral, got 2.5"),
    (lambda: rform(1, 3, 7, math.comb(7, 3) + 1), ValueError,
     "cannot place 36 distinct keys among C(7,3)=35"),
    (lambda: rform(1, 1, 2**21, 1), ValueError,
     "rform: 1 keys x 2097152 unranking steps = 2097152 exceeds the bound 1048576; refusing"),
    (lambda: rform(1, 150000, 300000, 1), ValueError,
     "rform: C(300000,150000) of up to 2850000 bits = 2850000 exceeds the bound 1048576;"
     " refusing"),
    # rform's ranges are checked before any key is counted, and its counts are not truncated
    *((lambda args=args: rform(*args), ValueError,
       "need k >= 1, n >= 1 and terms >= 0, got k={1}, n={2}, terms={3}".format(*args))
      for args in ((1, 3, 7, -1), (1, 0, 5, 2), (1, 3, 0, 0), (1, -1, 5, 0))),
    *((lambda args=args: rform(*args), ValueError, f"{what} must be integral, got {args[-1]}")
      for args, what in (((2.5,), "seed"), ((1, 2.5), "k"), ((1, 3, 7.5), "n"),
                         ((1, 3, 7, 2.5), "terms"), ((math.inf,), "seed"))),
    (lambda: symbolic(KForm(2, {(1, 27): 1.0})), ValueError,
     "index 27 has no letter (the default symbols a-z name 1-26); use --style d"),
    (lambda: symbolic(DX12, style="shout"), ValueError, "unknown style 'shout'"),
    *((lambda style=style: symbolic(KForm(2, {(1, 3): 2.0}), style=style, symbols="ab"),
       ValueError, "index 3 exceeds the 2 symbols supplied") for style in ("d", "letters")),
    # fields and derivatives
    (lambda: FieldForm([]), ValueError, "need at least one (field, key) term"),
    (lambda: dd_check(FieldForm([]), P), ValueError, "need at least one (field, key) term"),
    (lambda: FieldForm([(f1, (1, 2)), (f2, (1,))]), ArityError, "key (1,) has arity 1, expected 2"),
    (lambda: dd_check(FieldForm(zip([f1, f2], [(1, 2)], strict=True)), P), ValueError, None),
    (lambda: exterior_d(demo_two_form(), np.array([1.0, 2.0])), DimensionError,
     "point has length 2 but indices reach 4"),
    *((lambda take=take, point=point: take(point), DimensionError,
       f"point must be a 1-D array, got shape {np.shape(point)}")
      for take in POINT_TAKERS
      for point in (np.ones((4, 1)), np.ones((1, 4)), np.ones((3, 2)), [[1.0, 2.0], [3.0, 4.0]])),
    # the demo fields live on R^4: dd_check's point gate refuses R^2 and R^3 before any field
    # runs, and R^5 reaches the fields
    *((lambda take=take, n=n: take([1.0, 2.0, 3.0, 4.0, 5.0][:n]), DimensionError,
       f"the demo fields f1, f2, f3 live on R^4, got a point in R^{n}")
      for n in (2, 3, 5) for field in (f1, f2, f3)
      for take in (field, field.gradient_at, field.hessian_at)),
    *((lambda n=n: dd_check(demo_two_form(), [1.0, 2.0, 3.0, 4.0, 5.0][:n]), DimensionError,
       f"point has length {n} but indices reach 4") for n in (2, 3)),
    (lambda: dd_check(demo_two_form(), [1.0, 2.0, 3.0, 4.0, 5.0]), DimensionError,
     "the demo fields f1, f2, f3 live on R^4, got a point in R^5"),
    # at a point of R^4 a supplied gradient is exactly (4,) and a supplied Hessian (4, 4)
    *((lambda g=g: exterior_d(FieldForm([(ScalarField(f1.fn, grad=lambda p: g), (1, 2))]), P),
       DimensionError, message) for g, message in (
        (np.arange(1.0, 6.0), "analytic gradient has shape (5,) at a point of R^4"),
        (np.ones(2), "analytic gradient has shape (2,) at a point of R^4"),
        (np.ones((4, 1)), "analytic gradient must be a 1-D array, got shape (4, 1)"))),
    *((lambda H=H: dd_check(FieldForm([(ScalarField(f1.fn, hessian=lambda p: H), (1, 2))]), P,
                            analytic=True),
       DimensionError, f"analytic Hessian has shape {shape} at a point of R^4")
      for H, shape in ((np.ones((2, 2)), (2, 2)), (np.ones((4, 5)), (4, 5)), (np.ones(4), (4,)))),
    # the message holds the point's numpy repr; the second stencil is finite at the point and
    # infinite one step along x_1
    (lambda: fd_gradient(lambda x: 1.0 / (x[0] - 1.0), np.array([1.0, 0.0])), ValueError, None),
    (lambda: fd_hessian(lambda x: math.inf if x[0] > 1.0 else float(x[0] * x[1]),
                        np.array([1.0, 2.0])), ValueError, None),
    (lambda: grad([]), DimensionError, "gradient has length 0 but indices reach 1"),
    (lambda: grad(np.eye(2)), DimensionError, "gradient must be a 1-D array, got shape (2, 2)"),
    (lambda: omega_gradient(np.zeros(3)), ValueError, "the form is singular at the origin"),
    (lambda: omega_gradient(np.array([2.0])), ValueError, "need n >= 2"),
    (lambda: hat(1), ValueError, "hat needs n >= 2"),
    # n keys of n - 1 indices, for hat(n) and for phi_example on R^n
    *((call, ValueError,
       "hat(1025): 1025 keys x 1024 indices = 1049600 exceeds the bound 1048576; refusing")
      for call in (lambda: hat(1025), lambda: phi_example(np.ones(1025)),
                   lambda: dphi_example(np.ones(1025)))),
    *((lambda bad=bad: hat(bad), ValueError, f"n must be integral, got {bad}")
      for bad in (2.5, math.inf, math.nan)),
    # Stokes on cubes
    (lambda: dphi_example(np.array([5.0])), ValueError, "need a point in dimension >= 2"),
    (lambda: QuadratureRule.gauss_legendre(1, 1.0), ValueError, "need at least 2 points per axis"),
    (lambda: QuadratureRule.gauss_legendre(4, 0.0), ValueError, "need a > 0"),
    (lambda: QuadratureRule.gauss_legendre(4, math.inf), ValueError,
     "need a finite number, got inf"),
    (lambda: QuadratureRule.gauss_legendre(2.5, 1), ValueError, "m must be integral, got 2.5"),
    (lambda: QuadratureRule.gauss_legendre(1025, 1.0), ValueError,
     "gauss_legendre: m^2 = 1025^2 recurrence steps = 1050625 exceeds the bound 1048576;"
     " refusing"),
    # a rule built by hand is checked as it is built: _integrate's zip once dropped a third
    # weight on two points and read 0.401 for 1
    *((lambda args=args: QuadratureRule(*args), ValueError, message) for args, message in (
        ((2.5, 1.0, (0.25, 0.75), (0.5, 0.5)), "m must be integral, got 2.5"),
        ((2, 1.0, (0.25, 0.75), (0.5, 0.5, 0.2)), "need m = 2 points and weights, got 2 and 3"),
        ((3, 1.0, (0.25, 0.75), (0.5, 0.5)), "need m = 3 points and weights, got 2 and 2"),
        ((2, 1.0, (0.25, math.nan), (0.5, 0.5)), "need a finite number, got nan"),
        ((2, 1.0, (0.25, 0.75), (0.5, math.inf)), "need a finite number, got inf"),
        *(((2, 1.0, points, (0.5, 0.5)),
           f"points must ascend strictly within [0, 1.0], got {points}")
          for points in ((0.75, 0.25), (0.5, 0.5), (-0.25, 0.75), (0.25, 1.5))),
        ((2, 0.0, (0.0, 0.0), (0.5, 0.5)), "need a > 0"),
        ((2, math.nan, (0.25, 0.75), (0.5, 0.5)), "need a > 0"),
        ((2, math.inf, (0.25, 0.75), (0.5, 0.5)), "need a finite number, got inf"))),
    (lambda: CubeDomain(1), ValueError, "need n >= 2"),
    (lambda: CubeDomain(3, a=0.0), ValueError, "need edge length a > 0"),
    (lambda: CubeDomain(3, math.inf), ValueError, "need a finite number, got inf"),
    # the dimension is integral: the integrators would fail on 2.5 later
    *((lambda bad=bad: CubeDomain(bad, 1.0), ValueError, f"n must be integral, got {bad!r}")
      for bad in (2.5, "3", math.inf)),
    # each integrand is a top form on the cube's interior or its boundary, on the rule's edge
    (lambda: integrate_volume(_constant((2, 3), (1, 3), (1, 2)), CubeDomain(3), RULE),
     DimensionError,
     "integrand must be a 3-form on R^3, got degree 2 with indices reaching 3"),
    (lambda: integrate_volume(_constant((1, 2, 4)), CubeDomain(3), RULE), DimensionError,
     "integrand must be a 3-form on R^3, got degree 3 with indices reaching 4"),
    (lambda: integrate_boundary(_constant((1, 2)), CubeDomain(2), RULE), DimensionError,
     "integrand must be a 1-form on R^2, got degree 2 with indices reaching 2"),
    (lambda: integrate_boundary(_constant((2, 4)), CubeDomain(3), RULE), DimensionError,
     "integrand must be a 2-form on R^3, got degree 2 with indices reaching 4"),
    (lambda: integrate_volume(_constant((1, 2, 3)), CubeDomain(3),
                              QuadratureRule.gauss_legendre(3, 2.0)),
     ValueError, "quadrature rule was built for a different edge length"),
    (lambda: integrate_volume(dphi_example, CubeDomain(3), RULE), TypeError,
     "integrand must be a FieldForm, got function"),
    *((lambda n=n: verify_stokes(n), ValueError, "n must be between 2 and 6 (m^n volume nodes)")
      for n in (1, 7)),
    (lambda: verify_stokes(3.7, 1.0, 4), ValueError, "n must be integral, got 3.7"),
    (lambda: verify_stokes(3, 1.0, 4.9), ValueError, "m must be integral, got 4.9"),
    (lambda: verify_stokes(math.inf), ValueError, "n must be integral, got inf"),
    (lambda: verify_stokes(6, 1.0, 11), ValueError,
     "verify_stokes: m^n = 11^6 volume nodes = 1771561 exceeds the bound 1048576; refusing"),
    # the closed form is the largest finite float, but the quadrature overflows
    (lambda: verify_stokes(6, 1.054765606481477e28, 8), ValueError,
     "the quadrature overflows at n = 6, a = 1.054765606481477e+28"),
    *((lambda a=a: closed_form_value(2, a), ValueError, f"need a finite number, got {a}")
      for a in (math.nan, math.inf)),
    # n = 0 once divided by zero, n = -3 gave 0.0 and n = 2.5 a TypeError
    *((lambda n=n: closed_form_value(n, 2.0), ValueError, "need n >= 2") for n in (0, -3, 1)),
    (lambda: closed_form_value(2.5, 1.0), ValueError, "n must be integral, got 2.5"),
    (lambda: verify_det_proportionality(dphi_example(np.arange(1.0, 4.0)), np.eye(4)),
     DimensionError,
     "need a top form: degree 3, indices reaching 3, on a frame of shape (4, 4)"),
    *((lambda w=w, E=E: verify_det_proportionality(w, E), ValueError,
       "need a square frame, got shape (2, 3)")
      for w in (dphi_example(np.arange(1.0, 4.0)), KForm(1, {(1,): 2.0}))
      for E in ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], np.ones((2, 3)))),
    # sum_j j^j is finite up to n = 143, but det(E) * w(I) overflows from n = 129 on
    (lambda: verify_det_proportionality(dphi_example(np.arange(1.0, 131.0)),
                                        np.random.default_rng(0).random((130, 130))), ValueError,
     "the determinant check overflows at n = 130"),
    # text and the package: a malformed or non-finite line is refused by its number
    *((lambda text=text: parse_form_text(text), ParseError, message) for text, message in (
        ("", "line 1: empty input"), ("   \n# only comments\n", "line 1: empty input"),
        ("junk k=2\n1 2 : 1\n", "line 1: unknown object type 'junk'"),
        ("kform\n1 2 : 1\n", "line 1: expected '<type> k=<arity>', got 'kform'"),
        ("kform k=x\n1 2 : 1\n", "line 1: bad arity in 'kform k=x'"),
        ("kform k=-1\nzero k=-1\n", "line 1: arity must be nonnegative, got -1"),
        ("kform k=2\n", "line 1: header with no term lines"),
        ("kform k=2\n1 x : 3\n", "line 2: bad index in '1 x : 3'"),
        ("kform k=2\n1 2 : abc\n", "line 2: bad coefficient in '1 2 : abc'"),
        ("kform k=2\n0 2 : 1\n", "line 2: indices are 1-based and positive, got (0, 2)"),
        ("kform k=2\n1 2 1\n", "line 2: expected 'indices : coefficient', got '1 2 1'"),
        ("kform k=2\nzero k=3\n", "line 2: expected 'zero k=2', got 'zero k=3'"),
        # int() and float() would read 1_0 as 10 and an Arabic-Indic three as 3
        ("kform k=2\n1_0 2_0 : 1_5\n",
         "line 2: underscore or non-ASCII character in '1_0 2_0 : 1_5'"),
        ("kform k=\u0663\n1 2 3 : 1\n",
         "line 1: underscore or non-ASCII character in 'kform k=\u0663'"),
        # a line ends at "\n" only: U+2028 is a refused character and a form feed whitespace
        ("kform k=2\n1 2 : 1\u20282 3 : 4\n",
         "line 2: underscore or non-ASCII character in '1 2 : 1\\u20282 3 : 4'"),
        ("kform k=2\n1 2 : 1\x0c2 3 : 4\n", "line 2: bad coefficient in '1 2 : 1\\x0c2 3 : 4'"))),
    *((lambda text=text: parse_matrix_text(text), ParseError, message) for text, message in (
        ("", "line 1: empty matrix"), ("1 2\n3\n", "line 2: row has 1 entries, expected 2"),
        ("1 q\n", "line 1: bad number in '1 q'"),
        ("1_0 2\n", "line 1: underscore or non-ASCII character in '1_0 2'"))),
    *(row for token in ("nan", "-inf", "Infinity", "1e999") for row in (
        (lambda token=token: parse_form_text(f"kform k=2\n1 2 : 1\n2 3 : {token}\n"),
         ParseError, f"line 3: bad coefficient in '2 3 : {token}'"),
        (lambda token=token: parse_matrix_text(f"1 2\n3 {token}\n"), ParseError,
         f"line 2: bad number in '3 {token}'"))),
    (lambda: parse_form_text("kform k=2\n1 2 : 1\n1 2 3 : 1\n"), ArityError,
     "line 3: key (1, 2, 3) has arity 3, expected 2"),
    (lambda: extcalc.frobnicate, AttributeError, "module 'extcalc' has no attribute 'frobnicate'"),
]


@pytest.mark.parametrize("call, kind, message", API_REFUSALS,
                         ids=[message or kind.__name__ for _, kind, message in API_REFUSALS])
def test_refusal(call, kind, message):
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("default")
        with pytest.raises(Exception) as refused:
            call()
    assert type(refused.value) is kind
    if message is not None:
        assert str(refused.value) == message
