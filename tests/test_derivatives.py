import functools
import itertools
import math
import operator
import random

import numpy as np
import pytest

from extcalc import (
    DimensionError,
    FieldForm,
    KForm,
    ScalarField,
    dd_check,
    demo_two_form,
    elementary,
    exterior_d,
    f1,
    f2,
    f3,
    fd_gradient,
    fd_hessian,
    grad,
    hat,
    omega_gradient,
    wedge,
)
from extcalc.derivatives import HESS_STEP

P = np.array([1.0, 2.0, 3.0, 4.0])


def test_field_values_at_demo_point():
    assert f1(P) == 53.0
    assert f2(P) == pytest.approx(29.8414709848079, rel=1e-12)
    assert f3(P) == pytest.approx(25.4495997326938, rel=1e-12)


def test_fd_gradient_f1():
    g = fd_gradient(f1.fn, P)
    assert g == pytest.approx([24.0, 13.0, 35.0, 6.0], abs=1e-6)


def test_fd_gradient_f2():
    g = fd_gradient(f2.fn, P)
    want = [48.0 + math.cos(1.0) + 1.0, 12.0, 8.0, 7.0]
    assert g == pytest.approx(want, abs=1e-6)


def test_fd_hessian_keeps_each_raw_cross_stencil():
    # H[0, 1] and H[1, 0] read the same four values but sum them in different orders;
    # near this zero crossing the two sums round apart, and neither may be replaced by
    # their mean: dd_check relies on the raw mixed partials
    def f(p):
        return np.sin(3 * p[0]) * np.cos(5 * p[1]) + 0.1 * p[0]

    x = np.array([1e-4, 2e-4])
    h = HESS_STEP * np.maximum(1.0, np.abs(x))

    def at(a, b):
        y = x.copy()
        y[0] += a * h[0]
        y[1] += b * h[1]
        return f(y)

    H = fd_hessian(f, x)
    assert H[0, 1] == (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4.0 * h[0] * h[1])
    assert H[1, 0] == (at(1, 1) - at(-1, 1) - at(1, -1) + at(-1, -1)) / (4.0 * h[1] * h[0])
    assert H[0, 1] != H[1, 0]


def test_analytic_derivatives_match_fd():
    rng = np.random.default_rng(7)
    for field in (f1, f2, f3):
        for _ in range(30):
            x = rng.uniform(-2.0, 2.0, 4)
            g_fd = fd_gradient(field.fn, x)
            g_an = field.gradient_at(x)
            assert np.max(np.abs(g_fd - g_an)) < 1e-5 * max(
                1.0, float(np.max(np.abs(g_an)))
            )
            H_fd = fd_hessian(field.fn, x)
            H_an = field.hessian_at(x)
            assert np.max(np.abs(H_fd - H_an)) < 1e-3 * max(
                1.0, float(np.max(np.abs(H_an)))
            )
            assert np.array_equal(H_an, H_an.T)


def test_grad_builds_one_form():
    g = grad([0.4, 0.1, -3.2, 1.5])
    assert g.terms == {(1,): 0.4, (2,): 0.1, (3,): -3.2, (4,): 1.5}
    assert grad([0.0, 2.0]).terms == {(2,): 2.0}


def test_demo_two_form_is_a_2_form_on_r4():
    form = demo_two_form()
    assert form.arity == 2 and form.dimension == 4


def test_field_form_and_kform_refuse_a_decreasing_key_with_one_message():
    with pytest.raises(ValueError) as field:
        FieldForm([(f1, (2, 1))])
    with pytest.raises(ValueError) as form:
        KForm(2, {(2, 1): 1.0})
    assert str(field.value) == str(form.value)


def test_field_form_and_kform_show_the_checked_key():
    # integral floats and numpy integers are read as the ints they equal, in both messages
    for key in ((2.0, 1.0), (np.int64(3), np.int64(3))):
        with pytest.raises(ValueError) as field:
            FieldForm([(f1, key)])
        with pytest.raises(ValueError) as form:
            KForm(2, {key: 1.0})
        shown = tuple(map(int, key))
        assert str(field.value) == str(form.value) == (
            f"form keys must be strictly increasing, got {shown}; "
            "use kform_from_rows to canonicalize raw rows")


def test_coefficients_at_demo_point():
    w = demo_two_form().coefficients_at(P)
    assert w.terms[(1, 2)] == 53.0
    assert w.terms[(1, 3)] == pytest.approx(29.8414709848079, rel=1e-12)
    assert w.terms[(3, 4)] == pytest.approx(25.4495997326938, rel=1e-12)


def test_exterior_d_demo_values():
    want = {
        (1, 2, 3): 23.0,
        (2, 3, 4): 11.58385,
        (1, 2, 4): 6.0,
        (1, 3, 4): 30.15853,
    }
    for analytic in (True, False):
        out = exterior_d(demo_two_form(), P, analytic=analytic)
        assert set(out.terms) == set(want)
        for key, val in want.items():
            assert out.terms[key] == pytest.approx(val, abs=1e-4)
    exact = exterior_d(demo_two_form(), P, analytic=True)
    assert exact.terms[(1, 2, 3)] == pytest.approx(23.0, abs=1e-12)
    assert exact.terms[(2, 3, 4)] == pytest.approx(12.0 + math.cos(2.0), rel=1e-12)
    assert exact.terms[(1, 3, 4)] == pytest.approx(
        7.0 + 24.0 - math.sin(1.0), rel=1e-12
    )


def test_exterior_d_of_scalar_form_is_gradient():
    form = FieldForm([(f1, ())])
    out = exterior_d(form, P)
    assert out.terms == {(1,): 24.0, (2,): 13.0, (3,): 35.0, (4,): 6.0}


def test_exterior_d_of_constant_is_zero():
    const = ScalarField(lambda x: 4.5, grad=lambda x: np.zeros(x.size))
    out = exterior_d(FieldForm([(const, (1, 2))]), P)
    assert not out.terms
    # fd route lands on exactly zero too: the stencil is symmetric
    out = exterior_d(FieldForm([(const, (1, 2))]), P, analytic=False)
    assert out.zap(1e-12).terms == {}


def test_exterior_d_accepts_plain_callables():
    form = FieldForm([(lambda x: x[0] * x[1], (3,))])
    out = exterior_d(form, np.array([2.0, 5.0, 0.0]))
    assert out.terms[(1, 3)] == pytest.approx(5.0, abs=1e-8)
    assert out.terms[(2, 3)] == pytest.approx(2.0, abs=1e-8)


def test_exterior_d_at_a_point_of_r0_is_the_zero_one_form():
    out = exterior_d(FieldForm([(lambda p: 2.5, ())]), [])
    assert out.arity == 1 and not out.terms


def _quadratic(rng, n: int) -> ScalarField:
    # sum_i a_i x_i + sum_{i<j} b_ij x_i x_j with its analytic derivatives, some a_i and b_ij
    # +0.0 or -0.0; the Hessian's (j, i) entry is b_ij * (1 + 2^-52), so that its (i, j) and
    # (j, i) entries round apart as raw cross stencils do
    def pick():
        return rng.choice([0.0, -0.0, rng.uniform(-3.0, 3.0)])

    a = [pick() for _ in range(n)]
    b = {(i, j): pick() for i, j in itertools.combinations(range(n), 2)}

    def fn(p):
        return sum(map(operator.mul, a, p)) + sum(c * p[i] * p[j] for (i, j), c in b.items())

    def gradient(p):
        return [a[i] + sum(c * p[j + k - i] for (j, k), c in b.items() if i in (j, k))
                for i in range(n)]

    def hessian(p):
        H = [[0.0] * n for _ in range(n)]
        for (i, j), c in b.items():
            H[i][j], H[j][i] = c, c * (1.0 + 2.0**-52)
        return H

    return ScalarField(fn, grad=gradient, hessian=hessian)


def _seeded_field_forms(seed: int):
    # (form, point) pairs on R^2..R^6 with keys of every length, odd ones included, 2 to 4
    # fields of which the first two share a key; every other field is a plain callable, which
    # finite differences differentiate; some point entries are 0.0
    rng = random.Random(seed)
    for t in range(40):
        n = 2 + t % 5
        keys = list(itertools.combinations(range(1, n + 1), t % (n + 1)))
        chosen = [keys[0], keys[0]] + rng.choices(keys, k=rng.randint(0, 2))
        fields = [_quadratic(rng, n) for _ in chosen]
        fields = [f if j % 2 else f.fn for j, f in enumerate(fields)]
        yield FieldForm(zip(fields, chosen)), [rng.choice([0.0, rng.uniform(-2.0, 2.0)])
                                               for _ in range(n)]


def _wedged(form: FieldForm, coefficient) -> KForm:
    # sum_j c_j ^ dx_{I_j} in field order, each c_j = coefficient(f_j) wedged with dx_{I_j}
    return functools.reduce(operator.add, (wedge(coefficient(field), KForm(len(key), {key: 1.0}))
                                           for field, key in form.terms))


def _hexed(w: KForm):
    return w.arity, [(key, c.hex()) for key, c in w.terms.items()]


def test_field_evaluations_equal_the_wedged_sum_bitwise():
    for form, x in _seeded_field_forms(7):
        n = len(x)
        assert _hexed(form.coefficients_at(x)) == _hexed(
            _wedged(form, lambda f: KForm(0, {(): f(x)})))
        for analytic in (True, False):
            assert _hexed(exterior_d(form, x, analytic)) == _hexed(_wedged(form, lambda f: KForm(
                1, {(i,): g for i, g in enumerate(f.gradient_at(x, analytic), 1)})))
            # the raw 2-form sum_{r,s} H[r,s] dx_r ^ dx_s, H[r,s] and H[s,r] each its own term
            assert _hexed(dd_check(form, x, analytic)) == _hexed(_wedged(form, lambda f: sum(
                (wedge(elementary(r + 1), elementary(s + 1)).scale(h)
                 for r, row in enumerate(f.hessian_at(x, analytic).tolist())
                 for s, h in enumerate(row)), KForm(2))))


def test_exterior_d_dimension_guard():
    # every evaluation at a point refuses one below the form's dimension before any field runs
    calls = []
    form = FieldForm([(lambda p: calls.append(p) or p[0] * p[1] ** 2, (3,))])
    for at in (exterior_d, dd_check, FieldForm.coefficients_at):
        with pytest.raises(DimensionError, match="^point has length 2 but indices reach 3$"):
            at(form, [1.0, 2.0])
    assert not calls


def test_dd_zero_exact_for_quadratic():
    q = ScalarField(
        lambda x: x[0] * x[1] + 3.0 * x[1] ** 2,
        hessian=lambda x: np.array([[0.0, 1.0], [1.0, 3.0 + 3.0]]),
    )
    out = dd_check(FieldForm([(q, (1,))]), np.array([0.3, -1.2]), analytic=True)
    assert not out.terms


def test_hat_structure():
    h5 = hat(5)
    assert h5.arity == 4 and len(h5) == 5
    assert h5.terms == {
        (2, 3, 4, 5): 1.0,
        (1, 3, 4, 5): 1.0,
        (1, 2, 4, 5): 1.0,
        (1, 2, 3, 5): 1.0,
        (1, 2, 3, 4): 1.0,
    }
    assert hat(2).terms == {(1,): 1.0, (2,): 1.0}
    # n keys of n - 1 indices: 1024 x 1023 fits MAX_ENUMERATION
    assert len(hat(1024)) == 1024


def test_omega_gradient_small_cases():
    g = omega_gradient(np.array([1.0, 0.0]))
    assert g.terms == {(1,): -1.0, (2,): -1.0}
    # displayed reference values at x = (1, ..., 5)
    g = omega_gradient(np.arange(1.0, 6.0))
    want = {
        (1,): 4.05e-05,
        (2,): -2.84e-05,
        (3,): 8.10e-06,
        (4,): 2.03e-05,
        (5,): -5.67e-05,
    }
    for key, val in want.items():
        assert g.terms[key] == pytest.approx(val, rel=5e-3)


def test_omega_gradient_matches_fd_oracle():
    # differentiate g_i(t) = (-1)^(i-1) t_i S(t)^(-n/2) directly and
    # compare component i of the assembled diagonal d-coefficients
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 7):
        x = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        g = omega_gradient(x)

        def df_i(i):
            def gi(t):
                S = float(np.dot(t, t))
                return (-1.0) ** (i - 1) * t[i - 1] * S ** (-n / 2.0)

            return fd_gradient(gi, x)[i - 1]

        for i in range(1, n + 1):
            assert g.terms.get((i,), 0.0) == pytest.approx(df_i(i), rel=1e-5, abs=1e-9)


def test_omega_closedness_at_a_point():
    x = np.array([0.7, -1.1, 0.4, 2.2, -0.3])
    out = omega_gradient(x) ^ hat(5)
    assert max((abs(c) for c in out.terms.values()), default=0.0) < 1e-12


def test_dd_demo_wedge_keys_match_help():
    # d(d(phi)) for the demo 2-form assembles through the same keys the
    # exterior_d route produces
    dd = dd_check(FieldForm(zip((f1, f2, f3), ((1, 2), (1, 3), (3, 4)))), P, analytic=True)
    assert dd.arity == 4
