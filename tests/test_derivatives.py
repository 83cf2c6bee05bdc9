import math

import numpy as np
import pytest

from extcalc import (
    ArityError,
    DimensionError,
    FieldForm,
    KForm,
    ScalarField,
    dd_check,
    demo_two_form,
    exterior_d,
    f1,
    f2,
    f3,
    fd_gradient,
    fd_hessian,
    grad,
    hat,
    omega_gradient,
)
from extcalc.derivatives import HESS_STEP

P = np.array([1.0, 2.0, 3.0, 4.0])


def test_field_values_at_demo_point():
    assert f1(P) == 53.0
    assert f2(P) == pytest.approx(29.8414709848079, rel=1e-12)
    assert f3(P) == pytest.approx(25.4495997326938, rel=1e-12)


@pytest.mark.parametrize("point", [[1.0, 2.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0, 5.0]])
def test_demo_fields_refuse_points_outside_r4(point):
    for field in (f1, f2, f3):
        for evaluate in (field, field.gradient_at, field.hessian_at):
            with pytest.raises(DimensionError, match=r"R\^4, got a point in R\^%d" % len(point)):
                evaluate(point)
    # the point gate refuses R^2 and R^3 before any field runs; R^5 reaches the fields
    want = r"R\^4" if len(point) > 4 else r"point has dimension %d but wedge indices reach 4$" % len(point)
    with pytest.raises(DimensionError, match=want):
        dd_check(demo_two_form(), point)


def test_fd_gradient_f1():
    g = fd_gradient(f1.fn, P)
    assert g == pytest.approx([24.0, 13.0, 35.0, 6.0], abs=1e-6)


def test_fd_gradient_f2():
    g = fd_gradient(f2.fn, P)
    want = [48.0 + math.cos(1.0) + 1.0, 12.0, 8.0, 7.0]
    assert g == pytest.approx(want, abs=1e-6)


def test_fd_hessian_f1_integer_table():
    H = fd_hessian(f1.fn, P)
    want = np.array(
        [
            [0.0, 12.0, 8.0, 6.0],
            [12.0, 0.0, 4.0, 3.0],
            [8.0, 4.0, 18.0, 2.0],
            [6.0, 3.0, 2.0, 0.0],
        ]
    )
    assert np.max(np.abs(H - want)) < 1e-4


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


def test_fd_rejects_nonfinite_and_bad_steps():
    def blows_up(x):
        return 1.0 / (x[0] - 1.0)

    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ValueError):
            fd_gradient(blows_up, np.array([1.0, 0.0]))


def test_fd_hessian_refuses_a_non_finite_stencil():
    # finite at the point, infinite one step along x_1: the point passes the
    # gate, and the stencil built around it is refused
    def wall(x):
        return math.inf if x[0] > 1.0 else float(x[0] * x[1])

    assert wall(np.array([1.0, 2.0])) == 2.0
    with pytest.raises(ValueError, match="non-finite values in difference stencil"):
        fd_hessian(wall, np.array([1.0, 2.0]))


def test_grad_builds_one_form():
    g = grad([0.4, 0.1, -3.2, 1.5])
    assert g.terms == {(1,): 0.4, (2,): 0.1, (3,): -3.2, (4,): 1.5}
    assert grad([0.0, 2.0]).terms == {(2,): 2.0}
    with pytest.raises(ValueError):
        grad([])
    with pytest.raises(ValueError):
        grad(np.eye(2))


def test_field_form_validation():
    with pytest.raises(ValueError):
        FieldForm([])
    with pytest.raises(ValueError):
        FieldForm([(f1, (2, 1))])
    with pytest.raises(ArityError):
        FieldForm([(f1, (1, 2)), (f2, (1,))])
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


def test_exterior_d_dimension_guard():
    with pytest.raises(DimensionError):
        exterior_d(demo_two_form(), np.array([1.0, 2.0]))
    # every evaluation at a point refuses one below the form's dimension before any field runs
    calls = []
    form = FieldForm([(lambda p: calls.append(p) or p[0] * p[1] ** 2, (3,))])
    for at in (exterior_d, dd_check, FieldForm.coefficients_at):
        with pytest.raises(DimensionError, match="^point has dimension 2 but wedge indices reach 3$"):
            at(form, [1.0, 2.0])
    assert not calls


def test_analytic_derivatives_must_have_the_point_shape():
    # at a point of R^4 a supplied gradient is exactly (4,) and a supplied Hessian (4, 4)
    for g in (np.arange(1.0, 6.0), np.ones(2), np.ones((4, 1))):
        field = ScalarField(f1.fn, grad=lambda p, g=g: g)
        with pytest.raises(DimensionError, match="analytic gradient"):
            exterior_d(FieldForm([(field, (1, 2))]), P)
    for H in (np.ones((2, 2)), np.ones((4, 5)), np.ones(4)):
        field = ScalarField(f1.fn, hessian=lambda p, H=H: H)
        with pytest.raises(DimensionError, match="analytic Hessian"):
            dd_check(FieldForm([(field, (1, 2))]), P, analytic=True)


def test_dd_is_zero():
    fields = (f1, f2, f3)
    keys = ((1, 2), (1, 3), (3, 4))
    dd_fd = dd_check(FieldForm(zip(fields, keys)), P)
    worst_fd = max((abs(c) for c in dd_fd.terms.values()), default=0.0)
    assert worst_fd <= 1e-4
    dd_an = dd_check(FieldForm(zip(fields, keys)), P, analytic=True)
    assert not dd_an.terms


def test_dd_zero_exact_for_quadratic():
    q = ScalarField(
        lambda x: x[0] * x[1] + 3.0 * x[1] ** 2,
        hessian=lambda x: np.array([[0.0, 1.0], [1.0, 3.0 + 3.0]]),
    )
    out = dd_check(FieldForm([(q, (1,))]), np.array([0.3, -1.2]), analytic=True)
    assert not out.terms


def test_dd_check_validation():
    with pytest.raises(ValueError):
        dd_check(FieldForm([]), P)
    with pytest.raises(ValueError):
        dd_check(FieldForm(zip([f1, f2], [(1, 2)], strict=True)), P)


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
    with pytest.raises(ValueError):
        hat(1)
    # n keys of n - 1 indices: 1024 x 1023 fits MAX_ENUMERATION, 1025 x 1024 does not
    assert len(hat(1024)) == 1024
    with pytest.raises(ValueError, match="exceeds the bound"):
        hat(1025)


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
    with pytest.raises(ValueError):
        omega_gradient(np.zeros(3))
    with pytest.raises(ValueError):
        omega_gradient(np.array([2.0]))


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
