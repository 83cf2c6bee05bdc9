"""Numeric exterior derivatives of forms with scalar-field coefficients.

d(f dx_I) = (grad f) ^ dx_I, with the gradient taken analytically when
the field carries one and by central finite differences otherwise.
Includes the closed-form gradient of the classical (n-1)-form with an
isolated singularity at the origin, the d(d(.)) = 0 check through
per-field Hessians (dd_check), and check_dd_zero, its report for the
demo 2-form, which `verify ddzero` runs.  ScalarField and FieldForm
live in extcalc.fields, the field core, and are bound here too.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .rules import DimensionError
from .sparse import KForm
from .arrays import _finite_array
from .fields import FieldForm, ScalarField, _hat_keys

__all__ = ["fd_gradient", "fd_hessian", "ScalarField", "FieldForm", "grad", "exterior_d", "hat",
           "omega_gradient", "dd_check", "f1", "f2", "f3", "demo_two_form"]

_EPS = sys.float_info.epsilon
GRAD_STEP = _EPS ** (1.0 / 3.0)
HESS_STEP = _EPS ** 0.25


def _gated(A, ndim: int, what: str):
    # the array gate's checked values as a float array of its shape
    values, shape = _finite_array(A, ndim, what)
    return np.array(values, dtype=float).reshape(shape)


def _shifted(f, x, hs, *moves):
    # f at a copy of x moved by sign * hs[i] along each (i, sign); x + (-h) is x - h in IEEE
    y = x.copy()
    for i, sign in moves:
        y[i] += sign * hs[i]
    return f(y)


def fd_gradient(f, x):
    """Central-difference gradient with per-coordinate steps, as a numpy
    array of shape (n,).

    The step is cbrt(machine eps) * max(1, |x_i|).  x must be a finite
    1-D point.
    """
    x = _gated(x, 1, "point")
    hs = GRAD_STEP * np.maximum(1.0, np.abs(x))
    g = np.empty_like(x)
    for i in range(x.size):
        g[i] = (_shifted(f, x, hs, (i, 1)) - _shifted(f, x, hs, (i, -1))) / (2.0 * hs[i])
    if not np.all(np.isfinite(g)):
        raise ValueError(f"non-finite values in difference stencil near {x}")
    return g


def fd_hessian(f, x):
    """Finite-difference Hessian as a numpy array of shape (n, n), entries
    computed independently.

    The step is eps**0.25 * max(1, |x_i|).  Off-diagonal entries use
    the 4-point cross stencil; H[r, s] and H[s, r] are each computed
    from their own loop pass and no symmetrization is applied, since
    downstream checks rely on the raw mixed partials.  x must be a
    finite 1-D point.
    """
    x = _gated(x, 1, "point")
    n = x.size
    hs = HESS_STEP * np.maximum(1.0, np.abs(x))
    H = np.empty((n, n))
    f0 = f(x)
    for r in range(n):
        for s in range(n):
            if r == s:
                fp, fm = _shifted(f, x, hs, (r, 1)), _shifted(f, x, hs, (r, -1))
                H[r, r] = (fp - 2.0 * f0 + fm) / hs[r] ** 2
                continue
            pp, pm, mp, mm = (_shifted(f, x, hs, (r, a), (s, b))
                              for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)))
            H[r, s] = (pp - pm - mp + mm) / (4.0 * hs[r] * hs[s])
    if not np.all(np.isfinite(H)):
        raise ValueError(f"non-finite values in difference stencil near {x}")
    return H


def _analytic(derivative, x, ndim: int, what: str):
    # a supplied derivative at the gated point x, through the array gate and then held to the
    # point's exact shape, (n,) for ndim 1 and (n, n) for 2
    x = _gated(x, 1, "point")
    A = _gated(derivative(x), ndim, f"analytic {what}")
    if A.shape != (x.size,) * ndim:
        raise DimensionError(f"analytic {what} has shape {A.shape} at a point of R^{x.size}")
    return A


def grad(values) -> KForm:
    """The 1-form sum_i values[i] dx_i (zero entries dropped)."""
    values = _finite_array(values, 1, "gradient", min_rows=1)[0]
    return KForm._trusted(1, (((i + 1,), v) for i, v in enumerate(values)))


def exterior_d(form: FieldForm, x, analytic: bool = True) -> KForm:
    """d(sum_j f_j dx_{I_j})(x) = sum_j (grad f_j)(x) ^ dx_{I_j}."""
    return form._at(x, 1, lambda field, x: (((i,), g) for i, g in enumerate(
        field.gradient_at(x, analytic=analytic).tolist(), 1)))


def hat(n: int) -> KForm:
    """The (n-1)-form sum_i dx_1 ^ ... ^ dx_{i-1} ^ dx_{i+1} ^ ... ^ dx_n.

    Its n keys of n - 1 indices are counted against MAX_ENUMERATION
    before the first is built.
    """
    keys = _hat_keys(n)
    return KForm._trusted(len(keys) - 1, ((key, 1.0) for key in keys))


def omega_gradient(x) -> KForm:
    """Closed-form gradient 1-form for the singular (n-1)-form.

    Coefficient i is (-1)^(i-1) (S^(n/2) - n x_i^2 S^(n/2-1)) / S^n with
    S = sum x_j^2; undefined at the origin.
    """
    x = _gated(x, 1, "point")
    n = x.size
    if n < 2:
        raise ValueError("need n >= 2")
    S = float(np.dot(x, x))
    if S == 0.0:
        raise ValueError("the form is singular at the origin")
    num = S ** (n / 2.0) - n * x**2 * S ** (n / 2.0 - 1.0)
    # (-1)^(i-1) * num_i / S^n, the sign flipped by negation, which is exact either side of /
    return grad([-q if i % 2 else q for i, q in enumerate((num / S**n).tolist())])


def dd_check(form: FieldForm, x, analytic: bool = False) -> KForm:
    """Assemble dd(sum_j f_j dx_{I_j})(x) from per-field Hessians.

    For each field every entry of the full Hessian (all n^2, raw) is
    the index row (r, s, *I) with coefficient H[r,s], so the field adds
    sum_{r,s} H[r,s] dx_r ^ dx_s ^ dx_I.  Symmetric Hessians cancel
    exactly; finite difference Hessians cancel to stencil noise.
    """
    return form._at(x, 2, lambda field, x: (
        ((r, s), h) for r, row in enumerate(field.hessian_at(x, analytic=analytic).tolist(), 1)
        for s, h in enumerate(row, 1)))


# Built-in demo fields on R^4, arguments ordered (w, x, y, z).


def _wxyz(p):
    # the coordinates of a point in R^4
    if len(p) != 4:
        raise DimensionError(f"the demo fields f1, f2, f3 live on R^4, got a point in R^{len(p)}")
    return p


def _f1(p):
    w, x, y, z = _wxyz(p)
    return x + y**3 + x * y * w * z


def _f1_grad(p):
    w, x, y, z = _wxyz(p)
    return [x * y * z, 1.0 + y * w * z, 3.0 * y**2 + x * w * z, x * y * w]


def _f1_hess(p):
    w, x, y, z = _wxyz(p)
    return [[0.0, y * z, x * z, x * y], [y * z, 0.0, w * z, y * w],
            [x * z, w * z, 6.0 * y, x * w], [x * y, y * w, x * w, 0.0]]


def _f2(p):
    w, x, y, z = _wxyz(p)
    return w**2 * x * y * z + np.sin(w) + w + z


def _f2_grad(p):
    w, x, y, z = _wxyz(p)
    return np.array([2.0 * w * x * y * z + np.cos(w) + 1.0, w**2 * y * z, w**2 * x * z,
                     w**2 * x * y + 1.0])


def _f2_hess(p):
    w, x, y, z = _wxyz(p)
    return np.array([
        [2.0 * x * y * z - np.sin(w), 2.0 * w * y * z, 2.0 * w * x * z, 2.0 * w * x * y],
        [2.0 * w * y * z, 0.0, w**2 * z, w**2 * y],
        [2.0 * w * x * z, w**2 * z, 0.0, w**2 * x],
        [2.0 * w * x * y, w**2 * y, w**2 * x, 0.0]])


def _f3(p):
    w, x, y, z = _wxyz(p)
    return w * x * y * z + np.sin(x) + np.cos(w)


def _f3_grad(p):
    w, x, y, z = _wxyz(p)
    return np.array([x * y * z - np.sin(w), w * y * z + np.cos(x), w * x * z, w * x * y])


def _f3_hess(p):
    w, x, y, z = _wxyz(p)
    return np.array([[-np.cos(w), y * z, x * z, x * y], [y * z, -np.sin(x), w * z, w * y],
                     [x * z, w * z, 0.0, w * x], [x * y, w * y, w * x, 0.0]])


f1 = ScalarField(_f1, grad=_f1_grad, hessian=_f1_hess)
f2 = ScalarField(_f2, grad=_f2_grad, hessian=_f2_hess)
f3 = ScalarField(_f3, grad=_f3_grad, hessian=_f3_hess)


def demo_two_form() -> FieldForm:
    """The built-in 2-form f1 dx1^dx2 + f2 dx1^dx3 + f3 dx3^dx4 on R^4."""
    return FieldForm([(f1, (1, 2)), (f2, (1, 3)), (f3, (3, 4))])


DEMO_POINT = (1.0, 2.0, 3.0, 4.0)


def _report(name: str, cases: int, errors, tol: float, **extra) -> dict:
    # the one reduction of a check's errors; max() would drop a NaN
    # (max(0.0, nan) is 0.0) and so pass the check: refuse it instead
    max_err = 0.0
    for err in errors:
        if math.isnan(err):
            raise ValueError(f"check {name}: an error came out NaN")
        max_err = max(max_err, err)
    out = {
        "name": name,
        "cases": cases,
        "max_err": float(max_err),
        "tol": float(tol),
        "passed": bool(max_err <= tol),
    }
    out.update(extra)
    return out


def check_dd_zero(x=DEMO_POINT) -> dict:
    """d(d(phi)) = 0 for the demo 2-form, both Hessian routes."""
    phi = demo_two_form()
    fd = dd_check(phi, x, analytic=False)
    an = dd_check(phi, x, analytic=True)
    fd_max = max(map(abs, fd.terms.values()), default=0.0)
    an_max = max(map(abs, an.terms.values()), default=0.0)
    out = _report("dd-zero", 2, [fd_max], 1e-4, fd_max=fd_max, analytic_max=an_max)
    out["passed"] = bool(fd_max <= 1e-4 and an_max <= 1e-12)
    return out
