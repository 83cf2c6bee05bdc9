"""Numeric exterior derivatives of forms with scalar-field coefficients.

d(f dx_I) = (grad f) ^ dx_I, with the gradient taken analytically when
the field carries one and by central finite differences otherwise.
Includes the closed-form gradient of the classical (n-1)-form with an
isolated singularity at the origin, and the d(d(.)) = 0 check through
per-field Hessians.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .sparse import DimensionError, _check_integral, _check_key
from .forms import KForm, _canonical_rows, wedge
from .tensors import _finite_array

__all__ = [
    "fd_gradient",
    "fd_hessian",
    "ScalarField",
    "FieldForm",
    "grad",
    "exterior_d",
    "hat",
    "omega_gradient",
    "dd_check",
    "f1",
    "f2",
    "f3",
    "demo_two_form",
]

_EPS = float(np.finfo(float).eps)
GRAD_STEP = _EPS ** (1.0 / 3.0)
HESS_STEP = _EPS ** 0.25


def _steps(x: np.ndarray, base: float, h) -> np.ndarray:
    if h is not None:
        h = np.broadcast_to(np.asarray(h, dtype=float), x.shape).copy()
        if np.any(h <= 0):
            raise ValueError("steps must be positive")
        return h
    return base * np.maximum(1.0, np.abs(x))


def fd_gradient(f: Callable, x, h=None) -> np.ndarray:
    """Central-difference gradient with per-coordinate steps.

    Default step is cbrt(machine eps) * max(1, |x_i|).  x must be a
    finite 1-D point.
    """
    x = _finite_array(x, 1, "point")
    hs = _steps(x, GRAD_STEP, h)
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += hs[i]
        xm[i] -= hs[i]
        g[i] = (f(xp) - f(xm)) / (2.0 * hs[i])
    if not np.all(np.isfinite(g)):
        raise ValueError(f"non-finite values in difference stencil near {x}")
    return g


def fd_hessian(f: Callable, x, h=None) -> np.ndarray:
    """Finite-difference Hessian, entries computed independently.

    Default step is eps**0.25 * max(1, |x_i|).  Off-diagonal entries use
    the 4-point cross stencil; H[r, s] and H[s, r] are each computed
    from their own loop pass and no symmetrization is applied, since
    downstream checks rely on the raw mixed partials.  x must be a
    finite 1-D point.
    """
    x = _finite_array(x, 1, "point")
    n = x.size
    hs = _steps(x, HESS_STEP, h)
    H = np.empty((n, n))
    f0 = f(x)
    for r in range(n):
        for s in range(n):
            if r == s:
                xp = x.copy()
                xm = x.copy()
                xp[r] += hs[r]
                xm[r] -= hs[r]
                H[r, r] = (f(xp) - 2.0 * f0 + f(xm)) / hs[r] ** 2
                continue
            pp = x.copy()
            pm = x.copy()
            mp = x.copy()
            mm = x.copy()
            pp[r] += hs[r]
            pp[s] += hs[s]
            pm[r] += hs[r]
            pm[s] -= hs[s]
            mp[r] -= hs[r]
            mp[s] += hs[s]
            mm[r] -= hs[r]
            mm[s] -= hs[s]
            H[r, s] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4.0 * hs[r] * hs[s])
    if not np.all(np.isfinite(H)):
        raise ValueError(f"non-finite values in difference stencil near {x}")
    return H


@dataclass(frozen=True)
class ScalarField:
    """A scalar function of a point, optionally with analytic derivatives.

    `fn` reads the coordinates along axis 0: it receives shape (n,) for
    one point or (n, N) for N points and returns a scalar or an (N,)
    array (`w, x, y, z = p` unpacks either).  Calling the field
    evaluates one point; the Stokes integrators call `fn` on stacks.
    When `grad` or `hessian` is supplied it is used directly; otherwise
    finite differences stand in.  Suppliers of analytic derivatives are
    expected to cross-check them against fd_gradient to about 1e-5
    relative (the test suite does this for the built-in fields).
    """

    fn: Callable
    grad: Optional[Callable] = None
    hessian: Optional[Callable] = None

    def __call__(self, x) -> float:
        return float(self.fn(np.asarray(x, dtype=float)))

    def gradient_at(self, x, analytic: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if analytic and self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        return fd_gradient(self.fn, x)

    def hessian_at(self, x, analytic: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if analytic and self.hessian is not None:
            return np.asarray(self.hessian(x), dtype=float)
        return fd_hessian(self.fn, x)


def grad(values) -> KForm:
    """The 1-form sum_i values[i] dx_i (zero entries dropped)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("grad needs a nonempty 1-D vector of coefficients")
    return KForm._trusted(1, (((i + 1,), v) for i, v in enumerate(values.tolist())))


@dataclass(frozen=True)
class FieldForm:
    """A form whose coefficients are scalar fields: sum_j f_j dx_{I_j}.

    This is the one form-valued field: exterior_d and dd_check
    differentiate it at a point, and integrate_volume/integrate_boundary
    evaluate each coefficient on a whole face's node stack (see
    ScalarField for the protocol).  A plain callable coefficient is
    wrapped as ScalarField(fn), so its derivatives come from finite
    differences.  Keys must be strictly increasing tuples of 1-based
    integral indices sharing one arity.
    """

    terms: tuple

    def __init__(self, terms):
        pairs = [
            (field if isinstance(field, ScalarField) else ScalarField(field), tuple(key))
            for field, key in terms
        ]
        if not pairs:
            raise ValueError("need at least one (field, key) term")
        k = len(pairs[0][1])
        pairs = [(f, _check_key(key, k)) for f, key in pairs]
        for _, key in pairs:
            if any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(f"wedge keys must be strictly increasing, got {key}")
        object.__setattr__(self, "terms", tuple(pairs))

    @property
    def arity(self) -> int:
        return len(self.terms[0][1])

    @property
    def dimension(self) -> int:
        return max((max(key) for _, key in self.terms if key), default=0)

    def coefficients_at(self, x) -> KForm:
        """The plain KForm with each field evaluated at x."""
        return KForm._trusted(self.arity, ((key, field(x)) for field, key in self.terms))


def exterior_d(form: FieldForm, x, analytic: bool = True) -> KForm:
    """d(sum_j f_j dx_{I_j})(x) = sum_j (grad f_j)(x) ^ dx_{I_j}."""
    x = _finite_array(x, 1, "point")
    if x.size < form.dimension:
        raise DimensionError(
            f"point has dimension {x.size} but wedge indices reach {form.dimension}"
        )
    # each field's wedge has distinct keys, so one accumulation sums each key in field order
    items = []
    for field, key in form.terms:
        g = field.gradient_at(x, analytic=analytic)
        if g.size < form.dimension:
            raise DimensionError("gradient shorter than the wedge dimension")
        items.extend(wedge(grad(g), KForm._trusted(len(key), [(key, 1.0)])).terms.items())
    return KForm._trusted(form.arity + 1, items)


def hat(n: int) -> KForm:
    """The (n-1)-form sum_i dx_1 ^ ... ^ dx_{i-1} ^ dx_{i+1} ^ ... ^ dx_n."""
    n = _check_integral(n, "n")
    if n < 2:
        raise ValueError("hat needs n >= 2")
    full = tuple(range(1, n + 1))
    return KForm._trusted(n - 1, ((full[:i] + full[i + 1 :], 1.0) for i in range(n)))


def omega_gradient(x) -> KForm:
    """Closed-form gradient 1-form for the singular (n-1)-form.

    Coefficient i is (-1)^(i-1) (S^(n/2) - n x_i^2 S^(n/2-1)) / S^n with
    S = sum x_j^2; undefined at the origin.
    """
    x = _finite_array(x, 1, "point")
    n = x.size
    if n < 2:
        raise ValueError("need n >= 2")
    S = float(np.dot(x, x))
    if S == 0.0:
        raise ValueError("the form is singular at the origin")
    num = S ** (n / 2.0) - n * x**2 * S ** (n / 2.0 - 1.0)
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return grad(signs * num / S**n)


def dd_check(form: FieldForm, x, analytic: bool = False) -> KForm:
    """Assemble dd(sum_j f_j dx_{I_j})(x) from per-field Hessians.

    For each field the full Hessian (all n^2 entries, raw) feeds
    sum_{r,s} H[r,s] dx_r ^ dx_s, which is wedged with the field's key
    and accumulated.  Symmetric Hessians cancel exactly; finite
    difference Hessians cancel to stencil noise.
    """
    x = _finite_array(x, 1, "point")
    n = x.size
    pairs = [(r, s) for r in range(1, n + 1) for s in range(1, n + 1)]
    items = []
    for field, key in form.terms:
        H = field.hessian_at(x, analytic=analytic)
        two = KForm._trusted(2, _canonical_rows(pairs, [H[r - 1, s - 1] for r, s in pairs]))
        items.extend(wedge(two, KForm._trusted(len(key), [(key, 1.0)])).terms.items())
    return KForm._trusted(form.arity + 2, items)


# Built-in demo fields on R^4, arguments ordered (w, x, y, z).


def _wxyz(p):
    # the coordinates of a point (4,) or a stack (4, N) of points in R^4
    if len(p) != 4:
        raise DimensionError(f"the demo fields f1, f2, f3 live on R^4, got a point in R^{len(p)}")
    return p


def _f1(p):
    w, x, y, z = _wxyz(p)
    return x + y**3 + x * y * w * z


def _f1_grad(p):
    w, x, y, z = _wxyz(p)
    return np.array([x * y * z, 1.0 + y * w * z, 3.0 * y**2 + x * w * z, x * y * w])


def _f1_hess(p):
    w, x, y, z = _wxyz(p)
    return np.array(
        [
            [0.0, y * z, x * z, x * y],
            [y * z, 0.0, w * z, y * w],
            [x * z, w * z, 6.0 * y, x * w],
            [x * y, y * w, x * w, 0.0],
        ]
    )


def _f2(p):
    w, x, y, z = _wxyz(p)
    return w**2 * x * y * z + np.sin(w) + w + z


def _f2_grad(p):
    w, x, y, z = _wxyz(p)
    return np.array(
        [
            2.0 * w * x * y * z + np.cos(w) + 1.0,
            w**2 * y * z,
            w**2 * x * z,
            w**2 * x * y + 1.0,
        ]
    )


def _f2_hess(p):
    w, x, y, z = _wxyz(p)
    return np.array(
        [
            [2.0 * x * y * z - np.sin(w), 2.0 * w * y * z, 2.0 * w * x * z, 2.0 * w * x * y],
            [2.0 * w * y * z, 0.0, w**2 * z, w**2 * y],
            [2.0 * w * x * z, w**2 * z, 0.0, w**2 * x],
            [2.0 * w * x * y, w**2 * y, w**2 * x, 0.0],
        ]
    )


def _f3(p):
    w, x, y, z = _wxyz(p)
    return w * x * y * z + np.sin(x) + np.cos(w)


def _f3_grad(p):
    w, x, y, z = _wxyz(p)
    return np.array(
        [
            x * y * z - np.sin(w),
            w * y * z + np.cos(x),
            w * x * z,
            w * x * y,
        ]
    )


def _f3_hess(p):
    w, x, y, z = _wxyz(p)
    return np.array(
        [
            [-np.cos(w), y * z, x * z, x * y],
            [y * z, -np.sin(x), w * z, w * y],
            [x * z, w * z, 0.0, w * x],
            [x * y, w * y, w * x, 0.0],
        ]
    )


f1 = ScalarField(_f1, grad=_f1_grad, hessian=_f1_hess)
f2 = ScalarField(_f2, grad=_f2_grad, hessian=_f2_hess)
f3 = ScalarField(_f3, grad=_f3_grad, hessian=_f3_hess)


def demo_two_form() -> FieldForm:
    """The built-in 2-form f1 dx1^dx2 + f2 dx1^dx3 + f3 dx3^dx4 on R^4."""
    return FieldForm([(f1, (1, 2)), (f2, (1, 3)), (f3, (3, 4))])
