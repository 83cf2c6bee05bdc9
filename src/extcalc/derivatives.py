"""Numeric exterior derivatives of forms with scalar-field coefficients.

d(f dx_I) = (grad f) ^ dx_I, with the gradient taken analytically when
the field carries one and by central finite differences otherwise.
Includes the closed-form gradient of the classical (n-1)-form with an
isolated singularity at the origin, and the d(d(.)) = 0 check through
per-field Hessians.

The module imports without numpy: a coefficient function gets one point
as a sequence of n Python floats.  Only the finite differences,
omega_gradient, the analytic branch of gradient_at and hessian_at (its
gate) and the demo fields f2 and f3 load numpy.  hat and FieldForm need
only extcalc.sparse; the array gate of extcalc.arrays loads on first use.
"""

from __future__ import annotations

import math
import sys

from .sparse import (DimensionError, KForm, _accumulate, _canonical_rows, _check_enumeration,
                     _check_integral)

__all__ = ["fd_gradient", "fd_hessian", "ScalarField", "FieldForm", "grad", "exterior_d", "hat",
           "omega_gradient", "dd_check", "f1", "f2", "f3", "demo_two_form"]

_EPS = sys.float_info.epsilon
GRAD_STEP = _EPS ** (1.0 / 3.0)
HESS_STEP = _EPS ** 0.25


def _finite_array(A, ndim: int, what: str, min_rows: int = 0):
    # the array gate of extcalc.arrays, imported on first use: hat and FieldForm need none
    from .arrays import _finite_array

    return _finite_array(A, ndim, what, min_rows)


def _gated(A, ndim: int, what: str):
    # the array gate's checked values as a float array of its shape
    import numpy as np

    values, shape = _finite_array(A, ndim, what)
    return np.array(values, dtype=float).reshape(shape)


def _value(fn, x) -> float:
    # fn at the point x as a float; Python's float ** raises OverflowError past the float
    # range (numpy gave inf), which reads as inf here, for the coefficient store to refuse
    try:
        return float(fn(x))
    except OverflowError:
        return math.inf


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
    import numpy as np

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
    import numpy as np

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


class _Record:
    """A frozen record of the fields named by __slots__, set once by __init__: equal,
    hashed and shown as the tuple of its fields, like a frozen dataclass."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ScalarField(_Record):
    """A scalar function of a point, optionally with analytic derivatives.

    `fn` takes one point, a sequence of n Python floats (`w, x, y, z = p`
    unpacks it), and returns a number.  Calling the field, its
    FieldForm's evaluations and the Stokes integrators all pass that
    protocol; the point passes the array gate first (a wrong shape
    raises DimensionError, NaN or inf ValueError).  Finite differences
    pass the shifted points as float arrays, which are such sequences.
    When `grad` or `hessian` is supplied it is used directly; otherwise
    finite differences stand in.  At a point of R^n a supplied gradient
    must have shape exactly (n,) and a supplied Hessian (n, n), else
    DimensionError; a NaN or infinite entry raises ValueError.
    Suppliers of analytic derivatives are expected to cross-check them
    against fd_gradient to about 1e-5 relative (the test suite does this
    for the built-in fields).
    """

    __slots__ = ("fn", "grad", "hessian")

    def __init__(self, fn, grad=None, hessian=None):
        self._set(fn=fn, grad=grad, hessian=hessian)

    def __call__(self, x) -> float:
        return _value(self.fn, _finite_array(x, 1, "point")[0])

    def gradient_at(self, x, analytic: bool = True):
        if analytic and self.grad is not None:
            return _analytic(self.grad, x, 1, "gradient")
        return fd_gradient(self.fn, x)

    def hessian_at(self, x, analytic: bool = True):
        if analytic and self.hessian is not None:
            return _analytic(self.hessian, x, 2, "Hessian")
        return fd_hessian(self.fn, x)


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


class FieldForm(_Record):
    """A form whose coefficients are scalar fields: sum_j f_j dx_{I_j}.

    This is the one form-valued field: coefficients_at, exterior_d and
    dd_check evaluate it at a point through one gated assembly, and
    integrate_volume/integrate_boundary evaluate each coefficient at
    each node; every caller passes one point as a sequence of n Python
    floats (see ScalarField for the protocol).  A plain
    callable coefficient is wrapped as ScalarField(fn), so its
    derivatives come from finite differences.  Keys must be strictly
    increasing tuples of 1-based integral indices sharing one arity.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        pairs = [(field if isinstance(field, ScalarField) else ScalarField(field), tuple(key))
                 for field, key in terms]
        if not pairs:
            raise ValueError("need at least one (field, key) term")
        k = len(pairs[0][1])
        pairs = [(f, KForm._key_rule(key, k)) for f, key in pairs]
        self._set(terms=tuple(pairs))

    @property
    def arity(self) -> int:
        return len(self.terms[0][1])

    @property
    def dimension(self) -> int:
        return max((max(key) for _, key in self.terms if key), default=0)

    def coefficients_at(self, x) -> KForm:
        """The plain KForm with each field evaluated at x."""
        return self._at(x, 0, lambda field, x: [((), _value(field.fn, x))])

    def _at(self, x, degree: int, rows) -> KForm:
        # sum_j sum_R c_R dx_R ^ dx_{I_j} over the (R, c_R) index rows of degree `degree` that
        # rows(f_j, x) gives, x gated once, reach included, to a list of floats before any
        # field runs.  _canonical_rows signs each row R + I_j, and the storage kernel sums each
        # field's rows before the fields are summed in field order: a running sum S + a - b is
        # not S + (a - b), so a raw Hessian's (r, s) and (s, r) rows must meet first
        x = _finite_array(x, 1, "point", self.dimension)[0]
        items = []
        for field, key in self.terms:
            items += _accumulate(_canonical_rows((R + key, c) for R, c in rows(field, x))).items()
        return KForm._trusted(degree + self.arity, items)


def exterior_d(form: FieldForm, x, analytic: bool = True) -> KForm:
    """d(sum_j f_j dx_{I_j})(x) = sum_j (grad f_j)(x) ^ dx_{I_j}."""
    return form._at(x, 1, lambda field, x: (((i,), g) for i, g in enumerate(
        field.gradient_at(x, analytic=analytic).tolist(), 1)))


def hat(n: int) -> KForm:
    """The (n-1)-form sum_i dx_1 ^ ... ^ dx_{i-1} ^ dx_{i+1} ^ ... ^ dx_n.

    Its n keys of n - 1 indices are counted against MAX_ENUMERATION
    before the first is built.
    """
    n = _check_integral(n, "n")
    if n < 2:
        raise ValueError("hat needs n >= 2")
    _check_enumeration(n * (n - 1), "hat({0}): {0} keys x {1} indices", n, n - 1)
    full = tuple(range(1, n + 1))
    return KForm._trusted(n - 1, ((full[:i] + full[i + 1 :], 1.0) for i in range(n)))


def omega_gradient(x) -> KForm:
    """Closed-form gradient 1-form for the singular (n-1)-form.

    Coefficient i is (-1)^(i-1) (S^(n/2) - n x_i^2 S^(n/2-1)) / S^n with
    S = sum x_j^2; undefined at the origin.
    """
    import numpy as np

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
    import numpy as np

    w, x, y, z = _wxyz(p)
    return w**2 * x * y * z + np.sin(w) + w + z


def _f2_grad(p):
    import numpy as np

    w, x, y, z = _wxyz(p)
    return np.array([2.0 * w * x * y * z + np.cos(w) + 1.0, w**2 * y * z, w**2 * x * z,
                     w**2 * x * y + 1.0])


def _f2_hess(p):
    import numpy as np

    w, x, y, z = _wxyz(p)
    return np.array([
        [2.0 * x * y * z - np.sin(w), 2.0 * w * y * z, 2.0 * w * x * z, 2.0 * w * x * y],
        [2.0 * w * y * z, 0.0, w**2 * z, w**2 * y],
        [2.0 * w * x * z, w**2 * z, 0.0, w**2 * x],
        [2.0 * w * x * y, w**2 * y, w**2 * x, 0.0]])


def _f3(p):
    import numpy as np

    w, x, y, z = _wxyz(p)
    return w * x * y * z + np.sin(x) + np.cos(w)


def _f3_grad(p):
    import numpy as np

    w, x, y, z = _wxyz(p)
    return np.array([x * y * z - np.sin(w), w * y * z + np.cos(x), w * x * z, w * x * y])


def _f3_hess(p):
    import numpy as np

    w, x, y, z = _wxyz(p)
    return np.array([[-np.cos(w), y * z, x * z, x * y], [y * z, -np.sin(x), w * z, w * y],
                     [x * z, w * z, 0.0, w * x], [x * y, w * y, w * x, 0.0]])


f1 = ScalarField(_f1, grad=_f1_grad, hessian=_f1_hess)
f2 = ScalarField(_f2, grad=_f2_grad, hessian=_f2_hess)
f3 = ScalarField(_f3, grad=_f3_grad, hessian=_f3_hess)


def demo_two_form() -> FieldForm:
    """The built-in 2-form f1 dx1^dx2 + f2 dx1^dx3 + f3 dx3^dx4 on R^4."""
    return FieldForm([(f1, (1, 2)), (f2, (1, 3)), (f3, (3, 4))])
