"""The field core: forms whose coefficients are functions of a point.

ScalarField and FieldForm, the frozen record base they share with the
Stokes domain and rule, the evaluation of a coefficient function at one
point, and the keys of hat(n).  extcalc.stokes integrates FieldForms;
extcalc.derivatives differentiates them.  Annotations name
extcalc.KForm, which the package resolves only when asked.
"""

from __future__ import annotations

import math

import extcalc

from .rules import _check_enumeration, _check_form_key, _check_integral

__all__ = ["ScalarField", "FieldForm"]


def _finite_array(A, ndim: int, what: str, min_rows: int = 0):
    # the array gate of extcalc.arrays, imported on first use: the keys and records need none
    from .arrays import _finite_array

    return _finite_array(A, ndim, what, min_rows)


def _value(fn, x) -> float:
    # fn at the point x as a float; Python's float ** raises OverflowError past the float
    # range (numpy gave inf), which reads as inf here, for the coefficient store to refuse
    try:
        return float(fn(x))
    except OverflowError:
        return math.inf


def _hat_keys(n: int) -> list:
    # the n keys of hat(n), 1..n without index i for i = 1..n; n is read as an integral n >= 2
    # and its n keys of n - 1 indices counted against MAX_ENUMERATION before the first is built
    n = _check_integral(n, "n")
    if n < 2:
        raise ValueError("hat needs n >= 2")
    _check_enumeration(n * (n - 1), "hat({0}): {0} keys x {1} indices", n, n - 1)
    full = tuple(range(1, n + 1))
    return [full[:i] + full[i + 1 :] for i in range(n)]


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
        from .derivatives import _analytic, fd_gradient

        if analytic and self.grad is not None:
            return _analytic(self.grad, x, 1, "gradient")
        return fd_gradient(self.fn, x)

    def hessian_at(self, x, analytic: bool = True):
        from .derivatives import _analytic, fd_hessian

        if analytic and self.hessian is not None:
            return _analytic(self.hessian, x, 2, "Hessian")
        return fd_hessian(self.fn, x)


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
        pairs = [(f, _check_form_key(key, k)) for f, key in pairs]
        self._set(terms=tuple(pairs))

    @property
    def arity(self) -> int:
        return len(self.terms[0][1])

    @property
    def dimension(self) -> int:
        return max((max(key) for _, key in self.terms if key), default=0)

    def coefficients_at(self, x) -> extcalc.KForm:
        """The plain KForm with each field evaluated at x."""
        return self._at(x, 0, lambda field, x: [((), _value(field.fn, x))])

    def _at(self, x, degree: int, rows) -> extcalc.KForm:
        # sum_j sum_R c_R dx_R ^ dx_{I_j} over the (R, c_R) index rows of degree `degree` that
        # rows(f_j, x) gives, x gated once, reach included, to a list of floats before any
        # field runs.  _canonical_rows signs each row R + I_j, and the storage kernel sums each
        # field's rows before the fields are summed in field order: a running sum S + a - b is
        # not S + (a - b), so a raw Hessian's (r, s) and (s, r) rows must meet first
        from .sparse import KForm, _accumulate, _canonical_rows

        x = _finite_array(x, 1, "point", self.dimension)[0]
        items = []
        for field, key in self.terms:
            items += _accumulate(_canonical_rows((R + key, c) for R, c in rows(field, x))).items()
        return KForm._trusted(degree + self.arity, items)
