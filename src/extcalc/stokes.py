"""Stokes's theorem on axis-aligned hypercubes, checked by quadrature.

The boundary integral of an (n-1)-form field over the 2n oriented faces
of [0, a]^n is compared against the volume integral of its exterior
derivative and, for the built-in example pair, a closed-form value.
Tensor-product Gauss-Legendre quadrature is exact here because every
integrand is polynomial per axis.  On the face x_i = const the tangent
frame e_j (j != i) has one nonzero minor, on the key without i (Spivak,
Thm 4-13), so the face integrand is the form's coefficient on that key.

Integrands are FieldForms.  Each coefficient function is called once
per face on the (n, N) stack of that face's N nodes (coordinates along
axis 0) and returns their N values, so no form is built per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sparse import DimensionError, _check_enumeration, _check_finite, _check_integral
from .forms import KForm
from .derivatives import FieldForm, _gated, hat

__all__ = [
    "CubeDomain",
    "QuadratureRule",
    "phi_example",
    "dphi_example",
    "closed_form_value",
    "integrate_volume",
    "integrate_boundary",
    "verify_stokes",
    "verify_det_proportionality",
]

@dataclass(frozen=True)
class CubeDomain:
    """The cube [0, a]^n; n must be integral."""

    n: int
    a: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n", _check_integral(self.n, "n"))
        if self.n < 2:
            raise ValueError("need n >= 2")
        if not self.a > 0:
            raise ValueError("need edge length a > 0")
        _check_finite(self.a)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights on [0, a], m points per axis."""

    m: int
    a: float
    points: np.ndarray
    weights: np.ndarray

    @classmethod
    def gauss_legendre(cls, m: int, a: float) -> "QuadratureRule":
        m = _check_integral(m, "m")
        if m < 2:
            raise ValueError("need at least 2 points per axis")
        if not a > 0:
            raise ValueError("need a > 0")
        _check_finite(a)
        t, w = np.polynomial.legendre.leggauss(m)
        return cls(m=m, a=float(a), points=(t + 1.0) * (a / 2.0), weights=w * (a / 2.0))


def _axis_numbers(x) -> np.ndarray:
    # 1..n, shaped to broadcast along axis 0 of a point (n,) or a stack (n, N)
    return np.arange(1, len(x) + 1).reshape((-1,) + (1,) * (np.ndim(x) - 1))


def _phi_coefficient(x):
    # sum_i (-1)^(i-1) x_i^i, scaled in place to hold one stack-sized temporary
    i = _axis_numbers(x)
    terms = x**i
    terms *= np.where(i % 2 == 1, 1.0, -1.0)
    return np.sum(terms, axis=0)


def _dphi_coefficient(x):
    # sum_j j x_j^(j-1), written by hand rather than derived from phi
    j = _axis_numbers(x)
    terms = x ** (j - 1)
    terms *= j
    return np.sum(terms, axis=0)


def _example_pair(n: int) -> tuple[FieldForm, FieldForm]:
    # phi = coefficient * hat(n) and dphi = coefficient * dx_1^...^dx_n; hat(n) holds the bound
    phi = FieldForm((_phi_coefficient, key) for key in hat(n).terms)
    return phi, FieldForm([(_dphi_coefficient, tuple(range(1, n + 1)))])


def _point(x) -> np.ndarray:
    x = _gated(x, 1, "point")
    if x.size < 2:
        raise ValueError("need a point in dimension >= 2")
    return x


def phi_example(x) -> KForm:
    """The example (n-1)-form: (sum_i (-1)^(i-1) x_i^i) * hat(n)."""
    x = _point(x)
    return _example_pair(x.size)[0].coefficients_at(x)


def dphi_example(x) -> KForm:
    """Exterior derivative of phi_example: (sum_j j x_j^(j-1)) dx_1^...^dx_n."""
    x = _point(x)
    return _example_pair(x.size)[1].coefficients_at(x)


def closed_form_value(n: int, a: float) -> float:
    """a^(n-1) * (a + a^2 + ... + a^n), the exact integral for the pair.

    a must be finite, and a value that overflows a float raises
    ValueError.
    """
    a = _check_finite(a)
    try:
        value = a ** (n - 1) * sum(a**j for j in range(1, n + 1))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the closed form overflows at n = {n}, a = {a}")
    return value


def _node_grid(rule: QuadratureRule, k: int) -> tuple[np.ndarray, np.ndarray]:
    # the (k, m^k) nodes of k axes in lexicographic order, and each node's
    # weight as the left-to-right product of its per-axis weights; the
    # index stack is freed on return, before any coefficient runs
    index = np.indices((rule.m,) * k).reshape(k, -1)
    weights = np.ones(index.shape[1])
    for row in index:
        weights = weights * rule.weights[row]
    return rule.points[index], weights


def _integrate(field: FieldForm, cube: CubeDomain, rule: QuadratureRule, faces) -> float:
    # sum orient * w * (coefficient on key) over each (fixed axis or None,
    # side, orient, key) face's nodes in lexicographic order, left to right
    if rule.a != cube.a:
        raise ValueError("quadrature rule was built for a different edge length")
    if not isinstance(field, FieldForm):
        raise TypeError(f"integrand must be a FieldForm, got {type(field).__name__}")
    n = cube.n
    degree = len(faces[0][3])
    if field.arity != degree or field.dimension > n:
        raise DimensionError(f"integrand must be a {degree}-form on R^{n}, got degree "
                             f"{field.arity} with indices reaching {field.dimension}")
    # every face's free axes are its key's, so one grid serves all faces
    grid, weights = _node_grid(rule, degree)
    total = 0.0
    for fixed, side, orient, key in faces:
        X = grid if fixed is None else np.insert(grid, fixed, side, axis=0)
        c = np.zeros(X.shape[1])
        for f, k in field.terms:
            if k == key:
                c = c + np.broadcast_to(np.asarray(f.fn(X), dtype=float), c.shape)
        for term in (orient * weights * c).tolist():
            total += term
    return total


def integrate_volume(field: FieldForm, cube: CubeDomain, rule: QuadratureRule) -> float:
    """Integrate a degree-n FieldForm over the cube.

    Each coefficient function is called once, on the (n, m^n) node
    stack.  Nodes are accumulated left to right in lexicographic order,
    so results are bitwise deterministic.
    """
    return _integrate(field, cube, rule, [(None, 0.0, 1.0, tuple(range(1, cube.n + 1)))])


def integrate_boundary(field: FieldForm, cube: CubeDomain, rule: QuadratureRule) -> float:
    """Integrate a degree-(n-1) FieldForm over the oriented boundary.

    Face x_i = a carries orientation (-1)^(i-1) and face x_i = 0
    carries (-1)^i; the tangent frame on both is the standard basis
    vectors e_j, j != i, in increasing order.  This sign convention is
    pinned by the Green's-theorem case x1 dx2 - x2 dx1 on [0,1]^2
    integrating to +2.  The integrand is the coefficient on the key
    without i, read once per face on the (n, m^(n-1)) node stack; faces
    and then nodes are accumulated left to right.
    """
    full = tuple(range(1, cube.n + 1))
    faces = [
        (i - 1, side, orient, full[: i - 1] + full[i:])
        for i in full
        for side, orient in ((cube.a, (-1.0) ** (i - 1)), (0.0, (-1.0) ** i))
    ]
    return _integrate(field, cube, rule, faces)


def verify_stokes(n: int, a: float = 1.0, m: int = 8) -> dict:
    """Boundary, volume, and closed-form values for the example pair.

    Returns {"n", "a", "m", "boundary", "volume", "closed_form",
    "err_bv", "err_vc"} with absolute differences.  n and m must be
    integral, n between 2 and 6, and more than MAX_ENUMERATION volume
    nodes (m^n) are refused before the rule is built.  A report that
    would hold NaN or infinity raises ValueError; an overflowing closed
    form is refused before the quadrature.
    """
    n, m = _check_integral(n, "n"), _check_integral(m, "m")
    if not 2 <= n <= 6:
        raise ValueError("n must be between 2 and 6 (m^n volume nodes)")
    if m > 1:  # the rule itself refuses m < 2
        _check_enumeration(f"verify_stokes: m^n = {m}^{n} volume nodes", m**n)
    cube = CubeDomain(n=n, a=float(a))
    rule = QuadratureRule.gauss_legendre(m, cube.a)
    closed = closed_form_value(n, cube.a)
    phi, dphi = _example_pair(n)
    boundary = integrate_boundary(phi, cube, rule)
    volume = integrate_volume(dphi, cube, rule)
    report = {
        "n": n,
        "a": cube.a,
        "m": rule.m,
        "boundary": boundary,
        "volume": volume,
        "closed_form": closed,
        "err_bv": abs(boundary - volume),
        "err_vc": abs(volume - closed),
    }
    if not all(map(math.isfinite, report.values())):
        raise ValueError(f"the quadrature overflows at n = {n}, a = {cube.a}")
    return report


def verify_det_proportionality(w: KForm, E) -> dict:
    """Check evaluate_form(w, E) = det(E) * evaluate_form(w, I) for top forms;
    a report that would hold NaN or infinity raises ValueError naming n."""
    E = _gated(E, 2, "frame")
    if E.shape[0] != E.shape[1]:
        raise ValueError(f"need a square frame, got shape {E.shape}")
    n = E.shape[0]
    if w.arity != n or w.dimension > n:
        raise DimensionError(f"need a top form: degree {w.arity}, indices reaching "
                             f"{w.dimension}, on an {n}x{n} frame")
    try:  # with E gated and w a top form, an evaluation fails only by overflowing
        lhs, rhs = w(E), float(np.linalg.det(E)) * w(np.eye(n))
    except ValueError:
        lhs = rhs = math.inf
    report = {"n": n, "lhs": lhs, "rhs": rhs, "diff": abs(lhs - rhs)}
    if not all(map(math.isfinite, report.values())):
        raise ValueError(f"the determinant check overflows at n = {n}")
    return report
