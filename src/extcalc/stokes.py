"""Stokes's theorem on axis-aligned hypercubes, checked by quadrature.

The boundary integral of an (n-1)-form over the 2n oriented faces of
[0, a]^n is compared against the volume integral of its exterior
derivative and, for the built-in example pair, a closed-form value.
Tensor-product Gauss-Legendre quadrature is exact here because every
integrand is polynomial per axis.  On the face x_i = const the tangent
frame e_j (j != i) has one nonzero minor, on the key without i (Spivak,
Thm 4-13), so the face integrand is the form's coefficient on that key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .sparse import DimensionError, _check_finite
from .forms import KForm
from .derivatives import hat

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
    """The cube [0, a]^n."""

    n: int
    a: float = 1.0

    def __post_init__(self):
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
        m = int(m)
        if m < 2:
            raise ValueError("need at least 2 points per axis")
        if not a > 0:
            raise ValueError("need a > 0")
        _check_finite(a)
        t, w = np.polynomial.legendre.leggauss(m)
        return cls(m=m, a=float(a), points=(t + 1.0) * (a / 2.0), weights=w * (a / 2.0))


def phi_example(x) -> KForm:
    """The example (n-1)-form: (sum_i (-1)^(i-1) x_i^i) * hat(n)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need a point in dimension >= 2")
    i = np.arange(1, n + 1)
    s = float(np.sum(np.where(i % 2 == 1, 1.0, -1.0) * x**i))
    return hat(n).scale(s)


def dphi_example(x) -> KForm:
    """Exterior derivative of phi_example: (sum_j j x_j^(j-1)) dx_1^...^dx_n."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need a point in dimension >= 2")
    j = np.arange(1, n + 1)
    c = float(np.sum(j * x ** (j - 1)))
    return KForm._trusted(n, [(tuple(range(1, n + 1)), c)])


def closed_form_value(n: int, a: float) -> float:
    """a^(n-1) * (a + a^2 + ... + a^n), the exact integral for the pair."""
    a = float(a)
    return a ** (n - 1) * sum(a**j for j in range(1, n + 1))


def _integrate(field, cube: CubeDomain, rule: QuadratureRule, faces) -> float:
    # sum orient * w * (coefficient on key) over each (fixed axis or None,
    # side, orient, key) face's nodes in lexicographic order, left to right
    if rule.a != cube.a:
        raise ValueError("quadrature rule was built for a different edge length")
    n = cube.n
    point = np.empty(n)
    total = 0.0
    for fixed, side, orient, key in faces:
        free = [axis for axis in range(n) if axis != fixed]
        if fixed is not None:
            point[fixed] = side
        for combo in itertools.product(range(rule.m), repeat=len(free)):
            w = 1.0
            for axis, c in zip(free, combo):
                point[axis] = rule.points[c]
                w *= rule.weights[c]
            form = field(point)
            if form.arity != len(key) or form.dimension > n:
                raise DimensionError(
                    f"integrand must be a {len(key)}-form on R^{n}, got degree "
                    f"{form.arity} with indices reaching {form.dimension}"
                )
            total += orient * w * form.terms.get(key, 0.0)
    return total


def integrate_volume(field, cube: CubeDomain, rule: QuadratureRule) -> float:
    """Integrate a degree-n form field over the cube.

    Nodes are visited in lexicographic order and accumulated left to
    right, so results are bitwise deterministic.
    """
    return _integrate(field, cube, rule, [(None, 0.0, 1.0, tuple(range(1, cube.n + 1)))])


def integrate_boundary(field, cube: CubeDomain, rule: QuadratureRule) -> float:
    """Integrate a degree-(n-1) form field over the oriented boundary.

    Face x_i = a carries orientation (-1)^(i-1) and face x_i = 0
    carries (-1)^i; the tangent frame on both is the standard basis
    vectors e_j, j != i, in increasing order.  This sign convention is
    pinned by the Green's-theorem case x1 dx2 - x2 dx1 on [0,1]^2
    integrating to +2.  The integrand is the coefficient on the key without i.
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
    "err_bv", "err_vc"} with absolute differences.  n is capped at 6:
    the volume rule visits m^n nodes.
    """
    n = int(n)
    if not 2 <= n <= 6:
        raise ValueError("n must be between 2 and 6 (m^n volume nodes)")
    cube = CubeDomain(n=n, a=float(a))
    rule = QuadratureRule.gauss_legendre(m, cube.a)
    closed = closed_form_value(n, cube.a)
    boundary = float(integrate_boundary(phi_example, cube, rule))
    volume = float(integrate_volume(dphi_example, cube, rule))
    return {
        "n": n,
        "a": cube.a,
        "m": rule.m,
        "boundary": boundary,
        "volume": volume,
        "closed_form": closed,
        "err_bv": abs(boundary - volume),
        "err_vc": abs(volume - closed),
    }


def verify_det_proportionality(w: KForm, E) -> dict:
    """Check evaluate_form(w, E) = det(E) * evaluate_form(w, I) for top forms."""
    E = np.asarray(E, dtype=float)
    if E.ndim != 2 or E.shape[0] != E.shape[1]:
        raise ValueError(f"need a square frame, got shape {E.shape}")
    n = E.shape[0]
    if w.arity != n:
        raise DimensionError(
            f"need a top form: degree {w.arity} on an {n}x{n} frame"
        )
    lhs = w(E)
    rhs = float(np.linalg.det(E)) * w(np.eye(n))
    return {"n": n, "lhs": lhs, "rhs": rhs, "diff": abs(lhs - rhs)}
