"""Stokes's theorem on axis-aligned hypercubes, checked by quadrature.

The boundary integral of an (n-1)-form field over the 2n oriented faces
of [0, a]^n is compared against the volume integral of its exterior
derivative and, for the built-in example pair, a closed-form value.
Tensor-product Gauss-Legendre quadrature is exact here because every
integrand is polynomial per axis.  On the face x_i = const the tangent
frame e_j (j != i) has one nonzero minor, on the key without i (Spivak,
Thm 4-13), so the face integrand is the form's coefficient on that key.

Integrands are FieldForms.  A coefficient function takes one point, a
tuple of n Python floats, and returns a number; no form is built per
node.  The rule, the nodes and the sums are Python floats throughout,
so `verify stokes` never imports numpy, and its digits follow libm's
pow (through Python's float **), not the SIMD loops numpy picks for the
CPU.

Each face is one loop over its nodes in itertools.product order that
adds orient * w * (coefficient) to the running total, so the sums are
bitwise those of a node-by-node loop.  The signed node weights orient *
w are prefix products from [orient], bitwise orient * math.prod(per-axis
weights) for orient = +-1.  The example pair's coefficients declare
their per-axis terms c_j x_j^p_j (_AxisSum), and a face's node values
are prefix sums of per-axis tables from [0.0], bitwise the point
function's left-to-right sum: a face costs one pow per table entry, not
n per node.  A coefficient without declared terms is called per node.
"""

from __future__ import annotations

import itertools
import math
import operator

import extcalc

from .rules import DimensionError, _check_enumeration, _check_finite, _check_integral
from .fields import FieldForm, _Record, _finite_array, _hat_keys

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

class CubeDomain(_Record):
    """The cube [0, a]^n; n must be integral, and a is kept as a finite float."""

    __slots__ = ("n", "a")

    def __init__(self, n: int, a: float = 1.0):
        n = _check_integral(n, "n")
        if n < 2:
            raise ValueError("need n >= 2")
        if not a > 0:
            raise ValueError("need edge length a > 0")
        self._set(n=n, a=_check_finite(a))


class QuadratureRule(_Record):
    """Gauss-Legendre nodes and weights on [0, a], m points per axis.

    points and weights are tuples of m Python floats, points ascending.
    The rule comes from Newton's method on the Legendre polynomial P_m,
    so its m^2 recurrence steps are counted against MAX_ENUMERATION
    before the first iteration (m <= 1024).  The constructor takes any
    rule on [0, a] of that shape: m must be integral and count both the
    points and the weights, each a finite number, the points strictly
    ascending within [0, a], and a finite and > 0, else ValueError.
    """

    __slots__ = ("m", "a", "points", "weights")

    def __init__(self, m: int, a: float, points: tuple, weights: tuple):
        m = _check_integral(m, "m")
        if not a > 0:
            raise ValueError("need a > 0")
        a = _check_finite(a)
        points, weights = tuple(map(_check_finite, points)), tuple(map(_check_finite, weights))
        if not len(points) == len(weights) == m:
            raise ValueError(f"need m = {m} points and weights, got {len(points)} and "
                             f"{len(weights)}")
        within = not points or 0.0 <= points[0] and points[-1] <= a
        if sorted(set(points)) != list(points) or not within:
            raise ValueError(f"points must ascend strictly within [0, {a}], got {points}")
        self._set(m=m, a=a, points=points, weights=weights)

    @classmethod
    def gauss_legendre(cls, m: int, a: float) -> "QuadratureRule":
        m = _check_integral(m, "m")
        if m < 2:
            raise ValueError("need at least 2 points per axis")
        if not a > 0:
            raise ValueError("need a > 0")
        a = _check_finite(a)
        _check_enumeration(m * m, "gauss_legendre: m^2 = {}^2 recurrence steps", m)
        t, w = _legendre_rule(m)
        half = a / 2.0
        return cls(m=m, a=a, points=tuple((x + 1.0) * half for x in t),
                   weights=tuple(v * half for v in w))


def _legendre(m: int, x: float) -> tuple[float, float]:
    # P_m(x) by the three-term recurrence k P_k = (2k - 1) x P_(k-1) - (k - 1) P_(k-2),
    # and P_m'(x) from P_m and P_(m-1); |x| < 1
    p0, p1 = 1.0, x
    for k in range(2, m + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, m * (x * p1 - p0) / (x * x - 1.0)


def _polished(m: int, x: float) -> float:
    # one last Newton step with the recurrence run on integers in units of 2^-128: float
    # P_m near a root small against 1 is only good to a few ulp of that root
    num, den = x.as_integer_ratio()
    shift = den.bit_length() - 1
    p0, p1 = 1 << 128, (num << 128) >> shift
    for k in range(2, m + 1):
        p0, p1 = p1, (((2 * k - 1) * num * p1 >> shift) - (k - 1) * p0) // k
    p, q = p1 / (1 << 128), p0 / (1 << 128)
    return x - p / (m * (x * p - q) / (x * x - 1.0))


def _legendre_rule(m: int) -> tuple[list, list]:
    # the ascending roots of P_m on [-1, 1] and their weights 2 / ((1 - t^2) P_m'(t)^2):
    # Newton's method from cos(pi (i + 3/4) / (m + 1/2)) for each positive root, mirrored
    # so that t[m - 1 - i] = -t[i], with the middle root of an odd m exactly 0.0
    t = [0.0] * m
    for i in range(m // 2):
        x = math.cos(math.pi * (i + 0.75) / (m + 0.5))
        step = 1.0
        while abs(step) > 1e-14:
            p, dp = _legendre(m, x)
            step = p / dp
            x -= step
        x = _polished(m, x)
        t[i], t[m - 1 - i] = -x, x
    w = [0.0] * m
    for i in range(m - m // 2):
        dp = _legendre(m, t[i])[1]
        w[i] = w[m - 1 - i] = 2.0 / ((1.0 - t[i] * t[i]) * dp * dp)
    return t, w


class _AxisSum(tuple):
    """A coefficient 0.0 + c_1 x_1^p_1 + ... + c_n x_n^p_n, added left to
    right, that declares its per-axis terms (p_j, c_j); a negative term is
    stored negated (c_j < 0: x^p * -1.0 is exactly -(x^p))."""

    def __call__(self, x) -> float:
        return self.at_nodes([(t,) for t in x])[0]

    def at_nodes(self, axes) -> list:
        # self at every node of itertools.product(*axes), in that order, as prefix sums over
        # the axes from [0.0]: a face costs one power per entry of each axis, not n per node
        values = [0.0]
        for (p, c), axis in zip(self, axes):
            table = [t**p * c for t in axis]
            values = [v + u for v in values for u in table]
        return values


def _example_pair(n: int) -> tuple[FieldForm, FieldForm]:
    # phi = (sum_i (-1)^(i-1) x_i^i) * hat(n) and dphi = (sum_j j x_j^(j-1)) dx_1^...^dx_n,
    # dphi written by hand rather than derived from phi; hat's keys hold its bound before
    # either coefficient is built.  A float exponent calls the libm pow that x**i calls
    keys = _hat_keys(n)
    phi = _AxisSum((float(i), 1.0 if i % 2 else -1.0) for i in range(1, n + 1))
    dphi = _AxisSum((j - 1.0, float(j)) for j in range(1, n + 1))
    return FieldForm((phi, key) for key in keys), FieldForm([(dphi, tuple(range(1, n + 1)))])


def _point(x) -> list:
    x = _finite_array(x, 1, "point")[0]
    if len(x) < 2:
        raise ValueError("need a point in dimension >= 2")
    return x


def phi_example(x) -> extcalc.KForm:
    """The example (n-1)-form: (sum_i (-1)^(i-1) x_i^i) * hat(n)."""
    x = _point(x)
    return _example_pair(len(x))[0].coefficients_at(x)


def dphi_example(x) -> extcalc.KForm:
    """Exterior derivative of phi_example: (sum_j j x_j^(j-1)) dx_1^...^dx_n."""
    x = _point(x)
    return _example_pair(len(x))[1].coefficients_at(x)


def closed_form_value(n: int, a: float) -> float:
    """a^(n-1) * (a + a^2 + ... + a^n), the exact integral for the pair.

    n must be integral and at least 2, as for CubeDomain; a must be
    finite, and a value that overflows a float raises ValueError.
    """
    n, a = _check_integral(n, "n"), _check_finite(a)
    if n < 2:
        raise ValueError("need n >= 2")
    try:
        total = 0.0  # left to right: sum() compensates float sums from Python 3.12 on
        for j in range(1, n + 1):
            total += a**j
        value = a ** (n - 1) * total
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the closed form overflows at n = {n}, a = {a}")
    return value


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
    # every face's free axes are its key's, so each orientation has one list of signed weights
    signed = {orient: _signed_weights(orient, rule.weights, degree)
              for orient in {face[2] for face in faces}}
    total = 0.0
    try:
        for fixed, side, orient, key in faces:
            axes = [rule.points] * degree
            if fixed is not None:
                axes.insert(fixed, (side,))
            fns = [f.fn for f, k in field.terms if k == key]
            if len(fns) == 1 and isinstance(fns[0], _AxisSum):
                values = fns[0].at_nodes(axes)
            else:
                # the key's functions summed from 0.0 per node (0.0 + c is c but for c = -0.0,
                # which adds nothing); with none, orient * w * 0.0, NaN where w overflowed
                values = itertools.repeat(0.0)
                for fn in fns:
                    values = map(operator.add, values, map(fn, itertools.product(*axes)))
            for w, value in zip(signed[orient], values):
                total += w * value
    except OverflowError:  # a coefficient's float ** passed the float range: infinite
        return math.inf
    return total


def _signed_weights(orient: float, weights: tuple, degree: int) -> list:
    # orient * w per node of a face in itertools.product order, as prefix products from
    # [orient]: bitwise orient * math.prod(per-axis weights), as orient is +-1.0
    signed = [orient]
    for _ in range(degree):
        signed = [p * w for p in signed for w in weights]
    return signed


def integrate_volume(field: FieldForm, cube: CubeDomain, rule: QuadratureRule) -> float:
    """Integrate a degree-n FieldForm over the cube.

    Each coefficient is read at every node, the point as a tuple of n
    floats.  Nodes are accumulated left to right in
    lexicographic order, each weight the left-to-right product of its
    per-axis weights, so results are bitwise deterministic.
    """
    return _integrate(field, cube, rule, [(None, 0.0, 1.0, tuple(range(1, cube.n + 1)))])


def integrate_boundary(field: FieldForm, cube: CubeDomain, rule: QuadratureRule) -> float:
    """Integrate a degree-(n-1) FieldForm over the oriented boundary.

    Face x_i = a carries orientation (-1)^(i-1) and face x_i = 0
    carries (-1)^i; the tangent frame on both is the standard basis
    vectors e_j, j != i, in increasing order.  This sign convention is
    pinned by the Green's-theorem case x1 dx2 - x2 dx1 on [0,1]^2
    integrating to +2.  The integrand is the coefficient on the key
    without i, read at each of the face's m^(n-1) nodes as a tuple of n
    floats whose coordinate i is the face's side; faces and then nodes
    are accumulated left to right.
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
    return _stokes_report(n, a, m, None)


def _stokes_report(n, a, m, pair) -> dict:
    # verify_stokes's report for the (phi, dphi) pair, the example pair's for None, which is
    # built once n is checked
    n, m = _check_integral(n, "n"), _check_integral(m, "m")
    if not 2 <= n <= 6:
        raise ValueError("n must be between 2 and 6 (m^n volume nodes)")
    if m > 1:  # the rule itself refuses m < 2
        _check_enumeration(m**n, "verify_stokes: m^n = {}^{} volume nodes", m, n)
    cube = CubeDomain(n=n, a=float(a))
    rule = QuadratureRule.gauss_legendre(m, cube.a)
    closed = closed_form_value(n, cube.a)
    phi, dphi = _example_pair(n) if pair is None else pair
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


def _scaled_errors(report: dict) -> list:
    # a verify_stokes report's two errors over max(1, |volume|): the one pass rule of `verify
    # stokes` and the suite's stokes-cubes, each error <= tol
    scale = max(1.0, abs(report["volume"]))
    return [report["err_bv"] / scale, report["err_vc"] / scale]


def verify_det_proportionality(w: extcalc.KForm, E) -> dict:
    """Check evaluate_form(w, E) = det(E) * evaluate_form(w, I) for top forms;
    a report that would hold NaN or infinity raises ValueError naming n."""
    import numpy as np

    E, shape = _finite_array(E, 2, "frame")
    if shape[0] != shape[1]:
        raise ValueError(f"need a square frame, got shape {shape}")
    n = shape[0]
    if w.arity != n or w.dimension > n:
        raise DimensionError(f"need a top form: degree {w.arity}, indices reaching "
                             f"{w.dimension}, on a frame of shape {shape}")
    try:  # with E gated and w a top form, an evaluation fails only by overflowing
        lhs, rhs = w(E), float(np.linalg.det(E)) * w(np.eye(n))
    except ValueError:
        lhs = rhs = math.inf
    report = {"n": n, "lhs": lhs, "rhs": rhs, "diff": abs(lhs - rhs)}
    if not all(map(math.isfinite, report.values())):
        raise ValueError(f"the determinant check overflows at n = {n}")
    return report
