"""Seeded property checks shared by the verify CLI and the test suite.

Every check is a zero-argument function (check_dd_zero alone takes its
point) that runs fixed deterministic cases, drawn from default_rng of
its `seed`, and returns a small report dict: name, cases, max_err, tol,
passed.  Checks compare two independent routes to the same value
wherever one exists (definitional wedge vs key merge, contraction vs
evaluation, finite differences vs closed forms), so a bug has to fool
both routes at once to slip through.

check_dd_zero, DEMO_POINT and _report, the reduction every check ends
with, live in extcalc.derivatives beside dd_check, so that `verify
ddzero` runs without this module; SUITE_CHECKS lists the check here.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .arrays import as_frame
from .sparse import SparseMap
from .tensors import KTensor, alt, evaluate_tensor
from .forms import (KForm, contract, contract_matrix, evaluate_form, form_to_tensor, pullback,
                    rform, wedge, wedge_definitional)
from .derivatives import (DEMO_POINT, _report, check_dd_zero, demo_two_form, exterior_d, f1, f2, f3,
                          fd_gradient, grad, hat, omega_gradient)
from .fields import FieldForm
from .stokes import (_example_pair, _scaled_errors, _stokes_report, verify_det_proportionality,
                     verify_stokes)

__all__ = ["suite", "SUITE_CHECKS"]

CASES = 100


def _seeded(seed: int, name: str = "", tol: float = 0.0):
    # check_<name>(rng) as the zero-argument check_<name>() drawing from default_rng(seed),
    # which it keeps as `seed` for the --stats line.  Given a name, check_<name>(rng) yields
    # one case's errors, and the check reports CASES such cases drawn in turn
    def decorate(body):
        def check() -> dict:
            rng = np.random.default_rng(seed)
            if not name:
                return body(rng)
            return _report(name, CASES, (e for _ in range(CASES) for e in body(rng)), tol)

        check.__name__ = check.__qualname__ = body.__name__
        check.__doc__, check.seed = body.__doc__, seed
        return check

    return decorate


def _rel(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _random_tensor(rng, k: int, n: int, terms: int = 5) -> KTensor:
    rows = rng.integers(1, n + 1, size=(terms, k))
    coeffs = rng.integers(-9, 10, size=terms).astype(float)
    coeffs[coeffs == 0] = 1.0
    return KTensor(k, zip(map(tuple, rows.tolist()), coeffs))


def _random_form(rng, k: int, n: int, max_terms: int = 4) -> KForm:
    terms = int(rng.integers(1, min(max_terms, math.comb(n, k)) + 1))
    return rform(int(rng.integers(0, 2**63)), k, n, terms)


def _termwise_err(a: SparseMap, b: SparseMap) -> float:
    keys = set(a.terms) | set(b.terms)
    zeros = itertools.repeat(0.0)
    diffs = map(operator.sub, map(a.terms.get, keys, zeros), map(b.terms.get, keys, zeros))
    return max(map(abs, diffs), default=0.0)


@_seeded(101, "multilinearity", 1e-10)
def check_multilinearity(rng):
    """Tensor evaluation is linear in each frame column separately."""
    k = int(rng.integers(1, 4))
    n = int(rng.integers(2, 9))
    S = _random_tensor(rng, k, n)
    E = rng.standard_normal((n, k))
    col = int(rng.integers(0, k))
    u, v = rng.standard_normal((2, n))
    r1, r2 = rng.standard_normal(2)
    Eu, Ev, Emix = E.copy(), E.copy(), E.copy()
    Eu[:, col] = u
    Ev[:, col] = v
    Emix[:, col] = r1 * u + r2 * v
    lhs = evaluate_tensor(S, Emix)
    rhs = r1 * evaluate_tensor(S, Eu) + r2 * evaluate_tensor(S, Ev)
    yield _rel(lhs, rhs)


@_seeded(7)
def check_not_linear_in_frame(rng) -> dict:
    """Joint scaling of the whole frame is NOT linearity (negative control)."""
    S = _random_tensor(rng, 2, 4)
    E1, E2 = rng.standard_normal((2, 4, 2))
    r1, r2 = 1.7, -0.6
    lhs = evaluate_tensor(S, r1 * E1 + r2 * E2)
    rhs = r1 * evaluate_tensor(S, E1) + r2 * evaluate_tensor(S, E2)
    gap = abs(lhs - rhs)
    return {
        "name": "not-linear-in-frame",
        "cases": 1,
        "gap": float(gap),
        "min_gap": 1e-3,
        "passed": bool(gap > 1e-3),
    }


@_seeded(102, "alternation-column-swap", 1e-10)
def check_alternation(rng):
    """Form evaluation flips sign under any frame column swap, and the frame gate of
    evaluate_form refuses a NaN row below the rows the form reads (error 0.0 if refused)."""
    n = int(rng.integers(3, 9))
    k = int(rng.integers(2, min(n, 4) + 1))
    w = _random_form(rng, k, n)
    E = rng.standard_normal((n, k))
    i, j = rng.choice(k, size=2, replace=False)
    Eswap = E.copy()
    Eswap[:, [i, j]] = Eswap[:, [j, i]]
    yield _rel(evaluate_form(w, E), -evaluate_form(w, Eswap))
    try:
        as_frame(np.vstack([E, np.full(k, np.nan)]), k, w.dimension)
    except ValueError:
        yield 0.0
    else:
        yield 1.0


@_seeded(103, "alt-operator", 1e-10)
def check_alt_operator(rng):
    """alt is idempotent, fixes alternating tensors, and alternates."""
    k = int(rng.integers(1, 4))
    n = int(rng.integers(2, 7))
    T = _random_tensor(rng, k, n, terms=3)
    a1 = alt(T)
    yield _termwise_err(alt(a1), a1)
    w = _random_form(rng, min(k, n), n, max_terms=3)
    expanded = form_to_tensor(w)
    yield _termwise_err(alt(expanded), expanded)
    if k >= 2:
        E = rng.standard_normal((n, k))
        i, j = rng.choice(k, size=2, replace=False)
        Eswap = E.copy()
        Eswap[:, [i, j]] = Eswap[:, [j, i]]
        yield _rel(evaluate_tensor(a1, E), -evaluate_tensor(a1, Eswap))


@_seeded(104, "wedge-algebra", 1e-12)
def check_wedge_algebra(rng):
    """Associativity, distributivity, graded anticommutativity."""
    n = int(rng.integers(4, 9))
    k, l, m = (int(rng.integers(1, 4)) for _ in range(3))
    a = _random_form(rng, min(k, n - 2), n)
    b = _random_form(rng, min(l, n - 2), n)
    c = _random_form(rng, min(m, n - 2), n)
    yield _termwise_err(wedge(wedge(a, b), c), wedge(a, wedge(b, c)))
    a2 = _random_form(rng, a.arity, n)
    ab = wedge(a, b)
    yield _termwise_err(wedge(a + a2, b), ab + wedge(a2, b))
    sign = -1.0 if (a.arity * b.arity) % 2 else 1.0
    yield _termwise_err(ab, wedge(b, a).scale(sign))


@_seeded(105, "wedge-definitional", 1e-10)
def check_wedge_definitional(rng):
    """Key-merge wedge equals C(k+l, k) alt(tensor product)."""
    k = int(rng.integers(1, 3))
    l = int(rng.integers(1, 5 - k))
    n = int(rng.integers(k + l, 6))
    a = _random_form(rng, k, n, max_terms=3)
    b = _random_form(rng, l, n, max_terms=3)
    yield _termwise_err(wedge(a, b), wedge_definitional(a, b))


@_seeded(106, "contraction-vs-evaluation", 1e-10)
def check_contraction(rng):
    """Full contraction reproduces evaluation; single steps compose."""
    n = int(rng.integers(2, 9))
    k = int(rng.integers(1, min(n, 3) + 1))
    w = _random_form(rng, k, n)
    V = rng.standard_normal((n, k))
    full = contract_matrix(w, V)
    yield _rel(full, evaluate_form(w, V))
    yield _rel(full, evaluate_form(contract(w, V[:, 0]), V[:, 1:]))


@_seeded(107, "det-proportionality", 1e-8)
def check_det_proportionality(rng):
    """Top forms are proportional to the determinant."""
    n = int(rng.integers(2, 9))
    w = KForm(n)
    while not w.terms:
        parts = [grad(rng.integers(-3, 4, size=n)) for _ in range(n)]
        w = parts[0]
        for p in parts[1:]:
            w = wedge(w, p)
    E = rng.standard_normal((n, n))
    rep = verify_det_proportionality(w, E)
    yield _rel(rep["lhs"], rep["rhs"])


@_seeded(108, "pullback", 1e-8)
def check_pullback(rng):
    """Identity, inverse round-trip, and functoriality of pullback."""
    n = int(rng.integers(3, 6))
    k = int(rng.integers(1, n))
    w = _random_form(rng, k, n)
    yield _termwise_err(pullback(w, np.eye(n)), w)
    M = rng.standard_normal((n, n))
    while np.linalg.cond(M) > 50.0:
        M = rng.standard_normal((n, n))
    back = pullback(pullback(w, M), np.linalg.inv(M))
    yield _termwise_err(back.zap(1e-9), w)
    A = rng.standard_normal((n, n))
    B = rng.standard_normal((n, n))
    yield _termwise_err(pullback(w, A @ B), pullback(pullback(w, A), B))


@_seeded(109)
def check_omega_closedness(rng) -> dict:
    """d(omega_n) = 0: the gradient wedge hat(n) vanishes, n = 3..9."""
    errors = []
    for n in range(3, 10):
        hat_n = hat(n)
        for _ in range(CASES):
            x = rng.standard_normal(n)
            while (sq := float(np.dot(x, x))) == 0.0:
                x = rng.standard_normal(n)
            top = wedge(omega_gradient(x), hat_n)
            # |x| as np.linalg.norm computes it: the square root of x.dot(x)
            tol_x = 1e-12 * (1.0 + math.sqrt(sq) ** (-2 * n))
            err = max(map(abs, top.terms.values()), default=0.0)
            # normalize against the case tolerance so one bound covers all x
            errors.append(err / tol_x)
    return _report("omega-closedness", len(errors), errors, 1.0)


@_seeded(110)
def check_gradient_consistency(rng) -> dict:
    """Analytic gradients of the demo fields agree with differences, at 30 points."""
    errors = []
    for _ in range(30):
        x = rng.uniform(-2.0, 2.0, size=4)
        for field in (f1, f2, f3):
            g_true = field.gradient_at(x, analytic=True)
            g_fd = fd_gradient(field.fn, x)
            scale = max(1.0, float(np.max(np.abs(g_true))))
            errors.append(float(np.max(np.abs(g_true - g_fd))) / scale)
    return _report("gradient-consistency", len(errors), errors, 1e-5)


def check_exterior_d_demo() -> dict:
    """FD and analytic exterior derivatives of the demo form agree."""
    phi = demo_two_form()
    d_fd = exterior_d(phi, DEMO_POINT, analytic=False)
    d_an = exterior_d(phi, DEMO_POINT, analytic=True)
    return _report("exterior-d-demo", 2, [_termwise_err(d_fd, d_an)], 1e-6)


def check_stokes() -> dict:
    """Boundary = volume = closed form on a set of cube configurations, the last one with
    coefficients the integrators call node by node."""
    reports = [verify_stokes(n, a, m) for n, a, m in ((2, 1.0, 8), (3, 1.0, 8), (4, 1.0, 8),
                                                      (3, 0.5, 8))]
    # each coefficient of the example pair behind a plain callable, which FieldForm wraps as
    # ScalarField(fn): the integrators call it at each node instead of reading its per-axis
    # tables, and the sums are bitwise the tables'
    pair = [FieldForm([(lambda x, fn=f.fn: fn(x), key) for f, key in form.terms])
            for form in _example_pair(3)]
    reports.append(_stokes_report(3, 1.0, 3, pair))
    errors = [err for rep in reports for err in _scaled_errors(rep)]
    return _report("stokes-cubes", len(reports), errors, 1e-8, configs=reports)


SUITE_CHECKS = (
    check_multilinearity,
    check_not_linear_in_frame,
    check_alternation,
    check_alt_operator,
    check_wedge_algebra,
    check_wedge_definitional,
    check_contraction,
    check_det_proportionality,
    check_pullback,
    check_omega_closedness,
    check_gradient_consistency,
    check_dd_zero,
    check_exterior_d_demo,
    check_stokes,
)


def suite() -> list[dict]:
    """Run every check."""
    return [check() for check in SUITE_CHECKS]
