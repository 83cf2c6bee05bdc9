"""Seeded property checks shared by the verify CLI and the test suite.

Every check runs a fixed number of deterministic random cases and
returns a small report dict: name, cases, max_err, tol, passed.  Checks
compare two independent routes to the same value wherever one exists
(definitional wedge vs key merge, contraction vs evaluation, finite
differences vs closed forms), so a bug has to fool both routes at once
to slip through.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .sparse import SparseMap
from .tensors import KTensor, alt, evaluate_tensor
from .forms import (KForm, contract, contract_matrix, evaluate_form, form_to_tensor, pullback,
                    rform, wedge, wedge_definitional)
from .derivatives import (dd_check, demo_two_form, exterior_d, f1, f2, f3, fd_gradient, grad, hat,
                          omega_gradient)
from .stokes import verify_stokes, verify_det_proportionality

__all__ = ["suite", "SUITE_CHECKS"]

DEFAULT_CASES = 100


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


def check_multilinearity(cases: int = DEFAULT_CASES, seed: int = 101) -> dict:
    """Tensor evaluation is linear in each frame column separately."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(cases):
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
        errors.append(_rel(lhs, rhs))
    return _report("multilinearity", cases, errors, 1e-10)


def check_not_linear_in_frame(seed: int = 7) -> dict:
    """Joint scaling of the whole frame is NOT linearity (negative control)."""
    rng = np.random.default_rng(seed)
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


def check_alternation(cases: int = DEFAULT_CASES, seed: int = 102) -> dict:
    """Form evaluation flips sign under any frame column swap."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(cases):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, min(n, 4) + 1))
        w = _random_form(rng, k, n)
        E = rng.standard_normal((n, k))
        i, j = rng.choice(k, size=2, replace=False)
        Eswap = E.copy()
        Eswap[:, [i, j]] = Eswap[:, [j, i]]
        errors.append(_rel(evaluate_form(w, E), -evaluate_form(w, Eswap)))
    return _report("alternation-column-swap", cases, errors, 1e-10)


def check_alt_operator(cases: int = DEFAULT_CASES, seed: int = 103) -> dict:
    """alt is idempotent, fixes alternating tensors, and alternates."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(cases):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        T = _random_tensor(rng, k, n, terms=3)
        a1 = alt(T)
        errors.append(_termwise_err(alt(a1), a1))
        w = _random_form(rng, min(k, n), n, max_terms=3)
        expanded = form_to_tensor(w)
        errors.append(_termwise_err(alt(expanded), expanded))
        if k >= 2:
            E = rng.standard_normal((n, k))
            i, j = rng.choice(k, size=2, replace=False)
            Eswap = E.copy()
            Eswap[:, [i, j]] = Eswap[:, [j, i]]
            errors.append(_rel(evaluate_tensor(a1, E), -evaluate_tensor(a1, Eswap)))
    return _report("alt-operator", cases, errors, 1e-10)


def check_wedge_algebra(cases: int = DEFAULT_CASES, seed: int = 104) -> dict:
    """Associativity, distributivity, graded anticommutativity."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(cases):
        n = int(rng.integers(4, 9))
        k, l, m = (int(rng.integers(1, 4)) for _ in range(3))
        a = _random_form(rng, min(k, n - 2), n)
        b = _random_form(rng, min(l, n - 2), n)
        c = _random_form(rng, min(m, n - 2), n)
        errors.append(_termwise_err(wedge(wedge(a, b), c), wedge(a, wedge(b, c))))
        a2 = _random_form(rng, a.arity, n)
        ab = wedge(a, b)
        errors.append(_termwise_err(wedge(a + a2, b), ab + wedge(a2, b)))
        sign = -1.0 if (a.arity * b.arity) % 2 else 1.0
        errors.append(_termwise_err(ab, wedge(b, a).scale(sign)))
    return _report("wedge-algebra", cases, errors, 1e-12)


def check_wedge_definitional(cases: int = DEFAULT_CASES, seed: int = 105) -> dict:
    """Key-merge wedge equals C(k+l, k) alt(tensor product)."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(cases):
        k = int(rng.integers(1, 3))
        l = int(rng.integers(1, 5 - k))
        n = int(rng.integers(k + l, 6))
        a = _random_form(rng, k, n, max_terms=3)
        b = _random_form(rng, l, n, max_terms=3)
        errors.append(_termwise_err(wedge(a, b), wedge_definitional(a, b)))
    return _report("wedge-definitional", cases, errors, 1e-10)


def check_contraction(cases: int = DEFAULT_CASES, seed: int = 106) -> dict:
    """Full contraction reproduces evaluation; single steps compose."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(cases):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(n, 3) + 1))
        w = _random_form(rng, k, n)
        V = rng.standard_normal((n, k))
        full = contract_matrix(w, V)
        errors.append(_rel(full, evaluate_form(w, V)))
        step = contract(w, V[:, 0])
        if k > 1:
            rest = evaluate_form(step, V[:, 1:])
        else:
            rest = step.terms.get((), 0.0)
        errors.append(_rel(full, rest))
    return _report("contraction-vs-evaluation", cases, errors, 1e-10)


def check_det_proportionality(cases: int = DEFAULT_CASES, seed: int = 107) -> dict:
    """Top forms are proportional to the determinant."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(cases):
        n = int(rng.integers(2, 9))
        w = KForm(n)
        while not w.terms:
            parts = [grad(rng.integers(-3, 4, size=n)) for _ in range(n)]
            w = parts[0]
            for p in parts[1:]:
                w = wedge(w, p)
        E = rng.standard_normal((n, n))
        rep = verify_det_proportionality(w, E)
        errors.append(_rel(rep["lhs"], rep["rhs"]))
    return _report("det-proportionality", cases, errors, 1e-8)


def check_pullback(cases: int = DEFAULT_CASES, seed: int = 108) -> dict:
    """Identity, inverse round-trip, and functoriality of pullback."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(cases):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, n))
        w = _random_form(rng, k, n)
        errors.append(_termwise_err(pullback(w, np.eye(n)), w))
        M = rng.standard_normal((n, n))
        while np.linalg.cond(M) > 50.0:
            M = rng.standard_normal((n, n))
        back = pullback(pullback(w, M), np.linalg.inv(M))
        errors.append(_termwise_err(back.zap(1e-9), w))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        errors.append(_termwise_err(pullback(w, A @ B), pullback(pullback(w, A), B)))
    return _report("pullback", cases, errors, 1e-8)


def check_omega_closedness(cases_per_n: int = DEFAULT_CASES, seed: int = 109) -> dict:
    """d(omega_n) = 0: the gradient wedge hat(n) vanishes, n = 3..9."""
    rng = np.random.default_rng(seed)
    errors = []
    for n in range(3, 10):
        hat_n = hat(n)
        for _ in range(cases_per_n):
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


def check_gradient_consistency(cases: int = 30, seed: int = 110) -> dict:
    """Analytic gradients of the demo fields agree with differences."""
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(cases):
        x = rng.uniform(-2.0, 2.0, size=4)
        for field in (f1, f2, f3):
            g_true = field.gradient_at(x, analytic=True)
            g_fd = fd_gradient(field.fn, x)
            scale = max(1.0, float(np.max(np.abs(g_true))))
            errors.append(float(np.max(np.abs(g_true - g_fd))) / scale)
    return _report("gradient-consistency", cases * 3, errors, 1e-5)


def check_dd_zero(x=(1.0, 2.0, 3.0, 4.0)) -> dict:
    """d(d(phi)) = 0 for the demo 2-form, both Hessian routes."""
    phi = demo_two_form()
    fd = dd_check(phi, x, analytic=False)
    an = dd_check(phi, x, analytic=True)
    fd_max = max(map(abs, fd.terms.values()), default=0.0)
    an_max = max(map(abs, an.terms.values()), default=0.0)
    out = _report("dd-zero", 2, [fd_max], 1e-4, fd_max=fd_max, analytic_max=an_max)
    out["passed"] = bool(fd_max <= 1e-4 and an_max <= 1e-12)
    return out


def check_exterior_d_demo(x=(1.0, 2.0, 3.0, 4.0)) -> dict:
    """FD and analytic exterior derivatives of the demo form agree."""
    phi = demo_two_form()
    d_fd = exterior_d(phi, x, analytic=False)
    d_an = exterior_d(phi, x, analytic=True)
    return _report("exterior-d-demo", 2, [_termwise_err(d_fd, d_an)], 1e-6)


def check_stokes(configs=((2, 1.0, 8), (3, 1.0, 8), (4, 1.0, 8), (3, 0.5, 8))) -> dict:
    """Boundary = volume = closed form on a set of cube configurations."""
    errors = []
    reports = []
    for n, a, m in configs:
        rep = verify_stokes(n, a, m)
        scale = max(1.0, abs(rep["volume"]))
        errors += [rep["err_bv"] / scale, rep["err_vc"] / scale]
        reports.append(rep)
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
    """Run every check with its default seed and case count."""
    return [check() for check in SUITE_CHECKS]
