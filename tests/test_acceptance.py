"""Acceptance gate: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
Every numeric target here is checked at its stated tolerance; random
draws are seeded, and the four RNG-dependent display values from the
reference transcript are deliberately absent (criterion 9 greps for
them).
"""

import math
import pathlib
import time

import numpy as np

import extcalc
from extcalc import (
    FieldForm,
    dd_check,
    demo_two_form,
    dphi_example,
    evaluate_form,
    evaluate_tensor,
    exterior_d,
    form_to_tensor,
    f1,
    f2,
    f3,
    fd_hessian,
    hat,
    kform_from_rows,
    kform_general,
    omega_gradient,
    phi_example,
    pullback,
    rform,
    verify_stokes,
    wedge,
)
from extcalc.checks import (
    check_alt_operator,
    check_alternation,
    check_contraction,
    check_det_proportionality,
    check_multilinearity,
    check_wedge_algebra,
    check_wedge_definitional,
)

from oracles import dense_tensor_value, form_value_by_expansion

P = np.array([1.0, 2.0, 3.0, 4.0])


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_1_wedge_worked_example():
    K1 = kform_from_rows([(3, 5, 4), (4, 6, 1)], [2, 7])
    K2 = kform_from_rows([(1, 3), (2, 4), (3, 5), (4, 6), (5, 7)],
                         [1, 2, 3, 4, 5])
    want = {(1, 4, 5, 6, 7): -35.0, (1, 3, 4, 5, 6): -21.0}
    out = wedge(K1, K2)
    exact = out.terms == want

    best = math.inf
    for _ in range(200):
        t0 = time.perf_counter()
        wedge(K1, K2)
        best = min(best, time.perf_counter() - t0)
    ok = exact and best < 1e-3
    assert _verdict(
        1, ok, f"wedge worked example exact={exact}, best call {best * 1e6:.1f} us"
    )


def test_criterion_2_pullback():
    w = kform_from_rows([(1, 2), (1, 3)], [1, 5])
    M = np.array([[1.0, 4.0, 7.0], [2.0, 5.0, 8.0], [3.0, 6.0, 9.0]])
    exact = pullback(w, M).terms == {(1, 2): -33.0, (1, 3): -66.0, (2, 3): -33.0}

    rng = np.random.default_rng(28)
    M5 = rng.standard_normal((5, 5))
    while np.linalg.cond(M5) > 100.0:
        M5 = rng.standard_normal((5, 5))
    target = kform_from_rows([(2, 4, 5)], [2.0])
    back = pullback(pullback(target, M5), np.linalg.inv(M5)).zap(1e-8)
    residual = max((abs(c) for c in (back - target).terms.values()), default=0.0)
    ok = exact and residual <= 1e-8
    assert _verdict(
        2, ok, f"pullback exact={exact}, 5x5 round-trip residual {residual:.2e}"
    )


def test_criterion_3_stokes_integers():
    phi = phi_example(np.arange(1.0, 10.0))
    dphi = dphi_example(np.arange(1.0, 10.0))
    ok = (
        len(phi) == 9
        and set(phi.terms.values()) == {371423053.0}
        and dphi.terms == {tuple(range(1, 10)): 405071317.0}
    )
    assert _verdict(3, ok, "phi coefficients 371423053 x9, dphi 405071317")


def test_criterion_4_stokes_quadrature():
    t0 = time.perf_counter()
    worst = 0.0
    for n, a in ((2, 1.0), (3, 1.0), (4, 1.0), (3, 0.5)):
        rep = verify_stokes(n, a, 8)
        scale = max(1.0, abs(rep["volume"]))
        worst = max(worst, rep["err_bv"] / scale, rep["err_vc"] / scale)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    assert _verdict(
        4, ok, f"stokes 4 configs worst rel err {worst:.2e}, {elapsed:.2f} s"
    )


def test_criterion_5_dd_zero_and_dphi():
    fields = (f1, f2, f3)
    keys = ((1, 2), (1, 3), (3, 4))
    dd_fd = dd_check(FieldForm(zip(fields, keys)), P, analytic=False)
    dd_an = dd_check(FieldForm(zip(fields, keys)), P, analytic=True)
    fd_max = max((abs(c) for c in dd_fd.terms.values()), default=0.0)
    an_max = max((abs(c) for c in dd_an.terms.values()), default=0.0)

    dphi = exterior_d(demo_two_form(), P)
    want = {(1, 2, 3): 23.0, (2, 3, 4): 11.58385, (1, 2, 4): 6.0, (1, 3, 4): 30.15853}
    dphi_err = max(abs(dphi.terms[k] - v) for k, v in want.items())

    ok = fd_max <= 1e-4 and an_max <= 1e-12 and dphi_err <= 1e-4
    assert _verdict(
        5,
        ok,
        f"ddphi fd max {fd_max:.2e}, analytic max {an_max:.2e}, "
        f"dphi err {dphi_err:.2e}",
    )


def test_criterion_6_hessian_table():
    H = fd_hessian(f1.fn, P)
    want = np.array(
        [
            [0.0, 12.0, 8.0, 6.0],
            [12.0, 0.0, 4.0, 3.0],
            [8.0, 4.0, 18.0, 2.0],
            [6.0, 3.0, 2.0, 0.0],
        ]
    )
    err = float(np.max(np.abs(H - want)))
    ok = err <= 1e-4
    assert _verdict(6, ok, f"fd Hessian of f1 vs table, max err {err:.2e}")


def test_criterion_7_omega_closedness():
    rng = np.random.default_rng(2026)
    ok = True
    worst_terms = 0
    for n in range(3, 10):
        for _ in range(100):
            x = rng.standard_normal(n)
            while np.dot(x, x) == 0.0:
                x = rng.standard_normal(n)
            top = wedge(omega_gradient(x), hat(n))
            tol = 1e-12 * (1.0 + float(np.linalg.norm(x)) ** (-2 * n))
            left = top.zap(tol)
            worst_terms = max(worst_terms, len(left))
            ok = ok and not left.terms
    assert _verdict(
        7, ok, f"omega closedness, 700 draws, surviving terms {worst_terms}"
    )


def test_criterion_8_property_suites():
    runs = [
        (check_multilinearity, 1e-10),
        (check_alternation, 1e-10),
        (check_alt_operator, 1e-12),
        (check_wedge_algebra, 1e-12),
        (check_wedge_definitional, 1e-10),
        (check_contraction, 1e-10),
        (check_det_proportionality, 1e-8),
    ]
    ok = True
    details = []
    for check, bound in runs:
        rep = check()
        good = rep["passed"] and rep["cases"] == 100 and rep["max_err"] <= bound
        ok = ok and good
        details.append(f"{rep['name']} {rep['max_err']:.1e}")
    assert _verdict(8, ok, "; ".join(details))


def test_criterion_9_no_frozen_spot_values():
    # the reference transcript's RNG-dependent displays must not appear
    # anywhere in the sources; their identities are re-checked by oracle
    spots = ("3.068997", "0.4512547", "9850953", "1.048329")
    root = pathlib.Path(extcalc.__file__).parent
    leaked = [
        f"{path.name}:{spot}"
        for path in sorted(root.glob("*.py"))
        for spot in spots
        if spot in path.read_text()
    ]

    rng = np.random.default_rng(99)
    oracle_ok = True
    for _ in range(25):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(n, 3) + 1))
        w = rform(int(rng.integers(0, 2**63)), k, n, min(3, math.comb(n, k)))
        E = rng.standard_normal((n, k))
        got = evaluate_form(w, E)
        want = form_value_by_expansion(w.terms, k, E)
        oracle_ok &= abs(got - want) <= 1e-10 * max(1.0, abs(want))

        T = form_to_tensor(w)
        dense = dense_tensor_value(T.terms, k, E)
        oracle_ok &= abs(evaluate_tensor(T, E) - dense) <= 1e-10 * max(1.0, abs(dense))

    top = kform_general(4, 4, [2.5])
    E = rng.standard_normal((4, 4))
    det_ok = abs(
        evaluate_form(top, E) - 2.5 * float(np.linalg.det(E))
    ) <= 1e-8 * max(1.0, abs(evaluate_form(top, E)))

    ok = not leaked and bool(oracle_ok) and det_ok
    assert _verdict(
        9,
        ok,
        f"no frozen RNG spot values (leaked={leaked or 'none'}), "
        "identities re-verified by oracle",
    )
