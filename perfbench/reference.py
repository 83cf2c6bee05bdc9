"""Reference routines and output checks, independent of extcalc.

Nothing here imports extcalc.  Wedge coefficients come from the split
formula (sum over the ways to cut an output key into a key of `a` and
its complement in `b`) instead of the program's pairwise key merge;
determinants come from numpy.linalg.det instead of cofactor formulas;
derivatives come from hand-written closed forms.  Each check factory
returns a function stdout -> None (correct) or a one-line defect.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

SUITE_NAMES = (
    "multilinearity",
    "not-linear-in-frame",
    "alternation-column-swap",
    "alt-operator",
    "wedge-algebra",
    "wedge-definitional",
    "contraction-vs-evaluation",
    "det-proportionality",
    "pullback",
    "omega-closedness",
    "gradient-consistency",
    "dd-zero",
    "exterior-d-demo",
    "stokes-cubes",
)

STOKES_TOL = 1e-8
DET_RTOL = 1e-9


class CheckError(ValueError):
    """The program's output is malformed or wrong."""


def _guarded(check):
    def run(stdout: str):
        try:
            check(stdout)
        except (ValueError, LookupError, TypeError, AttributeError) as exc:  # CheckError or malformed output
            return str(exc) or type(exc).__name__
        return None

    return run


# -- reading program output --------------------------------------------------


def parse_form_output(text: str, k: int) -> dict:
    """Strictly parse `kform k=K` output: sorted increasing keys, finite nonzero coefficients."""
    lines = text.splitlines()
    if not lines or lines[0] != f"kform k={k}":
        raise CheckError(f"expected header 'kform k={k}', got {lines[:1]}")
    if lines[1:] == [f"zero k={k}"]:
        return {}
    out = {}
    prev = None
    for line in lines[1:]:
        left, sep, right = line.partition(" : ")
        if not sep:
            raise CheckError(f"bad term line {line!r}")
        key = tuple(int(t) for t in left.split())
        c = float(right)
        if len(key) != k or any(a >= b for a, b in zip(key, key[1:])) or (key and key[0] < 1):
            raise CheckError(f"bad key {key}")
        if prev is not None and key <= prev:
            raise CheckError(f"keys out of order at {key}")
        if not math.isfinite(c) or c == 0.0:
            raise CheckError(f"bad coefficient {right!r} for {key}")
        out[key] = c
        prev = key
    return out


def parse_scalar(text: str) -> float:
    lines = text.splitlines()
    if len(lines) != 1:
        raise CheckError(f"expected one line, got {len(lines)}")
    value = float(lines[0])
    if not math.isfinite(value):
        raise CheckError(f"non-finite scalar {lines[0]!r}")
    return value


def _reject_constant(name):
    raise CheckError(f"non-RFC-8259 JSON constant {name}")


def parse_json(text: str) -> dict:
    """One line of strict RFC 8259 JSON (no NaN or Infinity)."""
    lines = text.splitlines()
    if len(lines) != 1:
        raise CheckError(f"expected one JSON line, got {len(lines)}")
    try:
        report = json.loads(lines[0], parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"invalid JSON: {exc}") from None
    if not isinstance(report, dict):
        raise CheckError("expected a JSON object")
    return report


# -- reference algebra -----------------------------------------------------


def format_coefficient(c) -> str:
    c = float(c)
    return str(int(c)) if c.is_integer() and abs(c) < 1e16 else repr(c)


def parity(seq) -> int:
    """Sign of the permutation that sorts seq (distinct entries), by inversion count."""
    inv = sum(1 for i, j in itertools.combinations(range(len(seq)), 2) if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def canonical_rows(rows, coeffs) -> dict:
    """Sort each row with its permutation sign, drop repeated indices, accumulate."""
    acc = {}
    for row, c in zip(rows, coeffs):
        if len(set(row)) != len(row):
            continue
        key = tuple(sorted(row))
        acc[key] = acc.get(key, 0) + parity(row) * c
    return {key: c for key, c in acc.items() if c != 0}


def wedge_reference(a: dict, k: int, b: dict, l: int) -> dict:
    """Exact wedge by the split formula over every reachable output key."""
    reachable = set()
    for ka in a:
        sa = set(ka)
        for kb in b:
            if sa.isdisjoint(kb):
                reachable.add(tuple(sorted(ka + kb)))
    splits = list(itertools.combinations(range(k + l), k))
    out = {}
    for key in reachable:
        total = 0
        for pos in splits:
            ca = a.get(tuple(key[p] for p in pos))
            if ca is None:
                continue
            cb = b.get(tuple(key[p] for p in range(k + l) if p not in pos))
            if cb is None:
                continue
            # moving the chosen positions to the front takes sum(pos_i - i) swaps
            swaps = sum(p - i for i, p in enumerate(pos))
            total += -ca * cb if swaps % 2 else ca * cb
        if total:
            out[key] = total
    return out


def form_value(form: dict, E: np.ndarray) -> "tuple[float, float]":
    """(sum c det(E[I, :]), sum |c det(E[I, :])|) with numpy.linalg.det."""
    keys = list(form)
    coeffs = np.array([form[key] for key in keys], dtype=float)
    rows = np.array(keys, dtype=int) - 1
    dets = np.linalg.det(E[rows, :])
    return float(coeffs @ dets), float(np.abs(coeffs) @ np.abs(dets))


def pullback_reference(form: dict, k: int, M: np.ndarray) -> dict:
    """{J: (sum_I a_I det(M[I, J]), sum_I |a_I det(M[I, J])|)} over all k-subsets J."""
    keys = list(form)
    coeffs = np.array([form[key] for key in keys], dtype=float)
    rows = np.array(keys, dtype=int) - 1
    out = {}
    for J in itertools.combinations(range(M.shape[0]), k):
        dets = np.linalg.det(M[rows[:, :, None], np.array(J)[None, None, :]])
        out[tuple(j + 1 for j in J)] = (float(coeffs @ dets), float(np.abs(coeffs) @ np.abs(dets)))
    return out


def symbolic_line(form: dict) -> str:
    """The `print --style d` rendering of a form."""
    parts = []
    for key in sorted(form):
        c = form[key]
        sign = "-" if c < 0 else "+"
        body = "^".join(f"dx{i}" for i in key)
        mag = abs(c)
        parts.append(f"{sign} {body}" if mag == 1 else f"{sign}{format_coefficient(mag)} {body}")
    return " ".join(parts) if parts else "0"


def closed_form(n: int, a: float) -> float:
    return a ** (n - 1) * sum(a**j for j in range(1, n + 1))


# -- check factories -------------------------------------------------------


def symbolic_check(form: dict):
    expected = symbolic_line(form) + "\n"

    def check(stdout):
        if stdout != expected:
            raise CheckError("symbolic rendering differs from the reference")

    return _guarded(check)


def _exact_form_check(expected: dict, k: int, what: str):
    def check(stdout):
        got = parse_form_output(stdout, k)
        if got.keys() != expected.keys():
            missing = len(expected.keys() - got.keys())
            extra = len(got.keys() - expected.keys())
            raise CheckError(f"{what}: {missing} terms missing, {extra} unexpected")
        for key, c in expected.items():
            if got[key] != c:
                raise CheckError(f"{what}: coefficient of {key} is {got[key]}, expected {c}")

    return _guarded(check)


def add_check(a: dict, b: dict, k: int):
    total = {key: a.get(key, 0) + b.get(key, 0) for key in a.keys() | b.keys()}
    return _exact_form_check({key: c for key, c in total.items() if c}, k, "add")


def _lazy(make_check):
    """Build a check, and so its reference, on first use: after the timed passes, not in set-up."""
    built = []

    def run(stdout):
        if not built:
            built.append(make_check())
        return built[0](stdout)

    return run


def wedge_check(a: dict, k: int, b: dict, l: int):
    return _lazy(lambda: _exact_form_check(wedge_reference(a, k, b, l), k + l, "wedge"))


def scalar_form_check(form: dict, E: np.ndarray):
    """Evaluation, or full contraction, of `form` on the columns of E."""
    return _lazy(lambda: _scalar_form_check(form, E))


def _scalar_form_check(form, E):
    value, scale = form_value(form, E)

    def check(stdout):
        got = parse_scalar(stdout)
        if abs(got - value) > DET_RTOL * max(1.0, scale):
            raise CheckError(f"scalar {got!r}, reference {value!r}")

    return _guarded(check)


def pullback_check(form: dict, k: int, M: np.ndarray):
    return _lazy(lambda: _pullback_check(form, k, M))


def _pullback_check(form, k, M):
    expected = pullback_reference(form, k, M)

    def check(stdout):
        got = parse_form_output(stdout, k)
        extra = got.keys() - expected.keys()
        if extra:
            raise CheckError(f"pullback: unexpected key {min(extra)}")
        for key, (value, scale) in expected.items():
            c = got.get(key, 0.0)
            if abs(c - value) > DET_RTOL * max(1.0, scale):
                raise CheckError(f"pullback: coefficient of {key} is {c!r}, reference {value!r}")

    return _guarded(check)


def stokes_check(n: int, a: float, m: int):
    exact = closed_form(n, a)
    scale = max(1.0, abs(exact))

    def check(stdout):
        rep = parse_json(stdout)
        if (rep.get("n"), rep.get("a"), rep.get("m")) != (n, a, m):
            raise CheckError(f"stokes: echoed case {rep.get('n')}, {rep.get('a')}, {rep.get('m')}")
        if rep.get("closed_form") != exact:
            raise CheckError(f"stokes: closed_form {rep.get('closed_form')!r}, expected {exact!r}")
        b, v = rep.get("boundary"), rep.get("volume")
        if not all(isinstance(x, float) for x in (b, v)):
            raise CheckError("stokes: boundary or volume missing")
        if rep.get("err_bv") != abs(b - v) or rep.get("err_vc") != abs(v - exact):
            raise CheckError("stokes: reported errors disagree with the values")
        if max(rep["err_bv"], rep["err_vc"]) > STOKES_TOL * max(1.0, abs(v)):
            raise CheckError("stokes: errors above 1e-8 relative")
        for name, x in (("boundary", b), ("volume", v)):
            if abs(x - exact) > STOKES_TOL * scale:
                raise CheckError(f"stokes: {name} {x!r} is off the closed form {exact!r}")

    return _guarded(check)


@_guarded
def suite_check(stdout):
    rep = parse_json(stdout)
    names = tuple(c.get("name") for c in rep.get("checks", []))
    if names != SUITE_NAMES:
        raise CheckError(f"suite: checks {names}")
    failed = [c["name"] for c in rep["checks"] if c.get("passed") is not True]
    if failed or rep.get("passed") is not True:
        raise CheckError(f"suite: failed {failed}")


@_guarded
def ddzero_check(stdout):
    rep = parse_json(stdout)
    if rep.get("name") != "dd-zero" or rep.get("passed") is not True:
        raise CheckError("ddzero: not passed")
    if not (rep.get("fd_max", 1.0) <= 1e-4 and rep.get("analytic_max", 1.0) <= 1e-12):
        raise CheckError("ddzero: residuals out of tolerance")


def det46_check(seed: int, n: int):
    x = np.arange(1.0, n + 1.0)
    top = float(sum(j * x[j - 1] ** (j - 1) for j in range(1, n + 1)))
    expected = top * float(np.linalg.det(np.random.default_rng(seed).random((n, n))))

    def check(stdout):
        rep = parse_json(stdout)
        if rep.get("passed") is not True or rep.get("n") != n:
            raise CheckError("det46: not passed")
        for side in ("lhs", "rhs"):
            if abs(rep[side] - expected) > DET_RTOL * max(1.0, abs(expected)):
                raise CheckError(f"det46: {side} {rep[side]!r}, reference {expected!r}")

    return _guarded(check)


def _one_form_check(expected: np.ndarray, rtol: float, what: str):
    scale = max(1.0e-300, float(np.max(np.abs(expected))))

    def check(stdout):
        got = parse_form_output(stdout, 1)
        for i, g in enumerate(expected, start=1):
            c = got.pop((i,), 0.0)
            if abs(c - g) > rtol * scale:
                raise CheckError(f"{what}: coefficient {i} is {c!r}, reference {g!r}")
        if got:
            raise CheckError(f"{what}: unexpected key {min(got)}")

    return _guarded(check)


def f1_gradient_check(at):
    w, x, y, z = at
    grad = np.array([x * y * z, 1.0 + y * w * z, 3.0 * y**2 + x * w * z, x * y * w])
    return _one_form_check(grad, 1e-6, "d f1")


def omega_gradient_check(at):
    # d/dx_i of (-1)^(i-1) x_i |x|^(-n), by the product rule
    x = np.asarray(at, dtype=float)
    n = x.size
    r2 = float(np.dot(x, x))
    grad = np.array(
        [(-1.0) ** i * (r2 ** (-n / 2) - n * x[i] ** 2 * r2 ** (-n / 2 - 1)) for i in range(n)]
    )
    return _one_form_check(grad, 1e-10, "d omega")
