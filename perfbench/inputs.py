"""Seeded inputs and command lists for the three benchmark workloads.

Inputs come from numpy.random.default_rng(seed) only; nothing here
imports extcalc, so set-up does not depend on the code under test.  A
workload is a list of Command records, each carrying the CLI arguments
and the reference check for its output (see reference.py).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `extcalc <argv>`, expected exit 0.

    check(stdout_text) returns None when the output is correct and a
    one-line description of the defect otherwise.
    """

    label: str
    argv: tuple
    check: Callable[[str], "str | None"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], "tuple[list[Command], dict]"]


def _nonzero_ints(rng, size, high=12):
    mag = rng.integers(1, high + 1, size=size)
    return np.where(rng.random(size) < 0.5, -mag, mag)


def random_form(rng, k: int, n: int, terms: int) -> dict:
    """Canonical {increasing key: nonzero int} with distinct keys on R^n."""
    keys = list(itertools.combinations(range(1, n + 1), k))
    pick = np.sort(rng.choice(len(keys), size=terms, replace=False))
    coeffs = _nonzero_ints(rng, terms)
    return {keys[p]: int(c) for p, c in zip(pick, coeffs)}


def form_file_text(rng, form: dict, k: int, n: int) -> str:
    """Serialize a canonical form the way a user might write it by hand.

    Rows come permuted (coefficient times the permutation sign), about
    5% of keys are split over two rows, and about 2% extra rows repeat
    an index and so must be dropped by the reader; row order is
    shuffled.  Reading the file back canonicalizes to exactly `form`.
    """
    rows = []
    for key, c in form.items():
        parts = [c]
        if rng.random() < 0.05:
            first = int(_nonzero_ints(rng, 1)[0])
            if first != c:
                parts = [first, c - first]
        for part in parts:
            perm = rng.permutation(k)
            rows.append(([key[p] for p in perm], part * ref.parity(perm)))
    if k >= 2:
        for _ in range(max(1, len(form) // 50)):
            row = [int(i) for i in rng.choice(np.arange(1, n + 1), size=k - 1, replace=False)]
            row.append(row[int(rng.integers(0, k - 1))])
            rows.append((row, int(_nonzero_ints(rng, 1)[0])))
    order = rng.permutation(len(rows))
    lines = [f"# {len(form)}-term {k}-form on R^{n}", f"kform k={k}"]
    for r in order:
        idx, c = rows[r]
        lines.append(f"{' '.join(str(i) for i in idx)} : {c}")
    return "\n".join(lines) + "\n"


def matrix_text(M: np.ndarray) -> str:
    return "\n".join(" ".join(repr(float(x)) for x in row) for row in M) + "\n"


def well_conditioned(rng, n: int, max_cond: float = 50.0) -> np.ndarray:
    """Random n x n matrix with 4-decimal entries and cond(M) <= max_cond."""
    while True:
        M = np.round(rng.uniform(-1.0, 1.0, (n, n)), 4) + 3.0 * np.eye(n)
        if np.linalg.cond(M) <= max_cond:
            return M


def trivial_command(workdir: Path) -> Command:
    """`print` of a one-term file: the warm-up and cli.startup_s command."""
    path = workdir / "trivial.txt"
    path.write_text("kform k=1\n1 : 1\n", encoding="utf-8")
    return Command("print-trivial", ("print", str(path)), ref.symbolic_check({(1,): 1}))


# -- algebra-files ---------------------------------------------------------

ALGEBRA_N = 40
PULLBACK_N = 12


def build_algebra(seed: int, workdir: Path):
    rng = np.random.default_rng(seed)
    n = ALGEBRA_N
    A = random_form(rng, 3, n, 1000)
    B = random_form(rng, 2, n, 60)
    # the add partner shares 300 keys with A; a third of those cancel exactly
    shared = [list(A)[i] for i in np.sort(rng.choice(len(A), size=300, replace=False))]
    C = {key: (-A[key] if i % 3 == 0 else int(_nonzero_ints(rng, 1)[0])) for i, key in enumerate(shared)}
    fresh = [key for key in random_form(rng, 3, n, 1500) if key not in A]
    for p in rng.choice(len(fresh), size=700, replace=False):
        C[fresh[p]] = int(_nonzero_ints(rng, 1)[0])
    E = rng.integers(-3, 4, size=(n, 3)).astype(float)
    V = np.round(rng.uniform(-1.0, 1.0, (n, 3)), 3)
    P3 = random_form(rng, 3, PULLBACK_N, 200)
    P5 = random_form(rng, 5, PULLBACK_N, 150)
    M = well_conditioned(rng, PULLBACK_N)

    files = {}
    for name, form, k, dim in (("A3", A, 3, n), ("B2", B, 2, n), ("C3", C, 3, n),
                               ("P3", P3, 3, PULLBACK_N), ("P5", P5, 5, PULLBACK_N)):
        files[name] = workdir / f"{name}.txt"
        files[name].write_text(form_file_text(rng, form, k, dim), encoding="utf-8")
    for name, mat in (("E", E), ("V", V), ("M", M)):
        files[name] = workdir / f"{name}.txt"
        files[name].write_text(matrix_text(mat), encoding="utf-8")
    f = {name: str(path) for name, path in files.items()}

    commands = [
        Command("print", ("print", f["A3"]), ref.symbolic_check(A)),
        Command("add", ("add", f["A3"], f["C3"]), ref.add_check(A, C, 3)),
        Command("eval", ("eval", f["A3"], f["E"]), ref.scalar_form_check(A, E)),
        Command("contract", ("contract", f["A3"], f["V"]), ref.scalar_form_check(A, V)),
        Command("wedge", ("wedge", f["A3"], f["B2"]), ref.wedge_check(A, 3, B, 2)),
        Command("pullback-k3", ("pullback", f["P3"], f["M"]), ref.pullback_check(P3, 3, M)),
        Command("pullback-k5", ("pullback", f["P5"], f["M"]), ref.pullback_check(P5, 5, M)),
    ]
    sizes = {
        "A3": {"k": 3, "n": n, "terms": len(A)},
        "B2": {"k": 2, "n": n, "terms": len(B)},
        "C3": {"k": 3, "n": n, "terms": len(C), "shared_with_A3": 300, "cancelled_by_construction": 100},
        "P3": {"k": 3, "n": PULLBACK_N, "terms": len(P3)},
        "P5": {"k": 5, "n": PULLBACK_N, "terms": len(P5)},
        "E": {"shape": list(E.shape)},
        "V": {"shape": list(V.shape)},
        "M": {"shape": list(M.shape), "cond": float(np.linalg.cond(M))},
    }
    return commands, sizes


# -- stokes-cube -----------------------------------------------------------

STOKES_CASES = ((3, 1.0, 8), (4, 1.0, 8), (4, 0.5, 8), (5, 1.0, 6), (6, 1.0, 4))


def build_stokes(seed: int, workdir: Path):
    # the cube cases are fixed; the seed has nothing to vary here
    commands = []
    for n, a, m in STOKES_CASES:
        label = f"stokes-n{n}-m{m}" + ("" if a == 1.0 else f"-a{a}")
        argv = ("verify", "stokes", "--n", str(n), "--a", repr(a), "--m", str(m))
        commands.append(Command(label, argv, ref.stokes_check(n, a, m)))
    sizes = {
        "cases": [
            {"n": n, "a": a, "m": m, "nodes": m**n + 2 * n * m ** (n - 1)}
            for n, a, m in STOKES_CASES
        ]
    }
    return commands, sizes


# -- verify-suite ------------------------------------------------------------

OMEGA_AT = (1.0, 2.0, 3.0, 4.0, 5.0)


def build_verify(seed: int, workdir: Path):
    det_seed = int(np.random.default_rng(seed).integers(0, 2**31))
    commands = [
        Command("suite", ("verify", "suite"), ref.suite_check),
        Command("ddzero", ("verify", "ddzero"), ref.ddzero_check),
        Command("det46", ("verify", "det46", "--seed", str(det_seed)), ref.det46_check(det_seed, 9)),
        Command("d-f1-fd", ("d", "--field", "f1", "--fd"), ref.f1_gradient_check((1.0, 2.0, 3.0, 4.0))),
        Command(
            "d-omega",
            ("d", "--omega", "--at", *(repr(x) for x in OMEGA_AT)),
            ref.omega_gradient_check(OMEGA_AT),
        ),
    ]
    return commands, {"det46": {"seed": det_seed, "n": 9}, "omega_at": list(OMEGA_AT)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "algebra-files",
            "file commands on ~1k-term forms: parsing, canonicalization, wedge per pair, pullback per minor and text writing",
            build_algebra,
        ),
        Workload(
            "stokes-cube",
            "verify stokes for n=3..6: per-node quadrature, one form construction and evaluation per node",
            build_stokes,
        ),
        Workload(
            "verify-suite",
            "seeded property suite and derivative checks: thousands of 1-5 term objects, so per-call cost dominates",
            build_verify,
        ),
    )
}
