"""Mutation checks: a fast path broken on purpose must fail the suite checks that guard it.

Each case monkeypatches one fast path and runs checks.suite() once; the
set of failing check names must be exactly the expected one.  These
tests pass on working code by design, and fail when a check loses its
teeth.  The references the checks compare against (alt,
wedge_definitional, form_to_tensor and tests/oracles.py) are never
mutated: a check whose reference breaks along with its subject shows
nothing.
"""

import numpy as np
import pytest

from extcalc import checks, forms, stokes


def _merge_sign_always_plus(monkeypatch):
    merge = forms._merge_signed

    def unsigned(a, b):
        merged = merge(a, b)
        return None if merged is None else (merged[0], 1)

    monkeypatch.setattr(forms, "_merge_signed", unsigned)


def _contract_negated_above_arity_1(monkeypatch):
    contract = forms.contract

    def negated(w, v):
        out = contract(w, v)
        return out.scale(-1.0) if w.arity > 1 else out

    # contract_matrix reads forms.contract; the check calls its own import
    monkeypatch.setattr(forms, "contract", negated)
    monkeypatch.setattr(checks, "contract", negated)


def _dets_absolute(monkeypatch):
    dets = forms._dets
    monkeypatch.setattr(forms, "_dets", lambda A: np.abs(dets(A)))


def _boundary_orientations_swapped(monkeypatch):
    def swapped(field, cube, rule):
        # integrate_boundary with the signs of faces x_i = a and x_i = 0 exchanged
        full = tuple(range(1, cube.n + 1))
        faces = [
            (i - 1, side, orient, full[: i - 1] + full[i:])
            for i in full
            for side, orient in ((cube.a, (-1.0) ** i), (0.0, (-1.0) ** (i - 1)))
        ]
        return stokes._integrate(field, cube, rule, faces)

    monkeypatch.setattr(stokes, "integrate_boundary", swapped)


MUTANTS = {
    "merge-sign-always-plus": (
        _merge_sign_always_plus, {"wedge-algebra", "wedge-definitional", "omega-closedness"}),
    "contract-negated-above-arity-1": (
        _contract_negated_above_arity_1, {"contraction-vs-evaluation"}),
    "dets-absolute": (
        _dets_absolute,
        {"alternation-column-swap", "contraction-vs-evaluation", "det-proportionality", "pullback"}),
    "boundary-orientations-swapped": (_boundary_orientations_swapped, {"stokes-cubes"}),
}


@pytest.mark.parametrize("mutate, expected", MUTANTS.values(), ids=MUTANTS.keys())
def test_a_broken_fast_path_fails_exactly_its_checks(mutate, expected, monkeypatch):
    mutate(monkeypatch)
    failed = {report["name"] for report in checks.suite() if not report["passed"]}
    assert failed == expected
