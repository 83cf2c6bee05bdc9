"""Mutation checks: a fast path broken on purpose must fail the suite checks that guard it.

Each case monkeypatches one fast path and runs checks.suite() once; the
set of failing check names must be exactly the expected one.  These
tests pass on working code by design, and fail when a check loses its
teeth.  The references the checks compare against (alt,
wedge_definitional, form_to_tensor and tests/oracles.py) are never
mutated: a check whose reference breaks along with its subject shows
nothing.
"""

import itertools

import numpy as np
import pytest

from extcalc import checks, derivatives, forms, stokes


def _merge_sign_always_plus(monkeypatch):
    # wedge's sign is the parity of the left mask's bits in _above: with none, always +
    monkeypatch.setattr(forms, "_above", lambda bits: 0)


def _contract_negated_above_arity_1(monkeypatch):
    contract = forms.contract

    def negated(w, v):
        out = contract(w, v)
        return out.scale(-1.0) if w.arity > 1 else out

    # contract_matrix reads forms.contract; the check calls its own import
    monkeypatch.setattr(forms, "contract", negated)
    monkeypatch.setattr(checks, "contract", negated)


def _dets_absolute(monkeypatch):
    # both determinant routes: cofactor expansion through 3x3 and the stack from 4x4 up
    dets, cofactors = forms._dets, forms._cofactors
    monkeypatch.setattr(forms, "_dets", lambda A: np.abs(dets(A)))
    monkeypatch.setattr(forms, "_cofactors",
                        lambda row, below, cols: [abs(d) for d in cofactors(row, below, cols)])


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


def _canonical_rows_unsigned(monkeypatch):
    def unsigned(rows, coeffs):
        # _canonical_rows with every sort permutation taken as even
        for row, c in zip(rows, coeffs):
            if len(set(row)) == len(row):
                yield tuple(sorted(row)), c

    # kform_from_rows reads forms._canonical_rows, and dd_check imports it from forms when it
    # runs
    monkeypatch.setattr(forms, "_canonical_rows", unsigned)


def _pullback_first_chunk_only(monkeypatch):
    # C(n, k) <= 10 targets for the suite's n <= 5 pullbacks, so at the
    # default _TARGET_CHUNK of 4096 they never span two chunks: shrink it
    monkeypatch.setattr(forms, "_TARGET_CHUNK", 2)
    pullback = forms.pullback

    def first_chunk(w, M):
        # every target keeps its own sum, so dropping the later chunks is a filter
        n = np.asarray(M).shape[0]
        targets = itertools.combinations(range(1, n + 1), w.arity)
        first = set(itertools.islice(targets, forms._TARGET_CHUNK))
        return forms.KForm._trusted(
            w.arity, ((key, c) for key, c in pullback(w, M).terms.items() if key in first))

    monkeypatch.setattr(checks, "pullback", first_chunk)


def _pulled_drops_last_key(monkeypatch):
    # the one minors loop behind both pullback and evaluate_form
    pulled = forms._pulled

    def dropped(w, M, width, targets):
        if len(w) > 1:
            w = forms.KForm._trusted(w.arity, list(w.terms.items())[:-1])
        return pulled(w, M, width, targets)

    monkeypatch.setattr(forms, "_pulled", dropped)


def _contract_matrix_columns_reversed(monkeypatch):
    contract_matrix = forms.contract_matrix

    def reversed_columns(w, V, lose=True):
        return contract_matrix(w, np.asarray(V)[:, ::-1], lose)

    monkeypatch.setattr(forms, "contract_matrix", reversed_columns)
    monkeypatch.setattr(checks, "contract_matrix", reversed_columns)


def _fd_hessian_symmetrized(monkeypatch):
    fd_hessian = derivatives.fd_hessian

    def symmetrized(f, x):
        H = fd_hessian(f, x)
        return (H + H.T) / 2

    monkeypatch.setattr(derivatives, "fd_hessian", symmetrized)


def _axis_table_sign_flipped(monkeypatch):
    # the per-axis tables of the node values with the first term's sign flipped
    at_nodes = stokes._AxisSum.at_nodes

    def flipped(self, axes):
        (p, c), *rest = self
        return at_nodes(stokes._AxisSum([(p, -c), *rest]), axes)

    monkeypatch.setattr(stokes._AxisSum, "at_nodes", flipped)


def _axis_tables_reordered(monkeypatch):
    # each axis's table built from the term of the mirrored axis, n + 1 - j for axis j
    at_nodes = stokes._AxisSum.at_nodes
    monkeypatch.setattr(stokes._AxisSum, "at_nodes",
                        lambda self, axes: at_nodes(stokes._AxisSum(self[::-1]), axes))


def _signed_weights_drop_orient(monkeypatch):
    # the prefix products from [1.0] instead of [orient]: every face counted as positive
    signed_weights = stokes._signed_weights
    monkeypatch.setattr(stokes, "_signed_weights",
                        lambda orient, weights, degree: signed_weights(1.0, weights, degree))


MUTANTS = {
    "merge-sign-always-plus": (
        _merge_sign_always_plus, {"wedge-algebra", "wedge-definitional", "omega-closedness"}),
    "contract-negated-above-arity-1": (
        _contract_negated_above_arity_1, {"contraction-vs-evaluation"}),
    "dets-absolute": (
        _dets_absolute,
        {"alternation-column-swap", "contraction-vs-evaluation", "det-proportionality", "pullback"}),
    "boundary-orientations-swapped": (_boundary_orientations_swapped, {"stokes-cubes"}),
    "canonical-rows-unsigned": (_canonical_rows_unsigned, {"dd-zero"}),
    "pullback-first-chunk-only": (_pullback_first_chunk_only, {"pullback"}),
    "pulled-drops-last-key": (_pulled_drops_last_key, {"contraction-vs-evaluation", "pullback"}),
    "contract-matrix-columns-reversed": (
        _contract_matrix_columns_reversed, {"contraction-vs-evaluation"}),
    # at dd-zero's one point the raw cross stencils already come out exactly
    # symmetric (fd_max is 0.0), so symmetrizing changes nothing it reads
    "fd-hessian-symmetrized": (_fd_hessian_symmetrized, set()),
    "axis-table-sign-flipped": (_axis_table_sign_flipped, {"stokes-cubes"}),
    "axis-tables-reordered": (_axis_tables_reordered, {"stokes-cubes"}),
    "signed-weights-drop-orient": (_signed_weights_drop_orient, {"stokes-cubes"}),
}


@pytest.mark.parametrize("mutate, expected", MUTANTS.values(), ids=MUTANTS.keys())
def test_a_broken_fast_path_fails_exactly_its_checks(mutate, expected, monkeypatch):
    mutate(monkeypatch)
    failed = {report["name"] for report in checks.suite() if not report["passed"]}
    assert failed == expected
