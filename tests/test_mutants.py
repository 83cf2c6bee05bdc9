"""Mutation checks: a fast path broken on purpose must fail the suite checks that guard it.

Each case monkeypatches one fast path and runs checks.suite() once; the
set of failing check names must be exactly the expected one.  These
tests pass on working code by design, and fail when a check loses its
teeth.  The references the checks compare against (alt,
wedge_definitional, form_to_tensor and tests/oracles.py) are never
mutated: a check whose reference breaks along with its subject shows
nothing.  The permutation helpers behind alt and form_to_tensor
(tensors._signs and _permutations) are fast paths too; their mutants
must fail the checks of alt's own properties.  An expected set() marks
a suite blind spot; its comment says why, or names the tier-1 tests
that catch it.
"""

import itertools
import math

import numpy as np
import pytest

from extcalc import arrays, checks, derivatives, forms, sparse, stokes, tensors


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
    def unsigned(rows):
        # _canonical_rows with every sort permutation taken as even
        for row, c in rows:
            if len(set(row)) == len(row):
                yield tuple(sorted(row)), c

    # the sign rule lives in sparse; kform_from_rows and FieldForm._at bind it from there when
    # forms and derivatives are imported
    monkeypatch.setattr(sparse, "_canonical_rows", unsigned)
    monkeypatch.setattr(forms, "_canonical_rows", unsigned)
    monkeypatch.setattr(derivatives, "_canonical_rows", unsigned)


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


def _signs_one_flipped(monkeypatch):
    # the cached signs of each arity k >= 2 with the second permutation's sign negated
    signs = tensors._signs
    monkeypatch.setattr(tensors, "_signs",
                        lambda k: signs(k)[:1] + tuple(-s for s in signs(k)[1:2]) + signs(k)[2:])


def _permutation_images_reversed(monkeypatch):
    # each sign paired with the image of the permutation listed opposite it
    permutations = tensors._permutations

    def reversed_images(S, call):
        pairs = permutations(S, call)
        return list(zip([image for image, _ in reversed(pairs)], [sign for _, sign in pairs]))

    # alt reads tensors._permutations, and form_to_tensor imports it from tensors when it runs
    monkeypatch.setattr(tensors, "_permutations", reversed_images)


def _omega_sign_dropped(monkeypatch):
    # omega_gradient without its (-1)^(i-1): the negated coefficients of dx_2, dx_4, ...
    # negated back, which is exact
    omega_gradient = derivatives.omega_gradient

    def unsigned(x):
        return forms.KForm._trusted(1, ((key, c if key[0] % 2 else -c)
                                        for key, c in omega_gradient(x).terms.items()))

    monkeypatch.setattr(derivatives, "omega_gradient", unsigned)
    monkeypatch.setattr(checks, "omega_gradient", unsigned)


def _wedge_above_first_bit_only(monkeypatch):
    # wedge's sign from the bits above the right key's first index only
    above = forms._above
    monkeypatch.setattr(forms, "_above", lambda bits: above(bits[:1]))


def _legendre_polish_skipped(monkeypatch):
    # the Newton roots in floats, without the last step on integers
    monkeypatch.setattr(stokes, "_polished", lambda m, x: x)


def _unrank_next_rank(monkeypatch):
    # rform's keys unranked from r + 1 mod C(n, k) instead of r
    unrank = forms._unrank_subset
    monkeypatch.setattr(forms, "_unrank_subset",
                        lambda r, n, k: unrank((r + 1) % math.comb(n, k), n, k))


def _field_rows_after_key(monkeypatch):
    def at(self, x, degree, rows):
        # FieldForm._at with each field's key put before its rows, I_j + R for R + I_j
        x = derivatives._finite_array(x, 1, "point", self.dimension)[0]
        items = []
        for field, key in self.terms:
            items += sparse._accumulate(
                sparse._canonical_rows((key + R, c) for R, c in rows(field, x))).items()
        return forms.KForm._trusted(degree + self.arity, items)

    monkeypatch.setattr(derivatives.FieldForm, "_at", at)


def _gate_finiteness_skipped(monkeypatch):
    # the array gate without its isfinite pass: every other rule is checked on a finite
    # stand-in of the same shape, and the given values are returned unchecked
    gate = arrays._finite_array

    def unchecked(A, ndim, what, min_rows=0):
        A = np.asarray(A, dtype=float)
        shape = gate(np.zeros(A.shape), ndim, what, min_rows)[1]
        return A.reshape(shape).tolist(), shape

    # forms binds the gate at import; as_frame reads arrays._finite_array, and derivatives and
    # stokes import it from arrays per call
    monkeypatch.setattr(arrays, "_finite_array", unchecked)
    monkeypatch.setattr(forms, "_finite_array", unchecked)


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
    "signs-one-flipped": (_signs_one_flipped, {"alt-operator", "wedge-definitional"}),
    "permutation-images-reversed": (
        _permutation_images_reversed, {"alt-operator", "wedge-definitional"}),
    "omega-sign-dropped": (_omega_sign_dropped, {"omega-closedness"}),
    "wedge-above-first-bit-only": (
        _wedge_above_first_bit_only, {"wedge-algebra", "wedge-definitional", "omega-closedness"}),
    # test_newton_rule_matches_numpy_leggauss:
    "legendre-polish-skipped": (_legendre_polish_skipped, set()),
    # test_rform_matches_the_step_by_step_draw_over_many_seeds:
    "unrank-next-rank": (_unrank_next_rank, set()),
    # test_exterior_d_accepts_plain_callables:
    "field-rows-after-key": (_field_rows_after_key, set()),
    # test_gate_names_the_first_non_finite_value and
    # test_non_finite_frames_matrices_and_points_are_rejected:
    "gate-finiteness-skipped": (_gate_finiteness_skipped, set()),
}


@pytest.mark.parametrize("mutate, expected", MUTANTS.values(), ids=MUTANTS.keys())
def test_a_broken_fast_path_fails_exactly_its_checks(mutate, expected, monkeypatch):
    mutate(monkeypatch)
    failed = {report["name"] for report in checks.suite() if not report["passed"]}
    assert failed == expected
