import math
import random
import re

import numpy as np
import pytest

from extcalc import KForm, KTensor, SparseMap
from extcalc import sparse
from extcalc.sparse import format_coefficient
from test_api_contract import API_REFUSALS, check_refusal


def test_insert_accumulate_and_exact_cancellation():
    m = SparseMap(2, {(1, 3): 1.0})
    m = m.insert_accumulate((2, 4), 109.0)
    m = m.insert_accumulate((1, 3), -1.0)
    m = m.insert_accumulate((7, 8), 5.0)
    m = m.insert_accumulate((2, 4), 4.0)
    assert m.terms == {(2, 4): 113.0, (7, 8): 5.0}


def test_addition_merges_and_cancels():
    a = SparseMap(2, {(1, 3): 1.0, (2, 4): 109.0})
    b = SparseMap(2, {(1, 3): -1.0, (7, 8): 5.0, (2, 4): 4.0})
    assert (a + b).terms == {(2, 4): 113.0, (7, 8): 5.0}
    assert (-b).terms == {(1, 3): 1.0, (2, 4): -4.0, (7, 8): -5.0}
    # mixed types: the left operand's type decides (a KForm checks the map's keys)
    w = KForm(2, {(1, 3): 1.0})
    assert type(w + b) is KForm and (w + b).terms == {(2, 4): 4.0, (7, 8): 5.0}
    assert type(b + w) is SparseMap and (b + w).terms == (w + b).terms
    assert type(-w) is KForm and (-w).terms == {(1, 3): -1.0}


def test_a_form_and_a_tensor_never_compare_equal():
    # the rule that refuses their sum holds for comparison too: equal keys and coefficients
    # are still two kinds of object, and a bare SparseMap, of no kind, compares with either
    w, T = KForm(2, {(1, 2): 1.0}), KTensor(2, {(1, 2): 1.0})
    assert w != T and T != w and not w == T and KForm(2) != KTensor(2)
    m = SparseMap(2, {(1, 2): 1.0})
    assert m == w and w == m and m == T and T == m
    # nor does a map equal what is no map at all, where equals refuses it
    assert not w == 3 and w != 3


def test_self_cancellation_is_exact():
    a = SparseMap(3, {(5, 1, 1): 1.5, (2, 2, 2): -0.3})
    assert not (a + a.scale(-1.0)).terms


def test_scale():
    a = SparseMap(4, {(5, 1, 1, 1): 1.5})
    assert a.scale(2.0).terms == {(5, 1, 1, 1): 3.0}
    assert not a.scale(0.0).terms
    assert (2 * a).terms == (a * 2).terms == a.scale(2).terms


def test_construction_accumulates_pairs_and_drops_zeros():
    m = SparseMap(1, [((2,), 1.0), ((2,), -1.0), ((3,), 0.0), ((1,), 4.0)])
    assert m.terms == {(1,): 4.0}


def test_truthiness_is_having_terms():
    for cls in (KForm, KTensor):
        assert not cls(2) and not cls(0)
        assert cls(2, {(1, 2): -0.5}) and cls(0, {(): 3.0})
        assert not cls(1, {(1,): 2.0}).scale(0.0)


def test_lexicographic_iteration_any_insertion_order():
    pairs = [((2, 1), 5.0), ((1, 10), 1.0), ((1, 2), 2.0), ((2, 3), 3.0)]
    forward = SparseMap(2, pairs)
    backward = SparseMap(2, list(reversed(pairs)))
    want = [(1, 2), (1, 10), (2, 1), (2, 3)]
    assert list(forward.terms) == list(backward.terms) == want


def test_dimension_is_largest_index():
    assert SparseMap(2, {(1, 7): 1.0, (3, 2): 1.0}).dimension == 7
    assert SparseMap(2).dimension == 0


def test_zap_drops_at_or_below_tol():
    m = SparseMap(1, {(1,): 5e-12, (2,): 2e-11})
    assert m.zap(1e-11).terms == {(2,): 2e-11}
    assert not SparseMap(1, {(1,): 5e-12}).zap().terms
    assert m.zap(0.0).terms == m.terms


def test_equals_tolerance_and_empty_rule():
    a = SparseMap(2, {(1, 2): 1.0})
    b = SparseMap(2, {(1, 2): 1.0 + 5e-12})
    assert a.equals(a, 0.0)
    assert a.equals(b)
    assert not a.equals(b, 1e-13)
    assert a == a
    assert a != b
    # an empty map is the zero map whatever its recorded arity
    assert SparseMap(2).equals(SparseMap(5))
    assert SparseMap(2) == SparseMap(5)
    assert SparseMap(5).equals(SparseMap(2, {(1, 1): 1e-13}))
    assert not SparseMap(5).equals(SparseMap(2, {(1, 1): 1.0}))
    assert not a.equals(SparseMap(3, {(1, 2, 3): 1.0}))


def test_coefficient_formatting():
    assert format_coefficient(113.0) == "113"
    assert format_coefficient(-5.0) == "-5"
    assert format_coefficient(0.1) == "0.1"
    # round trip within 1e-15 relative
    x = 0.12345678901234567
    assert abs(float(format_coefficient(x)) - x) <= 1e-15 * abs(x)


def test_text_form_and_zero_line():
    m = SparseMap(2, {(2, 4): 113.0, (7, 8): 5.0, (1, 10): 0.5})
    assert m.to_text() == "1 10 : 0.5\n2 4 : 113\n7 8 : 5\n"
    assert SparseMap(3).to_text() == "zero k=3\n"


def _integral_rows(subject):
    # the rows of API_REFUSALS whose message reads "<subject> must be integral, got ..."
    return [row for row in API_REFUSALS
            if row[2] and re.fullmatch(rf"{subject} must be integral, got .*", row[2])]


def test_non_integral_indices_are_rejected():
    from extcalc import kform_from_rows

    rows = _integral_rows("indices")
    assert len(rows) == 13
    for row in rows:
        check_refusal(*row)
    # integral values of other numeric types keep working
    assert KForm(1, {(2.0,): 1.0}).terms == {(2,): 1.0}
    assert kform_from_rows([(np.int64(3), 1.0)]).terms == {(1, 3): -1.0}


def test_index_helpers_reject_non_integral_indices():
    from extcalc import (
        FieldForm, QuadratureRule, elementary, f1, hat, kform_general, perm_sign, rform,
        verify_stokes,
    )

    # counts are integral too: arity, hat's and the cube's n, quadrature points, subset size
    # and rform's counts; the helpers' indices are among the rows of the test above
    rows = _integral_rows("(arity|n|m|k|seed|terms)")
    assert len(rows) == 22
    for row in rows:
        check_refusal(*row)
    # integral values of other numeric types keep working
    assert elementary(2.0).terms == elementary(np.int64(2)).terms == {(2,): 1.0}
    assert kform_general([1, np.int64(2), 3.0], 2).terms == {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0}
    assert FieldForm([(f1, (1.0, np.int64(2)))]).terms[0][1] == (1, 2)
    assert perm_sign((2.0, np.int64(1))) == -1
    assert SparseMap(1, {(2,): 1.0}).coefficient((np.int64(2),)) == 1.0
    assert KForm(2.0).arity == KForm(np.int64(2)).arity == 2
    assert hat(np.int64(3)) == hat(3.0) == hat(3)
    assert verify_stokes(np.int64(2), 1.0, 4.0) == verify_stokes(2, 1.0, 4)
    assert QuadratureRule.gauss_legendre(np.int64(3), 1).m == 3
    assert kform_general(np.int64(3), 2.0) == kform_general(3, 2)
    assert rform(np.int64(2), 3.0, np.int64(7), 8.0) == rform(2, 3, 7, 8)


def test_an_infinite_tolerance_is_a_number():
    # zap drops everything, and equals takes any two maps as equal
    m = SparseMap(1, {(1,): 1.0})
    assert not m.zap(float("inf")) and m.equals(SparseMap(1), float("inf"))


def test_an_exactly_cancelling_pair_of_huge_terms_is_finite_and_stays_legal():
    big = KForm(1, {(1,): 1e308})
    assert not (big + big.scale(-1.0)).terms
    assert repr(big.scale(0.5)) == "KForm(k=1, {(1,): 5e+307})"


def test_text_lines_for_arity_zero_empty_maps_and_repeated_indices():
    # each line is its key's `i1 ... ik` and its coefficient's ` : c`: arity 0 writes a bare
    # ` : c`, arity 1 one index per line, an empty map only its `zero k=` line (after the
    # header), and a tensor's repeated indices each in place
    assert SparseMap(0, {(): 2.5}).to_text() == " : 2.5\n"
    assert KForm(0, {(): -3.0}).to_text() == "kform k=0\n : -3\n"
    assert KForm(0).to_text() == "kform k=0\nzero k=0\n"
    assert KTensor(4).to_text() == "ktensor k=4\nzero k=4\n"
    assert SparseMap(0).to_text() == "zero k=0\n"
    assert SparseMap(1, {(12,): -2.0, (3,): 0.1}).to_text() == "3 : 0.1\n12 : -2\n"
    assert KForm(1).to_text() == "kform k=1\nzero k=1\n"
    T = KTensor(3, {(2, 2, 1): 1e17, (1, 1, 1): -0.1, (3, 1, 3): 7.0, (10**20, 1, 1): 1.0})
    assert T.to_text() == ("ktensor k=3\n1 1 1 : -0.1\n2 2 1 : 1e+17\n3 1 3 : 7\n"
                           "100000000000000000000 1 1 : 1\n")


def test_text_formats_each_distinct_coefficient_once(monkeypatch):
    # byte for byte the per-term join, with one format_coefficient call per distinct value
    calls = []

    def counted(c):
        calls.append(c)
        return format_coefficient(c)

    rng = random.Random(19)
    pool = (0.5, -0.1, 1 / 3, 3.0, -7.0, 1e300, -1e300, 5e-324, 1e16, -1e16,
            9999999999999998.0, 1e16 + 2.0, 1.7976931348623157e308)
    for trial in range(40):
        k = trial % 4
        items = {tuple(rng.randint(1, 6) for _ in range(k)):
                 rng.choice(pool) if rng.random() < 0.7 else rng.uniform(-1e17, 1e17)
                 for _ in range(rng.randint(0, 30))}
        for m in (SparseMap(k, items), KTensor(k, items)):
            lines = [] if m._header is None else [f"{m._header} k={k}"]
            lines += [f"zero k={k}"] if not m.terms else [
                " ".join(map(str, key)) + " : " + format_coefficient(c)
                for key, c in m.terms.items()]
            monkeypatch.setattr(sparse, "format_coefficient", counted)
            calls.clear()
            assert m.to_text() == "\n".join(lines) + "\n"
            assert sorted(calls) == sorted(set(m.terms.values()))
            monkeypatch.undo()


def _accumulate_per_contribution(items):
    # the kernel as it once was: each running sum tested for zero as it forms and dropped
    # at once, the finiteness check over the final sums, then key order
    acc = {}
    for key, c in items:
        c = acc.get(key, 0.0) + float(c)
        if c == 0.0:
            acc.pop(key, None)
        else:
            acc[key] = c
    if not all(map(math.isfinite, acc.values())):
        raise ValueError("non-finite")
    return {key: acc[key] for key in sorted(acc)}


def _outcome(accumulate, items):
    # the stored (key, float.hex(c)) pairs in order, or "ValueError"
    try:
        return [(key, c.hex()) for key, c in accumulate(items).items()]
    except ValueError:
        return "ValueError"


def test_storage_kernel_matches_a_per_contribution_reference_bitwise():
    from extcalc.sparse import _accumulate

    pool = [1.0, -1.0, 0.5, -0.5, 0.1, 0.2, -0.3, 3.0, -3.0, 0.0, -0.0, 1e-300, -1e-300]
    cases = [
        [((1,), 1.5), ((1,), -1.5), ((1,), 0.25)],  # cancels, then is added to again
        [((1,), 1.5), ((2,), 1.0), ((1,), -1.5), ((2,), -1.0), ((1,), -0.0)],
        [((2,), -0.0)], [((2,), 0.0), ((2,), -0.0)], [((2,), -0.0), ((2,), 3.0)],
        [((2,), 3.0), ((2,), -0.0)], [((1, 2), 0.1), ((1, 2), 0.2), ((1, 2), -0.3)],
    ]
    for seed in range(100):
        rng = random.Random(seed)
        cases.append([((rng.randint(1, 3), rng.randint(1, 3)), rng.choice(pool))
                      for _ in range(rng.randint(0, 40))])
    cancelled_then_refilled = 0
    for items in cases:
        got = _outcome(_accumulate, items)
        assert got == _outcome(_accumulate_per_contribution, items), items
        assert got != "ValueError"
        running = {}
        for key, c in items:
            if running.get(key) == 0.0 and c != 0.0:
                cancelled_then_refilled += 1
            running[key] = running.get(key, 0.0) + c
    assert cancelled_then_refilled > 10


@pytest.mark.parametrize("items", [
    [((1,), math.inf)],
    [((1,), -math.inf), ((2,), 1.0)],
    [((1,), math.nan), ((1,), 1.0)],
    [((1,), math.inf), ((1,), -math.inf)],  # inf - inf is NaN, never 0.0
    [((1,), 1e308), ((1,), 1e308), ((1,), -1e308)],  # overflows to inf midway and stays
    [((2,), 1.0), ((1,), math.inf), ((2,), -1.0), ((3,), math.nan)],  # two bad keys
    [((1,), math.inf), ((1,), -1.0), ((1,), 0.0)],
])
def test_storage_kernel_refuses_every_non_finite_sum(items):
    from extcalc.sparse import _accumulate

    with pytest.raises(ValueError, match="cannot store the non-finite coefficient"):
        _accumulate(items)
    assert _outcome(_accumulate_per_contribution, items) == "ValueError"


def test_items_are_in_key_order():
    m = SparseMap(2, [((2, 1), 1.0), ((1, 2), 2.0), ((1, 1), -0.0)])
    assert list(m.items()) == [((1, 2), 2.0), ((2, 1), 1.0)]
