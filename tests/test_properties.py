"""Seeded property suites: every check in checks.SUITE_CHECKS must pass.

The same functions back `extcalc verify suite`, so this file keeps the
CLI verification surface green under pytest as well.
"""

import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis.extra.numpy import array_shapes, arrays

from extcalc import (
    ArityError, KForm, KTensor, ParseError, checks, contract, contract_matrix, dd_check,
    demo_two_form, dphi_example, evaluate_form, evaluate_tensor, exterior_d, f1, fd_gradient,
    fd_hessian, omega_gradient, parse_form_text, parse_matrix_text, phi_example, pullback,
    verify_det_proportionality, wedge,
)

EXPECTED_CASES = {
    "multilinearity": 100,
    "alternation-column-swap": 100,
    "alt-operator": 100,
    "wedge-algebra": 100,
    "wedge-definitional": 100,
    "contraction-vs-evaluation": 100,
    "det-proportionality": 100,
    "pullback": 100,
    "omega-closedness": 700,
    "gradient-consistency": 90,
    "dd-zero": 2,
    "exterior-d-demo": 2,
    "stokes-cubes": 5,
}


@pytest.mark.parametrize(
    "check", checks.SUITE_CHECKS, ids=lambda c: c.__name__
)
def test_suite_check_passes(check):
    report = check()
    assert report["passed"], report
    want = EXPECTED_CASES.get(report["name"])
    if want is not None:
        assert report["cases"] == want


def test_suite_names_unique_and_complete():
    reports = checks.suite()
    # in the order the report and the --stats line list them
    assert [r["name"] for r in reports] == [
        "multilinearity", "not-linear-in-frame", "alternation-column-swap", "alt-operator",
        "wedge-algebra", "wedge-definitional", "contraction-vs-evaluation",
        "det-proportionality", "pullback", "omega-closedness", "gradient-consistency",
        "dd-zero", "exterior-d-demo", "stokes-cubes"]
    for r in reports:
        assert {"name", "cases", "passed"} <= set(r)


def test_checks_take_no_settings():
    # the suite's one settable value is the point `verify ddzero --at` passes to check_dd_zero;
    # each check is check_<name>, the name perfbench/tracing.py builds its checks.* metrics from
    for check in checks.SUITE_CHECKS:
        want = ["x"] if check is checks.check_dd_zero else []
        assert check.__name__.startswith("check_"), check
        assert list(inspect.signature(check).parameters) == want, check.__name__


def test_checks_are_deterministic():
    a = checks.check_multilinearity()
    b = checks.check_multilinearity()
    assert a == b
    a = checks.check_det_proportionality()
    b = checks.check_det_proportionality()
    assert a == b


def test_negative_control_reports_gap():
    report = checks.check_not_linear_in_frame()
    assert report["passed"]
    assert report["gap"] > report["min_gap"]


def test_a_nan_error_is_refused_not_passed(monkeypatch, capsys):
    # max(0.0, nan) is 0.0: without the check a NaN error reads as a pass
    from extcalc.cli import main

    def nan(*args):
        return float("nan")

    monkeypatch.setattr(checks, "evaluate_form", nan)
    with pytest.raises(ValueError, match="check alternation-column-swap: an error came out NaN"):
        checks.check_alternation()
    monkeypatch.setattr(checks, "evaluate_tensor", nan)
    with pytest.raises(ValueError, match="check multilinearity: an error came out NaN"):
        checks.check_multilinearity()
    assert main(["verify", "suite"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: check multilinearity: an error came out NaN\n"


# ------------------------------------------------ text format properties
# derandomized with no example database, so every run draws the same
# examples.  Hypothesis still caches the constants it reads from local
# source at collection time; that cache goes under .pytest_cache (set
# here, at import, because collection writes it) instead of creating
# .hypothesis/ in the working directory.

set_hypothesis_home_dir(Path(__file__).resolve().parents[1] / ".pytest_cache" / "hypothesis")

_PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)

_finite = st.floats(allow_nan=False, allow_infinity=False)


def _sparse_maps(cls, unique, min_size=0):
    def of_arity(k):
        key = st.lists(st.integers(1, 9), min_size=k, max_size=k, unique=unique)
        key = key.map(lambda l: tuple(sorted(l)) if unique else tuple(l))
        terms = st.dictionaries(key, _finite, min_size=min_size, max_size=6)
        return terms.map(lambda d: cls(k, d))

    return st.integers(0, 4).flatmap(of_arity)


_TOKENS = ["kform", "ktensor", "zero", "k=0", "k=1", "k=2", "k=-1", "k=x", "0", "1", "2",
           "3", "-1", "2.5", ":", "nan", "inf", "-inf", "Infinity", "1e999", "#", "abc"]
_texts = st.lists(
    st.lists(st.sampled_from(_TOKENS), max_size=5).map(" ".join), max_size=5
).map("\n".join)


@_PROPERTY
@given(st.one_of(_sparse_maps(KForm, True), _sparse_maps(KTensor, False)))
def test_text_round_trip(x):
    back = parse_form_text(x.to_text())
    assert type(back) is type(x) and back.arity == x.arity
    assert back == x


@_PROPERTY
@given(_texts)
def test_malformed_text_fails_only_with_typed_errors(text):
    try:
        obj = parse_form_text(text)
    except (ParseError, ArityError, ValueError):
        pass
    else:
        assert all(math.isfinite(c) for c in obj.terms.values())
    try:
        M = parse_matrix_text(text)
    except ParseError:
        pass
    else:
        assert np.all(np.isfinite(M))


@_PROPERTY
@given(_sparse_maps(KForm, True, min_size=1), st.sampled_from(["nan", "-inf", "inf", "1e999"]),
       st.integers(0, 5))
def test_non_finite_coefficient_text_raises_parse_error(x, token, pick):
    lines = x.to_text().splitlines()
    line = 1 + pick % (len(lines) - 1)
    lines[line] = lines[line].partition(":")[0] + ": " + token
    with pytest.raises(ParseError, match=f"line {line + 1}"):
        parse_form_text("\n".join(lines))


@_PROPERTY
@given(_sparse_maps(KForm, True), _sparse_maps(KForm, True), _finite,
       st.lists(_finite, min_size=9, max_size=9),
       st.lists(st.integers(-3, 3), min_size=81, max_size=81))
def test_operations_store_only_finite_coefficients(a, b, s, v, m):
    # coefficients reach 1.8e308, so products and sums overflow; each
    # operation either refuses with ValueError or stores finite floats
    M = np.array(m, dtype=float).reshape(9, 9)
    ops = [lambda: wedge(a, b), lambda: a + a, lambda: a.scale(s), lambda: pullback(a, M)]
    if a.arity:
        ops.append(lambda: contract(a, v))
    for op in ops:
        try:
            r = op()
        except ValueError as exc:
            assert "finite" in str(exc)
        else:
            assert all(math.isfinite(c) for c in r.terms.values())


@_PROPERTY
@given(arrays(float, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
              elements=st.one_of(st.integers(-3, 3).map(float),
                                 st.sampled_from([math.nan, math.inf, -math.inf]))))
def test_outside_arrays_pass_the_gate_or_raise_value_errors(A):
    # any shape, any entries: each entry point returns or raises a
    # ValueError subclass, never IndexError or TypeError, and returns
    # only when every entry is finite
    w = KForm(2, {(1, 2): 1.0})
    calls = [
        lambda: evaluate_form(w, A),
        lambda: evaluate_form(KForm(1, {(2,): 1.0}), A),
        lambda: evaluate_tensor(KTensor(2, {(2, 1): 1.0}), A),
        lambda: contract(w, A),
        lambda: contract_matrix(w, A),
        lambda: pullback(w, A),
        lambda: verify_det_proportionality(w, A),
        lambda: exterior_d(demo_two_form(), A),
        lambda: dd_check(demo_two_form(), A),
        lambda: omega_gradient(A),
        lambda: phi_example(A),
        lambda: dphi_example(A),
        lambda: fd_gradient(f1.fn, A),
        lambda: fd_hessian(f1.fn, A),
    ]
    finite = bool(np.all(np.isfinite(A)))
    for call in calls:
        try:
            call()
        except ValueError:
            continue
        assert finite
