"""Seeded property suites: every check in checks.SUITE_CHECKS must pass.

The same functions back `extcalc verify suite`, so this file keeps the
CLI verification surface green under pytest as well.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from extcalc import ArityError, KForm, KTensor, ParseError, checks, parse_form_text, parse_matrix_text

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
    "stokes-cubes": 4,
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
    names = [r["name"] for r in reports]
    assert len(names) == len(set(names)) == 14
    for r in reports:
        assert {"name", "cases", "passed"} <= set(r)


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


def test_seed_changes_the_draws():
    a = checks.check_multilinearity(seed=1)
    b = checks.check_multilinearity(seed=2)
    assert a["passed"] and b["passed"]
    assert a["max_err"] != b["max_err"]


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
