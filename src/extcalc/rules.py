"""The input rules every layer checks: keys, form keys, integral and finite
numbers, tolerances, the enumeration bound, and the two errors they raise
beside ValueError.  The module imports no other extcalc module, so that
`verify stokes` checks its inputs without loading extcalc.sparse, which
imports these rules back."""

from __future__ import annotations

import math
import operator

__all__ = ["ArityError", "DimensionError", "DEFAULT_TOL"]

DEFAULT_TOL = 1e-11

# the most permutations, minors, subsets or nodes one call may enumerate
MAX_ENUMERATION = 2**20


class ArityError(ValueError):
    """Keys or operands disagree about the arity k."""


class DimensionError(ValueError):
    """An evaluation frame or matrix is too small for the object."""


def _check_enumeration(count: int, what: str, *args) -> None:
    # `what` is a str.format template of args, formatted only for the refusal
    if count > MAX_ENUMERATION:
        raise ValueError(f"{what.format(*args)} = {count} exceeds the bound {MAX_ENUMERATION}; "
                         "refusing")


def _check_integral(x, what: str = "indices") -> int:
    # int(x) for an integral number of any type (2.0, numpy's int64(2));
    # 2.7, infinity, NaN or the string "2" raise ValueError naming `what`
    try:
        i = int(x)
    except (OverflowError, ValueError):
        i = None
    if i != x:
        raise ValueError(f"{what} must be integral, got {x!r}")
    return i


def _check_key(key, arity: int) -> tuple:
    key = tuple(map(_check_integral, key))
    if len(key) != arity:
        raise ArityError(f"key {key} has arity {len(key)}, expected {arity}")
    if min(key, default=1) < 1:
        raise ValueError(f"indices are 1-based positive integers, got {key}")
    return key


def _check_form_key(key, arity: int) -> tuple:
    # the form key rule, with one message for KForm and FieldForm
    key = _check_key(key, arity)
    if not all(map(operator.lt, key, key[1:])):
        raise ValueError(f"form keys must be strictly increasing, got {key}; "
                         "use kform_from_rows to canonicalize raw rows")
    return key


def _check_finite(c) -> float:
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"need a finite number, got {c}")
    return c


def _check_tol(tol) -> float:
    # a NaN tolerance compares false with everything: refuse it
    tol = float(tol)
    if math.isnan(tol):
        raise ValueError(f"a tolerance must be a number, got {tol}")
    return tol
