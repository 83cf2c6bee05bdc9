"""The array gate: every frame, vector, matrix and point a caller passes in.

Nested lists and tuples of Python numbers are read without numpy; any
other input goes through numpy.asarray.
"""

from __future__ import annotations

import itertools
import math

from .rules import DimensionError, _check_finite

_NUMBERS = {int, float, bool}


def _nested(A, what: str):
    # (shape, values) of a Python int or float, or a list or tuple of them or of equally long
    # rows of them; None for anything else, which numpy reads; unequal rows raise DimensionError
    if type(A) in _NUMBERS:
        return (), float(A)
    if not isinstance(A, (list, tuple)):
        return None
    if set(map(type, A)) <= _NUMBERS:
        return (len(A),), list(map(float, A))
    if not (all(map(isinstance, A, itertools.repeat((list, tuple))))
            and set(map(type, itertools.chain.from_iterable(A))) <= _NUMBERS):
        return None
    if len(widths := set(map(len, A))) > 1:
        raise DimensionError(f"{what} has rows of unequal lengths: {sorted(widths)}")
    return (len(A), widths.pop()), [list(map(float, row)) for row in A]


def _finite_array(A, ndim: int, what: str, min_rows: int = 0):
    """A caller's frame, vector, matrix or point as (values, shape): the one gate.

    values is a list of floats for 1 axis and a list of rows for 2.  Where
    2 axes are asked for, a 1-D input is one column.  Other than ndim
    axes, unequal rows, or fewer than min_rows entries along axis 0,
    raises DimensionError naming `what`; any NaN or infinity, read or
    not, raises ValueError.
    """
    if (nested := _nested(A, what)) is None:
        import numpy as np

        A = np.asarray(A, dtype=float)
        nested = A.shape, A.tolist()
    shape, values = nested
    if ndim == 2 and len(shape) == 1:
        shape, values = (shape[0], 1), [[v] for v in values]
    if len(shape) != ndim:
        raise DimensionError(f"{what} must be a {ndim}-D array, got shape {shape}")
    if shape[0] < min_rows:
        have = f"length {shape[0]}" if ndim == 1 else f"{shape[0]} rows"
        raise DimensionError(f"{what} has {have} but indices reach {min_rows}")
    rows = [values] if ndim == 1 else values
    if not all(map(math.isfinite, itertools.chain.from_iterable(rows))):
        for v in itertools.chain.from_iterable(rows):  # again, to name the first bad value
            _check_finite(v)
    return values, shape


def as_frame(E, arity: int, min_rows: int) -> list:
    """E as the rows of a finite (n, arity) frame with n >= min_rows."""
    E, shape = _finite_array(E, 2, "frame", min_rows)
    if shape[1] != arity:
        raise DimensionError(f"frame has {shape[1]} columns but the object has arity {arity}")
    return E


def _finite_sum(terms, call: str) -> float:
    # the terms summed left to right; a NaN or infinite total is refused once, at the end
    total = 0.0
    for t in terms:
        total += t
    if not math.isfinite(total):
        raise ValueError(f"{call}: the value came out {total}: a product or sum overflowed")
    return total
