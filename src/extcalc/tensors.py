"""k-tensors: sparse multilinear maps, evaluation, tensor product, Alt.

A KTensor of arity k on R^n is a sparse sum of basis products
phi_{i1} x ... x phi_{ik}; its key set is unrestricted (any positive
indices, repeats allowed).  evaluate_tensor, tensor_product and alt
read every key so and refuse a KForm, whose key (1, 2) means dx1^dx2 =
phi1 x phi2 - phi2 x phi1 (form_to_tensor expands one).  Evaluation
takes an n-by-k frame whose columns are the k argument vectors.  The
array gate shared by every module reads nested lists of Python numbers
itself, so this module imports numpy only to read any other input.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .sparse import (ArityError, DimensionError, SparseMap, _check_enumeration, _check_finite,
                     _check_key, _check_rows)

__all__ = [
    "KTensor",
    "ktensor_from_rows",
    "perm_sign",
    "evaluate_tensor",
    "tensor_product",
    "alt",
]


class KTensor(SparseMap):
    """Sparse k-tensor; keys are unrestricted multi-indices."""

    _header = "ktensor"

    def __call__(self, frame):
        return evaluate_tensor(self, frame)


def ktensor_from_rows(rows, coeffs=None) -> KTensor:
    """Build a KTensor from index rows and matching coefficients.

    Duplicate rows accumulate.  With coeffs omitted every row gets 1.
    """
    k, rows, coeffs = _check_rows(rows, coeffs)
    return KTensor._trusted(k, zip(rows, coeffs))


def _parity(seq) -> int:
    # +1/-1 by the parity of the inversion count of seq
    inv = 0
    k = len(seq)
    for i in range(k):
        si = seq[i]
        for j in range(i + 1, k):
            if si > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def perm_sign(p) -> int:
    """Sign of a permutation of 1..k given in one-line notation."""
    p = tuple(p)
    k = len(p)
    p = _check_key(p, k)
    if sorted(p) != list(range(1, k + 1)):
        raise ValueError(f"{p} is not a permutation of 1..{k}")
    return _parity(p)


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

    values is a list of floats for 1 axis and a list of rows for 2.  Lists
    of Python numbers are read without numpy; other input goes through
    numpy.asarray.  Where 2 axes are asked for, a 1-D input is one column.
    Other than ndim axes, unequal rows, or fewer than min_rows entries
    along axis 0, raises DimensionError naming `what`; any NaN or
    infinity, read or not, raises ValueError.
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


def _refuse_kforms(call: str, *maps: SparseMap) -> None:
    if any(m._header == "kform" for m in maps):
        raise TypeError(f"{call} needs a tensor, not a kform: expand it with form_to_tensor first")


def evaluate_tensor(S: KTensor, E) -> float:
    """Evaluate S on the frame E (columns are the k argument vectors).

    Rows of E beyond the implied dimension are ignored; a NaN or
    infinite value (an overflowing product or sum) raises ValueError.
    """
    _refuse_kforms("evaluate_tensor", S)
    if S.arity == 0:
        return S.terms.get((), 0.0)
    # the frame's columns, each led by a placeholder so that a 1-based index reads its entry
    columns = [(None, *column) for column in zip(*as_frame(E, S.arity, S.dimension))]
    return _finite_sum((math.prod(map(operator.getitem, columns, key), start=c)
                        for key, c in S.terms.items()), "evaluate_tensor")


def tensor_product(S: SparseMap, T: SparseMap) -> KTensor:
    """Tensor product: keys concatenate, coefficients multiply."""
    _refuse_kforms("tensor_product", S, T)
    return KTensor._trusted(
        S.arity + T.arity,
        ((ka + kb, ca * cb) for ka, ca in S.terms.items() for kb, cb in T.terms.items()))


def _count_permutations(call: str, k: int, terms: int, *expanded: int) -> None:
    # the one count of the definitional routes: `terms` terms, each first expanded j! ways
    # per arity j <= k in `expanded`, then permuted k! ways; 10! alone exceeds the bound
    if not terms:
        return
    if k > 20:
        raise ValueError(f"{call} on arity {k}: {k}! permutations exceed the bound; refusing")
    terms *= math.prod(map(math.factorial, expanded))
    _check_enumeration(terms * math.factorial(k), "{} on arity {}: {} terms x {}! permutations",
                       call, k, terms, k)


@functools.cache
def _signs(k: int) -> tuple:
    # sign(sigma) per permutation sigma of range(k), in itertools.permutations order, once per
    # arity: a counted call has k! <= MAX_ENUMERATION, so k <= 9 and at most 9! signs are kept
    return tuple(map(_parity, itertools.permutations(range(k))))


def _permutations(S: SparseMap, call: str) -> list:
    # counted first, then (image, sign) per permutation sigma of range(k), in
    # itertools.permutations order: image(key) is sigma(key) through one itemgetter, built
    # once per call (a key of arity <= 1 is its own image); none for an empty S
    k = S.arity
    _count_permutations(call, k, len(S))
    if not S.terms:
        return []
    images = (operator.itemgetter(*perm) if k > 1 else tuple
              for perm in itertools.permutations(range(k)))
    return list(zip(images, _signs(k)))


def alt(T: SparseMap) -> KTensor:
    """Alternating part: alt(T) = (1/k!) sum_sigma sign(sigma) T o sigma.

    The definitional route, an exact k!-term enumeration per term kept
    as a correctness oracle rather than a hot path: more than
    MAX_ENUMERATION permutations (len(T) * k!) are refused before the
    first, no factorial past 20! is evaluated, and an empty T is empty.
    """
    _refuse_kforms("alt", T)
    k = T.arity
    if k < 1:
        raise ArityError("alt needs arity >= 1")
    perms = _permutations(T, "alt")
    fact = float(math.factorial(k)) if perms else 1.0
    return KTensor._trusted(k, ((image(key), (sign * c) / fact)
                                for key, c in T.terms.items() for image, sign in perms))
