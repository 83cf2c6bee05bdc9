"""k-tensors: sparse multilinear maps, evaluation, tensor product, Alt.

A KTensor of arity k on R^n is a sparse sum of basis products
phi_{i1} x ... x phi_{ik}; its key set is unrestricted (any positive
indices, repeats allowed).  Evaluation takes an n-by-k frame whose
columns are the k argument vectors; it alone imports numpy, when first
called.
"""

from __future__ import annotations

import itertools
import math

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


def _finite_array(A, ndim: int, what: str, min_rows: int = 0):
    """A caller's frame, vector, matrix or point as a float array: the one gate.

    Where 2 axes are asked for, a 1-D array is read as one column.
    Other than ndim axes, or fewer than min_rows entries along axis 0,
    raises DimensionError naming `what`; any NaN or infinity, read or
    not, raises ValueError.
    """
    import numpy as np

    A = np.asarray(A, dtype=float)
    if ndim == 2 and A.ndim == 1:
        A = A[:, None]
    if A.ndim != ndim:
        raise DimensionError(f"{what} must be a {ndim}-D array, got shape {A.shape}")
    if A.shape[0] < min_rows:
        have = f"length {A.shape[0]}" if ndim == 1 else f"{A.shape[0]} rows"
        raise DimensionError(f"{what} has {have} but indices reach {min_rows}")
    for v in A.ravel().tolist():
        _check_finite(v)
    return A


def as_frame(E, arity: int, min_rows: int):
    """Coerce E to a finite float (n, arity) frame with n >= min_rows."""
    E = _finite_array(E, 2, "frame", min_rows)
    if E.shape[1] != arity:
        raise DimensionError(
            f"frame has {E.shape[1]} columns but the object has arity {arity}"
        )
    return E


def evaluate_tensor(S: KTensor, E) -> float:
    """Evaluate S on the frame E (columns are the k argument vectors).

    Rows of E beyond the implied dimension are ignored.
    """
    if S.arity == 0:
        return S.terms.get((), 0.0)
    E = as_frame(E, S.arity, S.dimension)
    total = 0.0
    for key, c in S.terms.items():
        p = c
        for j, i in enumerate(key):
            p *= E[i - 1, j]
        total += p
    return total


def tensor_product(S: SparseMap, T: SparseMap) -> KTensor:
    """Tensor product: keys concatenate, coefficients multiply."""
    return KTensor._trusted(
        S.arity + T.arity,
        (
            (ka + kb, ca * cb)
            for ka, ca in S.terms.items()
            for kb, cb in T.terms.items()
        ),
    )


def alt(T: SparseMap) -> KTensor:
    """Alternating part: alt(T) = (1/k!) sum_sigma sign(sigma) T o sigma.

    An exact k!-term enumeration per term.  This is the definitional
    route, kept as a correctness oracle rather than a hot path, so more
    than MAX_ENUMERATION permutations (len(T) * k!) are refused before
    the first.
    """
    k = T.arity
    if k < 1:
        raise ArityError("alt needs arity >= 1")
    _check_enumeration(
        f"alt on arity {k}: {len(T)} terms x {k}! permutations", len(T) * math.factorial(k)
    )
    fact = float(math.factorial(k))
    return KTensor._trusted(
        k,
        (
            (tuple(key[i] for i in perm), _parity(perm) * c / fact)
            for key, c in T.terms.items()
            for perm in itertools.permutations(range(k))
        ),
    )
