"""k-tensors: sparse multilinear maps, evaluation, tensor product, Alt.

A KTensor of arity k on R^n is a sparse sum of basis products
phi_{i1} x ... x phi_{ik}; its key set is unrestricted (any positive
indices, repeats allowed).  evaluate_tensor, tensor_product and alt
read every key so and refuse a KForm, whose key (1, 2) means dx1^dx2 =
phi1 x phi2 - phi2 x phi1 (form_to_tensor expands one).  Evaluation
takes an n-by-k frame whose columns are the k argument vectors, read
through the gate of extcalc.arrays.  Of the algebra commands, only
`alt` and those given a ktensor file load this module.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .sparse import ArityError, SparseMap, _check_enumeration, _check_key, _check_rows, _parity
from .arrays import _finite_sum, as_frame

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


def perm_sign(p) -> int:
    """Sign of a permutation of 1..k given in one-line notation."""
    p = tuple(p)
    k = len(p)
    p = _check_key(p, k)
    if sorted(p) != list(range(1, k + 1)):
        raise ValueError(f"{p} is not a permutation of 1..{k}")
    return _parity(p)


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
