"""Alternating k-forms with canonical strictly increasing keys.

A KForm stores one coefficient per strictly increasing multi-index, so
the alternating structure lives in the keys instead of in k!-fold
redundant tensor storage.  Construction from arbitrary rows sorts each
row, picks up the permutation sign, and drops rows with repeated
indices; after that every operation preserves the canonical key order.

The key algebra runs on Python floats; only the frame and matrix
routines (evaluate_form, contract, contract_matrix, pullback) import
numpy, when first called.
"""

from __future__ import annotations

import itertools
import math
import operator

from .sparse import (ArityError, SparseMap, _check_enumeration, _check_integral,
                     _check_key, _check_rows, format_coefficient)
from .tensors import KTensor, _finite_array, _parity, alt, as_frame, tensor_product

__all__ = [
    "KForm",
    "kform_from_rows",
    "elementary",
    "kform_general",
    "evaluate_form",
    "wedge",
    "wedge_definitional",
    "form_to_tensor",
    "alternating_tensor_to_form",
    "contract",
    "contract_matrix",
    "pullback",
    "symbolic",
    "rform",
    "SplitMix64",
]


class KForm(SparseMap):
    """Sparse alternating k-form; every key is strictly increasing.

    The constructor validates canonical keys; to build a form from
    unsorted or repeated index rows use kform_from_rows, which applies
    the sign bookkeeping.  `a ^ b` is the wedge product (note Python's
    `^` binds looser than `+`: parenthesize mixed expressions).
    """

    _header = "kform"

    def __init__(self, arity, terms=()):
        items = list(terms.items() if isinstance(terms, dict) else terms)
        super().__init__(arity, items)
        # every given key, also one whose coefficient is zero or cancels; super() checked them
        for key, _ in items:
            key = tuple(key)
            if any(a >= b for a, b in zip(key, key[1:])):
                raise ValueError(
                    f"form keys must be strictly increasing, got {key}; "
                    "use kform_from_rows to canonicalize raw rows"
                )

    def __call__(self, frame):
        return evaluate_form(self, frame)

    def __xor__(self, other):
        if isinstance(other, KForm):
            return wedge(self, other)
        return NotImplemented


def kform_from_rows(rows, coeffs=None) -> KForm:
    """Build a KForm from arbitrary index rows and coefficients.

    Each row is sorted into increasing order with its coefficient
    multiplied by the sort permutation's sign; rows with a repeated
    index are dropped; identical canonical keys accumulate.
    """
    k, rows, coeffs = _check_rows(rows, coeffs)
    return KForm._trusted(k, _canonical_rows(rows, coeffs))


def _canonical_rows(rows, coeffs):
    # (sorted row, parity sign * coeff) per checked row; rows with a repeated index drop
    for row, c in zip(rows, coeffs):
        if len(set(row)) == len(row):
            yield tuple(sorted(row)), _parity(row) * c


def elementary(i: int) -> KForm:
    """The elementary 1-form dx_i."""
    return KForm(1, {(i,): 1.0})


def kform_general(indices, k: int, coeffs=None) -> KForm:
    """General k-form over all k-subsets of the given index set.

    Subsets are ordered colexicographically ((1,2), (1,3), (2,3),
    (1,4), ...) and coefficients are assigned in that order; omitted
    coeffs default to all ones.  `indices` may be an int n, meaning
    1..n.  More than MAX_ENUMERATION subsets are refused before any is
    enumerated.
    """
    k = _check_integral(k, "k")
    try:
        indices = range(1, operator.index(indices) + 1)
    except TypeError:
        pass
    idx = tuple(indices)
    idx = sorted(_check_key(idx, len(idx)))
    if len(set(idx)) != len(idx):
        raise ValueError("index set must be distinct")
    _check_enumeration(f"kform_general: C({len(idx)}, {k}) subsets", math.comb(len(idx), k))
    subsets = sorted(itertools.combinations(idx, k), key=lambda t: t[::-1])
    if coeffs is None:
        coeffs = [1.0] * len(subsets)
    coeffs = [float(c) for c in coeffs]
    if len(coeffs) != len(subsets):
        raise ValueError(
            f"need {len(subsets)} coefficients for C({len(idx)},{k}) subsets, "
            f"got {len(coeffs)}"
        )
    return KForm._trusted(k, zip(subsets, coeffs))


# pullback gathers the minors of this many targets per key at a time
_TARGET_CHUNK = 4096


def _dets(A):
    """Determinants of a stack of square matrices, shape (..., m, m).

    Sizes 0..3 use direct cofactor formulas, elementwise over the stack,
    so small integer minors stay exact; larger sizes make one batched
    np.linalg.det call.  Every determinant is bitwise the one its matrix
    would give on its own.
    """
    import numpy as np

    m = A.shape[-1]
    if m == 0:
        return np.ones(A.shape[:-2])
    if m == 1:
        return A[..., 0, 0]
    if m == 2:
        return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    if m == 3:
        return (
            A[..., 0, 0] * (A[..., 1, 1] * A[..., 2, 2] - A[..., 1, 2] * A[..., 2, 1])
            - A[..., 0, 1] * (A[..., 1, 0] * A[..., 2, 2] - A[..., 1, 2] * A[..., 2, 0])
            + A[..., 0, 2] * (A[..., 1, 0] * A[..., 2, 1] - A[..., 1, 1] * A[..., 2, 0])
        )
    return np.linalg.det(A)


def evaluate_form(w: KForm, E) -> float:
    """Evaluate the form on a frame: sum of coeff * det(E[key rows]).

    The k-by-k blocks E[key rows] of all keys are stacked and their
    determinants taken in one call; the terms are then summed left to
    right in key order.  The frame must be finite.
    """
    import numpy as np

    if w.arity == 0:
        return w.terms.get((), 0.0)
    E = as_frame(E, w.arity, w.dimension)
    rows = np.array(list(w.terms), dtype=np.intp).reshape(-1, w.arity) - 1
    total = 0.0
    for c, d in zip(w.terms.values(), _dets(E[rows]).tolist()):
        total += c * d
    return total


def _merge_signed(a: tuple, b: tuple):
    # merge two strictly increasing tuples; None on shared index,
    # else (merged, sign) with sign = parity of the block shuffle
    out = []
    i = j = 0
    inv = 0
    la = len(a)
    while i < la and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
            inv += la - i
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), (-1 if inv % 2 else 1)


def wedge(w: KForm, e: KForm) -> KForm:
    """Wedge product by sorted key merge with inversion-count signs."""
    return KForm._trusted(
        w.arity + e.arity,
        (
            (merged[0], merged[1] * ca * cb)
            for ka, ca in w.terms.items()
            for kb, cb in e.terms.items()
            if (merged := _merge_signed(ka, kb)) is not None
        ),
    )


def form_to_tensor(w: KForm) -> KTensor:
    """Expand a k-form into its alternating k-tensor.

    Each increasing key I with coefficient c becomes the k! signed
    terms sign(sigma) * c on the permuted keys sigma(I); more than
    MAX_ENUMERATION permutations (len(w) * k!) are refused up front.
    """
    k = w.arity
    _check_enumeration(
        f"form_to_tensor on arity {k}: {len(w)} terms x {k}! permutations",
        len(w) * math.factorial(k),
    )
    return KTensor._trusted(
        k,
        (
            (tuple(key[i] for i in perm), _parity(perm) * c)
            for key, c in w.terms.items()
            for perm in itertools.permutations(range(k))
        ),
    )


def alternating_tensor_to_form(T: KTensor) -> KForm:
    """Read a k-form off an alternating tensor's increasing keys."""
    acc = {
        key: c
        for key, c in T.terms.items()
        if all(a < b for a, b in zip(key, key[1:]))
    }
    return KForm(T.arity, acc)


def wedge_definitional(w: KForm, e: KForm) -> KForm:
    """Wedge by the definition: C(k+l, k) * alt(w x e).

    Exponentially slower than `wedge`; exists as the independent
    second route for verification.  Its largest stage, alt over (k+l)!
    permutations of len(w) k! x len(e) l! terms, must fit MAX_ENUMERATION.
    """
    k, l = w.arity, e.arity
    terms = len(w) * math.factorial(k) * len(e) * math.factorial(l)
    _check_enumeration(
        f"wedge_definitional on arity {k + l}: {terms} terms x {k + l}! permutations",
        terms * math.factorial(k + l),
    )
    prod = tensor_product(form_to_tensor(w), form_to_tensor(e))
    if k + l == 0:
        return KForm(0, prod.terms)
    scaled = alt(prod).scale(float(math.comb(k + l, k)))
    return alternating_tensor_to_form(scaled)


def contract(w: KForm, v) -> KForm:
    """Interior product: plug v into the first slot.

    (dx_I)_v = sum_j (-1)^(j-1) v[i_j] dx_{I minus i_j}; contracting a
    1-form gives a 0-form.  v must be a 1-D vector reaching the form's
    dimension, and every entry finite, read or not.
    """
    if w.arity == 0:
        raise ArityError("cannot contract a 0-form")
    vals = _finite_array(v, 1, "vector", w.dimension).tolist()
    return KForm._trusted(
        w.arity - 1,
        (
            (key[:j] + key[j + 1 :], (-vals[i - 1] if j % 2 else vals[i - 1]) * c)
            for key, c in w.terms.items()
            for j, i in enumerate(key)
            if vals[i - 1] != 0.0
        ),
    )


def contract_matrix(w: KForm, V, lose: bool = True):
    """Left-fold contraction over the columns of V.

    With lose (the default) a fully contracted result is returned as a
    plain float instead of a 0-form.  V is a 1-D vector (one column) or a
    matrix with a row for each index up to the form's dimension, and
    every entry must be finite, read or not.
    """
    import numpy as np

    V = np.asarray(V, dtype=float)
    if V.ndim == 1:
        V = V[:, None]
    V = _finite_array(V, 2, "matrix of vectors", w.dimension)
    if V.shape[1] > w.arity:
        raise ArityError(
            f"cannot contract arity {w.arity} form with {V.shape[1]} vectors"
        )
    out = w
    for j in range(V.shape[1]):
        out = contract(out, V[:, j])
    if out.arity == 0 and lose:
        return out.terms.get((), 0.0)
    return out


def pullback(w: KForm, M) -> KForm:
    """Pull back along dx_i = sum_r M[i, r] dy_r.

    Each key I maps onto every increasing target J with the minor
    determinant det(M[I, J]) as weight.  The targets are taken in fixed
    chunks, and for each key the minors of a whole chunk are gathered
    into one stack and computed in one call; every target still sums
    its terms in key order, so the result is bitwise that of computing
    one minor at a time.  Exact-zero minors are skipped; near-zero
    accumulations are kept; zap explicitly if wanted.  The matrix must
    be square, reach the form's dimension and be finite, and more than
    MAX_ENUMERATION minors (keys times targets) are refused before the
    first chunk.
    """
    import numpy as np

    M = _finite_array(M, 2, "matrix", w.dimension)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"transformation matrix must be square, got {M.shape}")
    n = M.shape[0]
    k = w.arity
    _check_enumeration(f"pullback: {len(w)} keys x C({n}, {k}) minors", len(w) * math.comb(n, k))
    rows_coeffs = [((np.array(key, dtype=np.intp) - 1)[:, None], a) for key, a in w.terms.items()]
    targets = itertools.combinations(range(1, n + 1), k)

    def terms():
        # chunks outside, keys inside: each target still receives its
        # terms in key order, so the sums match a key-by-key loop bitwise
        while rows_coeffs and (chunk := list(itertools.islice(targets, _TARGET_CHUNK))):
            cols = np.array(chunk, dtype=np.intp).reshape(len(chunk), 1, k) - 1
            for rows, a in rows_coeffs:
                for target, d in zip(chunk, _dets(M[rows, cols]).tolist()):
                    if d != 0.0:
                        yield target, a * d

    return KForm._trusted(k, terms())


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def symbolic(x: SparseMap, style: str = "letters", symbols=None) -> str:
    """Render a tensor or form as one line of signed symbolic terms.

    style "letters" names index i by its letter (a, b, c, ...) or by
    symbols[i-1]; style "d" (alias "d-names") names it dx<i>, or
    d<symbols[i-1]> when symbols are given.  Factors join with "*" for
    tensors and "^" for forms; a unit coefficient is omitted, -1 prints
    as a bare minus, and terms are separated by single spaces with a
    leading + on a positive first term.
    """
    if style not in ("letters", "d", "d-names"):
        raise ValueError(f"unknown style {style!r}")
    if not x.terms:
        return "0"

    def factor(i: int) -> str:
        if style == "letters":
            sym = symbols if symbols is not None else _LETTERS
            if i > len(sym):
                raise ValueError(f"index {i} exceeds the {len(sym)} symbols supplied")
            return sym[i - 1]
        if symbols is not None:
            if i > len(symbols):
                raise ValueError(f"index {i} exceeds the {len(symbols)} symbols supplied")
            return "d" + symbols[i - 1]
        return f"dx{i}"

    joiner = "^" if isinstance(x, KForm) else "*"
    parts = []
    for key, c in x.terms.items():
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        body = joiner.join(factor(i) for i in key)
        if not body:
            parts.append(f"{sign} {format_coefficient(mag)}")
        elif mag == 1.0:
            parts.append(f"{sign} {body}")
        else:
            parts.append(f"{sign}{format_coefficient(mag)} {body}")
    return " ".join(parts)


_M64 = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 stream: a tiny seedable 64-bit generator.

    next() advances state by 0x9E3779B97F4A7C15 mod 2^64 and returns
    z = state; z = (z ^ z>>30) * 0xBF58476D1CE4B9FB; z = (z ^ z>>27) *
    0x94D049BB133111EB; z ^ z>>31, all mod 2^64.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = int(seed) & _M64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B9FB) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)


def _unrank_subset(r: int, n: int, k: int) -> tuple:
    # r-th k-subset of 1..n in lexicographic order
    out = []
    x = 1
    for slots in range(k, 0, -1):
        while math.comb(n - x, slots - 1) <= r:
            r -= math.comb(n - x, slots - 1)
            x += 1
        out.append(x)
        x += 1
    return tuple(out)


def rform(seed: int = 1, k: int = 3, n: int = 7, terms: int = 8) -> KForm:
    """Deterministic random k-form on R^n with `terms` distinct keys.

    The stream is SplitMix64(seed).  Keys: draw r = next() mod C(n,k)
    repeatedly, discarding ranks already taken, until `terms` distinct
    ranks are collected; each accepted rank is unranked to the r-th
    k-subset of 1..n in lexicographic order, and its coefficient is
    drawn immediately afterwards as v = next() mod 24, mapped to v-12
    for v < 12 (giving -12..-1) and to v-11 otherwise (giving 1..12).
    Equal seeds give equal forms on every platform.  All four arguments
    must be integral.
    """
    seed, k = _check_integral(seed, "seed"), _check_integral(k, "k")
    n, terms = _check_integral(n, "n"), _check_integral(terms, "terms")
    total = math.comb(n, k)
    if terms > total:
        raise ValueError(f"cannot place {terms} distinct keys among C({n},{k})={total}")
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    g = SplitMix64(seed)
    acc: dict[tuple, float] = {}
    seen: set[int] = set()
    while len(acc) < terms:
        r = g.next() % total
        if r in seen:
            continue
        seen.add(r)
        v = g.next() % 24
        c = float(v - 12 if v < 12 else v - 11)
        acc[_unrank_subset(r, n, k)] = c
    return KForm._trusted(k, acc.items())
