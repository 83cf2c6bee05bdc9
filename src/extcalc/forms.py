"""Alternating k-forms with canonical strictly increasing keys.

A KForm stores one coefficient per strictly increasing multi-index, so
the alternating structure lives in the keys instead of in k!-fold
redundant tensor storage (the class is extcalc.sparse's, re-exported
here).  Construction from arbitrary rows sorts each row, picks up the
permutation sign, and drops rows with repeated indices; after that every
operation preserves the canonical key order.

Everything runs on Python floats, frames and matrices included: the
wedge works on integer index masks, and minors through 3x3 are expanded
by cofactors.  One loop computes every minor and sums each target's
terms: pullback runs it on all increasing targets, and evaluate_form on
the single target (1, ..., k).  Only degree 4 or more imports numpy,
for stacks of up to _TARGET_CHUNK minors per np.linalg.det call.  Only
the definitional routes, form_to_tensor and wedge_definitional, import
extcalc.tensors.  The one-line symbolic rendering lives beside the
parser, in extcalc.textio, so `print` loads no algebra.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .rules import ArityError, _check_enumeration, _check_integral, _check_key
from .sparse import KForm, _canonical_rows, _check_rows
from .arrays import _finite_array, _finite_sum, as_frame

__all__ = ["KForm", "kform_from_rows", "elementary", "kform_general", "evaluate_form", "wedge",
           "wedge_definitional", "form_to_tensor", "alternating_tensor_to_form", "contract",
           "contract_matrix", "pullback", "rform", "SplitMix64"]


def kform_from_rows(rows, coeffs=None) -> KForm:
    """Build a KForm from arbitrary index rows and coefficients.

    Each row is sorted into increasing order with its coefficient
    multiplied by the sort permutation's sign; rows with a repeated
    index are dropped; identical canonical keys accumulate.
    """
    k, rows, coeffs = _check_rows(rows, coeffs)
    return KForm._trusted(k, _canonical_rows(zip(rows, coeffs)))


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
    _check_enumeration(math.comb(len(idx), k), "kform_general: C({}, {}) subsets", len(idx), k)
    subsets = sorted(itertools.combinations(idx, k), key=lambda t: t[::-1])
    if coeffs is None:
        coeffs = [1.0] * len(subsets)
    coeffs = [float(c) for c in coeffs]
    if len(coeffs) != len(subsets):
        raise ValueError(f"need {len(subsets)} coefficients for C({len(idx)},{k}) subsets, "
                         f"got {len(coeffs)}")
    return KForm._trusted(k, zip(subsets, coeffs))


# pullback takes this many targets at a time, and from 4x4 up stacks this many minors per call
_TARGET_CHUNK = 4096


def _cofactors(row, below, cols) -> list:
    # per increasing column tuple J of cols (one size, at most 3), the minor with `row` on top,
    # expanded along it left to right over the minors of the rows under it, read from `below`
    # (see _minor_table): a 3x3 minor is a0*m12 - a1*m02 + a2*m01, bitwise as _dets once did
    m = len(cols[0]) if cols else 0
    if m == 3:
        return [row[a] * below[b][c] - row[b] * below[a][c] + row[c] * below[a][b]
                for a, b, c in cols]
    if m == 2:
        return [row[a] * below[b] - row[b] * below[a] for a, b in cols]
    return [row[a] * below for a, in cols] if m else [1.0] * len(cols)


def _minor_table(rows, n: int, pairs: list):
    # the minors of 0-2 rows on the increasing column tuples among range(n), by their
    # columns in turn: 1.0 for no row, the row itself for one, [b][c] (b < c) for two, over
    # pairs, the increasing column pairs of range(n)
    if len(rows) < 2:
        return rows[0] if rows else 1.0
    table = [[None] * n for _ in range(n)]
    for (b, c), m in zip(pairs, _cofactors(rows[0], rows[1], pairs)):
        table[b][c] = m
    return table


def _dets(A):
    """Determinants of a stack of square matrices of size 4 and up, shape (..., m, m), in
    one np.linalg.det call; each is bitwise the one its matrix would give on its own."""
    import numpy as np

    return np.linalg.det(A)


def _pulled(w: KForm, M, width: int, targets):
    # (target, sum over the keys in key order of c * det(M[key rows, target cols])) per increasing
    # 1-based target of `targets`, M being rows of `width` floats: through 3x3 by _cofactors over
    # a _minor_table per distinct set of lower rows, from 4x4 by _dets stacks of up to
    # _TARGET_CHUNK (key, target) minors; a sum of 0.0 is the storage kernel's to drop
    k, targets, coeffs = w.arity, iter(targets), list(w.terms.values())
    if k > 3:
        import numpy as np

        # each key's k rows of M, gathered once: X[i, a] is row key_i[a]
        X = np.array(M, dtype=float).reshape(-1, width)[
            np.array(list(w.terms), dtype=np.intp).reshape(-1, k) - 1]

        def sums_of(chunk):
            # the chunk's columns picked by one index per group of keys, X[g:g+s][:, :, cols] of
            # shape (s, k, targets, k), as (s, targets, k, k) stacks; the running sums are one
            # float64 row, each c * d and s + c * d rounded as on Python floats, and an overflow
            # is left an inf or NaN, for the storage kernel to refuse
            cols = np.array(chunk, dtype=np.intp) - 1
            step = max(1, _TARGET_CHUNK // len(chunk))
            sums = np.zeros(len(chunk))
            for g in range(0, len(X), step):
                dets = _dets(X[g:g + step][:, :, cols].transpose(0, 2, 1, 3))
                with np.errstate(all="ignore"):
                    for c, d in zip(coeffs[g:g + step], dets):
                        sums += c * d
            return sums.tolist()
    else:
        pairs = list(itertools.combinations(range(width), 2)) if k == 3 else None
        tables, firsts, belows = {}, [], []
        for key in w.terms:
            rest = key[1:]
            if rest not in tables:
                tables[rest] = _minor_table([M[i - 1] for i in rest], width, pairs)
            firsts.append(M[key[0] - 1] if key else None)
            belows.append(tables[rest])
        ones = (1,) * k

        def sums_of(chunk):
            cols = [tuple(map(operator.sub, J, ones)) for J in chunk]  # 0-based
            sums = [0.0] * len(chunk)
            for c, key_minors in zip(coeffs, map(_cofactors, firsts, belows,
                                                 itertools.repeat(cols))):
                sums = [s + c * d for s, d in zip(sums, key_minors)]
            return sums
    # chunks outside, keys inside, one running sum per target: a zero minor adds +-0.0, which
    # leaves a sum (never -0.0) as it is, so each is bitwise that of a loop skipping exact zeros
    while w.terms and (chunk := list(itertools.islice(targets, _TARGET_CHUNK))):
        yield from zip(chunk, sums_of(chunk))


def evaluate_form(w: KForm, E) -> float:
    """Evaluate the form on a frame: sum of coeff * det(E[key rows]).

    This is the one coefficient of dy1^...^dyk in the pullback along E,
    computed by pullback's own loop on that single target.  The terms
    are summed left to right in key order; a NaN or infinite value
    raises ValueError, and the frame must be finite (n x 0 for a 0-form).
    """
    k = w.arity
    E = as_frame(E, k, w.dimension)
    return _finite_sum((c for _, c in _pulled(w, E, k, [tuple(range(1, k + 1))])),
                       "evaluate_form")


def _above(bits) -> int:
    # XOR over a key's index bits b of -2 * b, the bits above b: bit r of the result is set
    # iff an odd number of the key's indices rank below r
    return functools.reduce(operator.xor, map((-2).__mul__, bits), 0)


def wedge(w: KForm, e: KForm) -> KForm:
    """Wedge product by index masks, pairs of e's and w's terms in turn.

    Each index gets the bit of its rank among both operands' indices, so
    a mask costs a bit per distinct index, however large.  A pair whose
    masks meet shares an index and drops; otherwise the merged key is
    the sorted concatenation, and the sign is the parity of the index
    pairs (i in ka, j in kb) with i > j: the bits of ka's mask above
    kb's indices.  Each coefficient is sign * ca * cb.  The pairs run
    over e's keys last first, and w's keys in order inside: for a merged
    key K, ka ascending is kb = K - ka descending, so each key's terms
    are summed in w's key order, and each kb gives one ascending run of
    merged keys.
    """
    indices = sorted({*itertools.chain(*w.terms, *e.terms)})
    bit = {i: 1 << r for r, i in enumerate(indices)}.__getitem__
    left = [(ka, ca, sum(map(bit, ka))) for ka, ca in w.terms.items()]
    right = []
    for kb, cb in reversed(e.terms.items()):
        bits = list(map(bit, kb))
        right.append((kb, cb, sum(bits), _above(bits)))
    return KForm._trusted(w.arity + e.arity, (
        (tuple(sorted(ka + kb)), (-ca if (ma & above).bit_count() & 1 else ca) * cb)
        for kb, cb, mb, above in right for ka, ca, ma in left if not ma & mb))


def form_to_tensor(w: KForm):
    """Expand a k-form into its alternating k-tensor, a KTensor.

    Each increasing key I with coefficient c becomes the k! signed
    terms sign(sigma) * c on the permuted keys sigma(I).  More than
    MAX_ENUMERATION permutations (len(w) * k!) are refused up front,
    without a factorial past 20!; an empty form expands to nothing.
    """
    from .tensors import KTensor, _permutations

    perms = _permutations(w, "form_to_tensor")
    return KTensor._trusted(w.arity, ((image(key), sign * c)
                                      for key, c in w.terms.items() for image, sign in perms))


def alternating_tensor_to_form(T) -> KForm:
    """Read a k-form off the increasing keys of an alternating KTensor."""
    return KForm._trusted(T.arity, ((key, c) for key, c in T.terms.items()
                                    if all(map(operator.lt, key, key[1:]))))


def wedge_definitional(w: KForm, e: KForm) -> KForm:
    """Wedge by the definition: C(k+l, k) * alt(w x e).

    Exponentially slower than `wedge`: the independent second route for
    verification; only the increasing keys of alt(w x e) are scaled.
    Its largest stage, alt over (k+l)! permutations of
    len(w) k! x len(e) l! terms, must fit MAX_ENUMERATION (counted with
    no factorial past 20!); with nothing to permute, w x e is the form.
    """
    from .tensors import _count_permutations, alt, tensor_product

    k, l = w.arity, e.arity
    if not w.terms or not e.terms:
        return KForm._trusted(k + l, ())
    _count_permutations("wedge_definitional", k + l, len(w) * len(e), k, l)
    prod = tensor_product(form_to_tensor(w), form_to_tensor(e))
    if k + l == 0:
        return KForm._trusted(0, prod.terms.items())
    return alternating_tensor_to_form(alt(prod)).scale(float(math.comb(k + l, k)))


def contract(w: KForm, v) -> KForm:
    """Interior product: plug v into the first slot.

    (dx_I)_v = sum_j (-1)^(j-1) v[i_j] dx_{I minus i_j}; contracting a
    1-form gives a 0-form.  v must be a 1-D vector reaching the form's
    dimension, and every entry finite, read or not.
    """
    if w.arity == 0:
        raise ArityError("cannot contract a 0-form")
    vals = _finite_array(v, 1, "vector", w.dimension)[0]
    return KForm._trusted(
        w.arity - 1,
        ((key[:j] + key[j + 1 :], (-vals[i - 1] if j % 2 else vals[i - 1]) * c)
         for key, c in w.terms.items() for j, i in enumerate(key)))


def contract_matrix(w: KForm, V, lose: bool = True):
    """Left-fold contraction over the columns of V.

    With lose (the default) a fully contracted result is returned as a
    plain float instead of a 0-form.  V is a matrix with a row for each
    index up to the form's dimension (a 1-D vector is its one column), and
    every entry must be finite, read or not.
    """
    V, (_, m) = _finite_array(V, 2, "matrix of vectors", w.dimension)
    if m > w.arity:
        raise ArityError(f"cannot contract arity {w.arity} form with {m} vectors")
    out = w
    for j in range(m):
        out = contract(out, [row[j] for row in V])
    if out.arity == 0 and lose:
        return out.terms.get((), 0.0)
    return out


def pullback(w: KForm, M) -> KForm:
    """Pull back along dx_i = sum_r M[i, r] dy_r.

    Each key I maps onto every increasing target J with the minor
    determinant det(M[I, J]) as weight.  The targets are taken in fixed
    chunks; per key, a chunk's minors are cofactor expansions on Python
    floats for k <= 3, over the key's lower minors computed once, else
    they come from numpy determinant stacks, up to _TARGET_CHUNK minors
    of several keys per call.  Each target of a chunk keeps one running
    sum, added to key by key in key order, and is stored once, so the
    result is bitwise that of one minor at a time.  Exact-zero sums are
    dropped; near-zero ones are kept; zap explicitly if wanted.  The
    matrix (a 1-D array is one column) must be square, reach the form's
    dimension and be finite; more than MAX_ENUMERATION minors (keys
    times targets) are refused before the first chunk.
    """
    M, shape = _finite_array(M, 2, "matrix", w.dimension)
    if shape[0] != shape[1]:
        raise ValueError(f"transformation matrix must be square, got {shape}")
    n, k = shape[0], w.arity
    _check_enumeration(len(w) * math.comb(n, k), "pullback: {} keys x C({}, {}) minors",
                       len(w), n, k)
    return KForm._trusted(k, _pulled(w, M, n, itertools.combinations(range(1, n + 1), k)))


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
        while (below := math.comb(n - x, slots - 1)) <= r:
            r -= below
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
    must be integral, with k >= 1, n >= 1 and 0 <= terms <= C(n,k).
    Unranking a key takes up to n steps, so more than MAX_ENUMERATION
    steps (terms times n) are refused before the first draw.  terms = 0
    is the empty form at once; otherwise C(n,k) is computed, and a bound
    on its bit length, min(k, n - k) times the bit length of n, is
    counted against MAX_ENUMERATION first.
    """
    seed, k = _check_integral(seed, "seed"), _check_integral(k, "k")
    n, terms = _check_integral(n, "n"), _check_integral(terms, "terms")
    if k < 1 or n < 1 or terms < 0:
        raise ValueError(f"need k >= 1, n >= 1 and terms >= 0, got k={k}, n={n}, terms={terms}")
    _check_enumeration(terms * n, "rform: {} keys x {} unranking steps", terms, n)
    if terms == 0:
        return KForm._trusted(k, ())
    bits = max(0, min(k, n - k)) * n.bit_length()
    _check_enumeration(bits, "rform: C({},{}) of up to {} bits", n, k, bits)
    total = math.comb(n, k)
    if terms > total:
        raise ValueError(f"cannot place {terms} distinct keys among C({n},{k})={total}")
    draw = SplitMix64(seed).next
    acc: dict[int, float] = {}
    while len(acc) < terms:
        r = draw() % total
        if r in acc:
            continue
        v = draw() % 24
        acc[r] = float(v - 12 if v < 12 else v - 11)
    return KForm._trusted(k, ((_unrank_subset(r, n, k), c) for r, c in acc.items()))
