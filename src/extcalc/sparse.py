"""Sparse coefficient stores keyed by 1-based multi-indices.

A multi-index (i1, ..., ik) addresses one basis product inside a rank-k
multilinear object; a SparseMap is a finite map from such keys to float
coefficients, every key sharing one arity k.  Four hygiene rules hold
everywhere:

* a coefficient whose sum is exactly 0.0 is dropped, never stored;
* iteration, comparison, and printing follow lexicographic key order, so
  any construction order of the same object yields identical storage;
* the implied dimension is the largest index used (0 for the empty map);
* every stored coefficient is finite: a NaN or infinite one, given or
  computed (an overflowing product, say), raises ValueError.

Public constructors validate every key: an index must be an integral
value >= 1 and key lengths must match the arity.  Results computed
inside the package have canonical keys by construction, so they go
through the trusted path (SparseMap._trusted), which skips that
validation.  Both paths store their terms through one accumulation
kernel, which settles each key once by the zero, order and finiteness
rules; to_text writes every term line as one `%d ... %d` template of its
key and the ` : c` tail of its coefficient, formatted once per value.

KForm lives here too, with its key rule and the sign rule that sorts
raw index rows into its keys (_canonical_rows), so that the parser, hat
and FieldForm build forms without loading extcalc.forms, which
re-exports the class and does its algebra.

Instances are immutable by convention: every operation returns a new map
and never touches its operands, so values can be shared freely between
threads.
"""

from __future__ import annotations

import itertools
import math
import operator

__all__ = [
    "ArityError",
    "DimensionError",
    "SparseMap",
    "KForm",
    "DEFAULT_TOL",
    "format_coefficient",
]

DEFAULT_TOL = 1e-11


class ArityError(ValueError):
    """Keys or operands disagree about the arity k."""


class DimensionError(ValueError):
    """An evaluation frame or matrix is too small for the object."""


def format_coefficient(c: float) -> str:
    """Render a coefficient as its shortest exact decimal form.

    Integral values come out bare ("113", not "113.0"); everything else
    uses the shortest representation that parses back to the identical
    float, so serialized objects round-trip through text exactly.  NaN
    and infinity have no text form and raise ValueError.
    """
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"cannot write the non-finite value {c}: the result overflowed")
    if c.is_integer() and abs(c) < 1e16:
        return str(int(c))
    return repr(c)


# the most permutations, minors, subsets or nodes one call may enumerate
MAX_ENUMERATION = 2**20


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


def _check_rows(rows, coeffs):
    # validated (arity, keys, float coefficients) for the *_from_rows builders
    rows = [tuple(r) for r in rows]
    if not rows:
        raise ValueError("need at least one row to infer arity")
    k = len(rows[0])
    rows = [_check_key(r, k) for r in rows]
    if coeffs is None:
        coeffs = [1.0] * len(rows)
    coeffs = [_check_finite(c) for c in coeffs]
    if len(coeffs) != len(rows):
        raise ValueError(f"{len(rows)} rows but {len(coeffs)} coefficients")
    return k, rows, coeffs


def _accumulate(items) -> dict:
    """The storage kernel: sum (key, coeff) pairs into canonical terms.

    Coefficients are added per key in iteration order as Python floats;
    then each key is settled once, in lexicographic key order (sorting
    the keys alone): a NaN or infinite sum raises ValueError, as does
    every non-finite item, and a sum of exactly 0.0 is dropped.  A
    running sum is never -0.0 and 0.0 + x is x, so cancelling midway
    leaves no trace in a key's final sum.
    """
    acc: dict[tuple, float] = {}
    for key, c in items:
        acc[key] = acc.get(key, 0.0) + float(c)
    terms = {}
    for key in sorted(acc):
        c = acc[key]
        if not math.isfinite(c):
            raise ValueError(f"cannot store the non-finite coefficient {c}")
        if c != 0.0:
            terms[key] = c
    return terms


class SparseMap:
    """Arity-k sparse map from multi-indices to float coefficients."""

    # subclasses that have a canonical text form set this to their header word
    _header: str | None = None

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=()):
        arity = _check_integral(arity, "arity")
        if arity < 0:
            raise ArityError(f"arity must be nonnegative, got {arity}")
        items = terms.items() if isinstance(terms, dict) else terms
        self.arity = arity
        rule = self._key_rule
        self.terms = _accumulate((rule(key, arity), c) for key, c in items)

    # the key rule of the public constructor: the checked key, or ValueError; a subclass
    # whose keys obey a further rule checks it here, on every given key
    _key_rule = staticmethod(_check_key)

    @classmethod
    def _trusted(cls, arity: int, items) -> "SparseMap":
        # (key, coeff) pairs whose keys are already valid for cls: no
        # per-key validation, only the accumulation kernel
        obj = cls.__new__(cls)
        obj.arity = arity
        obj.terms = _accumulate(items)
        return obj

    # -- basic queries -------------------------------------------------

    @property
    def dimension(self) -> int:
        """Largest index appearing in any key; 0 for the empty map."""
        return max(map(max, filter(None, self.terms)), default=0)

    def coefficient(self, key) -> float:
        return self.terms.get(_check_key(key, self.arity), 0.0)

    def items(self):
        """Yield (key, coefficient) pairs in lexicographic key order."""
        return self.terms.items()

    def __len__(self) -> int:
        return len(self.terms)

    # -- construction of modified copies --------------------------------

    def insert_accumulate(self, key, c: float) -> "SparseMap":
        """Return a copy with c added onto key (exact zeros vanish)."""
        return type(self)(self.arity, [*self.terms.items(), (key, c)])

    def scale(self, s: float) -> "SparseMap":
        s = float(s)
        return self._trusted(self.arity, ((k, s * c) for k, c in self.terms.items()))

    def __add__(self, other):
        """Termwise sum, of the left operand's type; a form plus a tensor raises
        TypeError, as key (1, 2) means dx1^dx2 in one and phi1 (x) phi2 in the other."""
        if not isinstance(other, SparseMap):
            return NotImplemented
        if self._header and other._header and self._header != other._header:
            raise TypeError(f"cannot add a {self._header} and a {other._header}")
        if self.arity != other.arity:
            raise ArityError(
                f"cannot add arity {self.arity} and arity {other.arity} maps"
            )
        items = itertools.chain(self.terms.items(), other.terms.items())
        # other's keys satisfy type(self)'s key rule only if other is one too
        if isinstance(other, type(self)):
            return self._trusted(self.arity, items)
        return type(self)(self.arity, items)

    def __sub__(self, other):
        if not isinstance(other, SparseMap):
            return NotImplemented
        return self.__add__(other.scale(-1.0))

    def __neg__(self):
        return self.scale(-1.0)

    def __mul__(self, s):
        if isinstance(s, (int, float)):
            return self.scale(s)
        return NotImplemented

    __rmul__ = __mul__

    def zap(self, tol: float = DEFAULT_TOL) -> "SparseMap":
        """Drop every term with |coefficient| <= tol; a NaN tol raises ValueError."""
        tol = _check_tol(tol)
        return self._trusted(
            self.arity, ((k, c) for k, c in self.terms.items() if abs(c) > tol)
        )

    # -- comparison ------------------------------------------------------

    def equals(self, other: "SparseMap", tol: float = DEFAULT_TOL) -> bool:
        """Termwise equality within tol.

        An empty map is the zero map and compares equal to any other
        empty (or everywhere-below-tol) map regardless of recorded arity.
        A NaN tol raises ValueError.
        """
        if not isinstance(other, SparseMap):
            raise TypeError(f"cannot compare SparseMap with {type(other).__name__}")
        tol = _check_tol(tol)
        if self.terms and other.terms and self.arity != other.arity:
            return False
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= tol
            for k in keys
        )

    def __eq__(self, other):
        if not isinstance(other, SparseMap):
            return NotImplemented
        return self.equals(other, 0.0)

    __hash__ = None

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text: one `i1 ... ik : coeff` line per term, lex order.

        The empty map serializes as `zero k=<arity>`.  Subclasses with a
        `_header` prepend their `<header> k=<arity>` line.
        """
        lines = [] if self._header is None else [f"{self._header} k={self.arity}"]
        if not self.terms:
            lines.append(f"zero k={self.arity}")
        template = " ".join(["%d"] * self.arity)
        # each distinct coefficient's " : c" tail is formatted, its finiteness checked, once
        tail = {c: " : " + format_coefficient(c) for c in set(self.terms.values())}
        lines += [template % key + tail[c] for key, c in self.terms.items()]
        return "\n".join(lines) + "\n"

    def __repr__(self):
        body = ", ".join(f"{key}: {format_coefficient(c)}" for key, c in self.terms.items())
        return f"{type(self).__name__}(k={self.arity}, {{{body}}})"


def _parity(seq) -> int:
    # +1/-1 by the parity of the inversion count of seq, its pairs i < j with seq[i] > seq[j]
    inv = sum(itertools.starmap(operator.gt, itertools.combinations(seq, 2)))
    return -1 if inv % 2 else 1


def _canonical_rows(rows):
    # (sorted row, parity sign * coeff) per (row, coeff) pair of checked rows; rows with a
    # repeated index drop
    for row, c in rows:
        if len(set(row)) == len(row):
            yield tuple(sorted(row)), _parity(row) * c


class KForm(SparseMap):
    """Sparse alternating k-form; every key is strictly increasing.

    The constructor validates canonical keys; to build a form from
    unsorted or repeated index rows use forms.kform_from_rows, which
    applies the sign bookkeeping.  `a ^ b` is the wedge product (note
    Python's `^` binds looser than `+`: parenthesize mixed expressions).
    """

    _header = "kform"

    def __init__(self, arity, terms=()):
        """Terms as SparseMap takes them; every given key, also one whose coefficient is zero
        or cancels, must be strictly increasing, else ValueError."""
        super().__init__(arity, terms)

    @staticmethod
    def _key_rule(key, arity: int) -> tuple:
        # the form key rule, with one message for KForm and FieldForm
        key = _check_key(key, arity)
        if not all(map(operator.lt, key, key[1:])):
            raise ValueError(f"form keys must be strictly increasing, got {key}; "
                             "use kform_from_rows to canonicalize raw rows")
        return key

    def __call__(self, frame):
        from .forms import evaluate_form

        return evaluate_form(self, frame)

    def __xor__(self, other):
        from .forms import wedge

        return wedge(self, other) if isinstance(other, KForm) else NotImplemented
