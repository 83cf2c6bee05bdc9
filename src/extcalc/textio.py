"""Plain-text reading of sparse maps, forms, frames, and matrices.

Writing of the term format lives on SparseMap.to_text(); this module
holds the parsers and symbolic, the one-line rendering `print` writes.
The term format is one `i1 i2 ... ik : coefficient` line per key, lines
in lexicographic key order, `zero k=<arity>` for the empty map, with a
`kform k=<arity>` or `ktensor k=<arity>` header naming the type.  Only
parse_matrix_text imports numpy, for the array it returns; the CLI reads
frames and matrices as lists of Python floats.
"""

from __future__ import annotations

from .rules import ArityError, _check_finite
from .sparse import KForm, SparseMap, _canonical_rows, format_coefficient

__all__ = ["ParseError", "parse_form_text", "parse_matrix_text", "symbolic"]


class ParseError(ValueError):
    """Malformed input text; carries the offending 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_header(lineno: int, line: str):
    fields = line.split()
    if len(fields) != 2 or not fields[1].startswith("k="):
        raise ParseError(lineno, f"expected '<type> k=<arity>', got {line!r}")
    kind = fields[0]
    if kind not in ("kform", "ktensor"):
        raise ParseError(lineno, f"unknown object type {kind!r}")
    try:
        arity = int(fields[1][2:])
    except ValueError:
        raise ParseError(lineno, f"bad arity in {line!r}") from None
    if arity < 0:
        raise ParseError(lineno, f"arity must be nonnegative, got {arity}")
    return kind, arity


def _parse_term(lineno: int, line: str, arity: int):
    left, sep, right = line.partition(":")
    if not sep:
        raise ParseError(lineno, f"expected 'indices : coefficient', got {line!r}")
    try:
        key = tuple(int(tok) for tok in left.split())
    except ValueError:
        raise ParseError(lineno, f"bad index in {line!r}") from None
    if len(key) != arity:
        raise ArityError(f"line {lineno}: key {key} has arity {len(key)}, expected {arity}")
    if any(i < 1 for i in key):
        raise ParseError(lineno, f"indices are 1-based and positive, got {key}")
    try:
        coeff = _check_finite(right)
    except ValueError:
        raise ParseError(lineno, f"bad coefficient in {line!r}") from None
    return key, coeff


def parse_form_text(text: str) -> SparseMap:
    """Parse a headered kform/ktensor file back into an object.

    kform bodies pass through row canonicalization, so unsorted or
    repeated index rows are legal input; the parsed object is always in
    canonical storage, making parse(x.to_text()) == x.
    """
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError(1, "empty input")
    lineno, header = lines[0]
    kind, arity = _parse_header(lineno, header)
    if kind == "kform":
        cls = KForm
    else:
        from .tensors import KTensor as cls
    body = lines[1:]
    if len(body) == 1 and body[0][1].split()[0] == "zero":
        zlineno, zline = body[0]
        fields = zline.split()
        if len(fields) != 2 or fields[1] != f"k={arity}":
            raise ParseError(zlineno, f"expected 'zero k={arity}', got {zline!r}")
        return cls._trusted(arity, ())
    terms = [_parse_term(lineno, line, arity) for lineno, line in body]
    if not terms:
        raise ParseError(lines[0][0], "header with no term lines")
    # _parse_term has checked every key and coefficient on its line
    return cls._trusted(arity, _canonical_rows(terms) if cls is KForm else terms)


def _parse_rows(text: str) -> list:
    # whitespace-separated rows as lists of floats; a single row is returned as that one row
    rows = []
    for lineno, line in _significant_lines(text):
        try:
            row = [_check_finite(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(lineno, f"bad number in {line!r}") from None
        if rows and len(row) != len(rows[0]):
            raise ParseError(lineno, f"row has {len(row)} entries, expected {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise ParseError(1, "empty matrix")
    return rows[0] if len(rows) == 1 else rows


def parse_matrix_text(text: str):
    """Parse whitespace-separated rows into a float numpy matrix.

    A single row parses to a 1-D vector; ragged rows are an error.
    """
    import numpy as np

    return np.asarray(_parse_rows(text), dtype=float)


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

    prefix = "" if style == "letters" else "d"
    names = symbols if symbols is not None else _LETTERS if style == "letters" else None

    def factor(i: int) -> str:
        if names is None:
            return f"dx{i}"
        if i > len(names):
            if symbols is None:
                raise ValueError(f"index {i} has no letter (the default symbols a-z name "
                                 f"1-{len(names)}); use --style d")
            raise ValueError(f"index {i} exceeds the {len(names)} symbols supplied")
        return prefix + names[i - 1]

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
