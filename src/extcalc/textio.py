"""Plain-text reading of sparse maps, forms, frames, and matrices.

Writing lives on SparseMap.to_text(); this module holds the parsers.
The term format is one `i1 i2 ... ik : coefficient` line per key, lines
in lexicographic key order, `zero k=<arity>` for the empty map, with a
`kform k=<arity>` or `ktensor k=<arity>` header naming the type.  Only
parse_matrix_text imports numpy, for the array it returns; the CLI reads
frames and matrices as lists of Python floats.
"""

from __future__ import annotations

from .sparse import ArityError, SparseMap, _check_finite
from .tensors import KTensor
from .forms import KForm, _canonical_rows

__all__ = ["ParseError", "parse_form_text", "parse_matrix_text"]


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
    body = lines[1:]
    if len(body) == 1 and body[0][1].split()[0] == "zero":
        zlineno, zline = body[0]
        fields = zline.split()
        if len(fields) != 2 or fields[1] != f"k={arity}":
            raise ParseError(zlineno, f"expected 'zero k={arity}', got {zline!r}")
        return (KForm if kind == "kform" else KTensor)._trusted(arity, ())
    terms = [_parse_term(lineno, line, arity) for lineno, line in body]
    if not terms:
        raise ParseError(lines[0][0], "header with no term lines")
    # _parse_term has checked every key and coefficient on its line
    if kind == "kform":
        return KForm._trusted(arity, _canonical_rows(terms))
    return KTensor._trusted(arity, terms)


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
