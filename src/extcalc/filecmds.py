"""The bodies of the seven CLI commands that read files: print, add, wedge,
alt, eval, contract and pullback, each named by extcalc.cli's grammar.
This module must never import extcalc.cli, which runs as __main__ under
`python -m extcalc.cli` and would compile a second time."""

from __future__ import annotations

import sys

from . import textio
from .sparse import KForm


def _read(path: str, rows: bool = False):
    # the form or tensor in a file ("-" for stdin), or with rows its rows of numbers
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    # textio's functions are looked up per call, so that one wrapped or replaced on
    # extcalc.textio after this module loaded is the one that runs
    return textio._parse_rows(text) if rows else textio.parse_form_text(text)


def _kform(path: str, command: str) -> KForm:
    w = _read(path)
    if not isinstance(w, KForm):
        raise ValueError(f"{command} needs a kform input")
    return w


def cmd_eval(args):
    return _read(args.object)(_read(args.frame, rows=True))


def cmd_wedge(args):
    return _kform(args.a, "wedge") ^ _kform(args.b, "wedge")


def cmd_add(args):
    a, b = _read(args.a), _read(args.b)
    if type(a) is not type(b):
        raise ValueError("add needs two objects of the same type")
    return a + b


def cmd_contract(args):
    from .forms import contract_matrix

    w = _kform(args.form, "contract")
    return contract_matrix(w, _read(args.vectors, rows=True), lose=not args.keep_form)


def cmd_pullback(args):
    from .forms import pullback

    w = _kform(args.form, "pullback")
    return pullback(w, _read(args.matrix, rows=True))


def cmd_alt(args):
    from .forms import form_to_tensor
    from .tensors import _count_permutations, alt

    obj = _read(args.tensor)
    if isinstance(obj, KForm):
        # alt's own bound, counted on the k! terms per key of the expansion before it is built
        _count_permutations("alt", obj.arity, len(obj), obj.arity)
        obj = form_to_tensor(obj)
    return alt(obj)


def cmd_print(args):
    obj = _read(args.object)
    style = args.style
    if style is None:
        style = "d" if isinstance(obj, KForm) else "letters"
    return textio.symbolic(obj, style=style)
