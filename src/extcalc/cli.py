"""Command line interface: algebra on serialized forms plus verification.

Exit codes: 0 success, 1 a verification fell outside tolerance, 2 bad
usage, unparseable input or a floating-point error (overflow, division
by zero, invalid operation), reported as one error line.  File
arguments accept "-" for stdin.  The EXTERIOR_TOL environment variable
overrides the default tolerance used by the optional --zap cleanup flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .sparse import ArityError, DimensionError, DEFAULT_TOL, format_coefficient
from .tensors import alt, evaluate_tensor
from .forms import (
    KForm,
    contract_matrix,
    evaluate_form,
    form_to_tensor,
    pullback,
    symbolic,
    wedge,
)
from .derivatives import FieldForm, demo_two_form, exterior_d, f1, f2, f3, omega_gradient
from .stokes import dphi_example, verify_det_proportionality, verify_stokes
from .checks import check_dd_zero, suite
from .textio import ParseError, parse_form_text, parse_matrix_text

__all__ = ["main"]

_FIELDS = {"f1": f1, "f2": f2, "f3": f3}


def _default_tol() -> float:
    raw = os.environ.get("EXTERIOR_TOL", DEFAULT_TOL)
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"EXTERIOR_TOL must be a number, got {raw!r}") from None


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _maybe_zap(obj, args):
    if getattr(args, "zap", None) is not None:
        return obj.zap(args.zap)
    return obj


def _emit(obj) -> int:
    sys.stdout.write(obj.to_text())
    return 0


def _emit_json(report) -> None:
    print(json.dumps(report, default=float, allow_nan=False))


def cmd_eval(args) -> int:
    obj = parse_form_text(_read(args.object))
    E = parse_matrix_text(_read(args.frame))
    if isinstance(obj, KForm):
        value = evaluate_form(obj, E)
    else:
        value = evaluate_tensor(obj, E)
    print(format_coefficient(value))
    return 0


def cmd_wedge(args) -> int:
    a = parse_form_text(_read(args.a))
    b = parse_form_text(_read(args.b))
    if not isinstance(a, KForm) or not isinstance(b, KForm):
        raise ValueError("wedge needs two kform inputs")
    return _emit(_maybe_zap(wedge(a, b), args))


def cmd_add(args) -> int:
    a = parse_form_text(_read(args.a))
    b = parse_form_text(_read(args.b))
    if type(a) is not type(b):
        raise ValueError("add needs two objects of the same type")
    return _emit(_maybe_zap(a + b, args))


def cmd_contract(args) -> int:
    w = parse_form_text(_read(args.form))
    if not isinstance(w, KForm):
        raise ValueError("contract needs a kform input")
    V = parse_matrix_text(_read(args.vectors))
    out = contract_matrix(w, V, lose=not args.keep_form)
    if isinstance(out, float):
        print(format_coefficient(out))
        return 0
    return _emit(_maybe_zap(out, args))


def cmd_pullback(args) -> int:
    w = parse_form_text(_read(args.form))
    if not isinstance(w, KForm):
        raise ValueError("pullback needs a kform input")
    M = parse_matrix_text(_read(args.matrix))
    M = np.atleast_2d(M)
    return _emit(_maybe_zap(pullback(w, M), args))


def cmd_alt(args) -> int:
    obj = parse_form_text(_read(args.tensor))
    if isinstance(obj, KForm):
        obj = form_to_tensor(obj)
    return _emit(alt(obj))


def cmd_d(args) -> int:
    x = np.asarray(args.at, dtype=float)
    if args.omega:
        return _emit(omega_gradient(x))
    if args.field:
        form = FieldForm([(_FIELDS[args.field], ())])
    else:
        form = demo_two_form()
    return _emit(exterior_d(form, x, analytic=not args.fd))


def cmd_print(args) -> int:
    obj = parse_form_text(_read(args.object))
    style = args.style
    if style is None:
        style = "d" if isinstance(obj, KForm) else "letters"
    print(symbolic(obj, style=style))
    return 0


def cmd_verify_stokes(args) -> int:
    rep = verify_stokes(args.n, args.a, args.m)
    scale = max(1.0, abs(rep["volume"]))
    ok = rep["err_bv"] / scale <= args.tol and rep["err_vc"] / scale <= args.tol
    _emit_json(rep)
    return 0 if ok else 1


def cmd_verify_ddzero(args) -> int:
    rep = check_dd_zero(tuple(args.at))
    _emit_json(rep)
    return 0 if rep["passed"] else 1


def cmd_verify_det46(args) -> int:
    rng = np.random.default_rng(args.seed)
    x = np.arange(1.0, args.n + 1.0)
    E = rng.random((args.n, args.n))
    rep = verify_det_proportionality(dphi_example(x), E)
    tol = 1e-6 * max(1.0, abs(rep["lhs"]))
    rep["tol"] = tol
    rep["passed"] = bool(rep["diff"] <= tol)
    _emit_json(rep)
    return 0 if rep["passed"] else 1


def cmd_verify_suite(args) -> int:
    reports = suite()
    ok = all(r["passed"] for r in reports)
    _emit_json({"checks": reports, "passed": ok})
    return 0 if ok else 1


def _add_zap(p: argparse.ArgumentParser):
    p.add_argument(
        "--zap",
        nargs="?",
        type=float,
        const=_default_tol(),
        default=None,
        metavar="TOL",
        help="drop |coeff| <= TOL from the result "
        "(bare --zap uses EXTERIOR_TOL or 1e-11)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extcalc",
        description="sparse exterior calculus on serialized k-forms and k-tensors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a form or tensor on a frame")
    p.add_argument("object")
    p.add_argument("frame")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("wedge", help="wedge product of two forms")
    p.add_argument("a")
    p.add_argument("b")
    _add_zap(p)
    p.set_defaults(func=cmd_wedge)

    p = sub.add_parser("add", help="sum of two like objects")
    p.add_argument("a")
    p.add_argument("b")
    _add_zap(p)
    p.set_defaults(func=cmd_add)

    p = sub.add_parser("contract", help="interior product with vectors")
    p.add_argument("form")
    p.add_argument("vectors")
    p.add_argument(
        "--keep-form",
        action="store_true",
        help="return a 0-form instead of a bare scalar when fully contracted",
    )
    _add_zap(p)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("pullback", help="pull a form back along a square matrix")
    p.add_argument("form")
    p.add_argument("matrix")
    _add_zap(p)
    p.set_defaults(func=cmd_pullback)

    p = sub.add_parser("alt", help="alternating part of a tensor")
    p.add_argument("tensor")
    p.set_defaults(func=cmd_alt)

    p = sub.add_parser("d", help="exterior derivative of the built-in fields")
    p.add_argument("--at", nargs="+", type=float, default=[1.0, 2.0, 3.0, 4.0])
    src = p.add_mutually_exclusive_group()
    src.add_argument("--field", choices=sorted(_FIELDS), help="d of one demo 0-form")
    src.add_argument(
        "--omega", action="store_true", help="gradient 1-form of the singular (n-1)-form"
    )
    p.add_argument("--fd", action="store_true", help="force finite differences")
    p.set_defaults(func=cmd_d)

    p = sub.add_parser("print", help="symbolic one-line rendering")
    p.add_argument("object")
    p.add_argument("--style", choices=["letters", "d"], default=None)
    p.set_defaults(func=cmd_print)

    p = sub.add_parser("verify", help="numeric verification reports (JSON)")
    vsub = p.add_subparsers(dest="check", required=True)

    v = vsub.add_parser("stokes", help="boundary vs volume vs closed form")
    v.add_argument("--n", type=int, default=3)
    v.add_argument("--a", type=float, default=1.0)
    v.add_argument("--m", type=int, default=8)
    v.add_argument("--tol", type=float, default=1e-8)
    v.set_defaults(func=cmd_verify_stokes)

    v = vsub.add_parser("ddzero", help="d(d(demo 2-form)) = 0")
    v.add_argument("--at", nargs="+", type=float, default=[1.0, 2.0, 3.0, 4.0])
    v.set_defaults(func=cmd_verify_ddzero)

    v = vsub.add_parser("det46", help="top-form determinant proportionality")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--n", type=int, default=9)
    v.set_defaults(func=cmd_verify_det46)

    v = vsub.add_parser("suite", help="every seeded property check")
    v.set_defaults(func=cmd_verify_suite)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # an overflow, a division by zero or a NaN is an error, not a warning
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return args.func(args)
    except BrokenPipeError:
        # writer side of a closed pipe: silence the shutdown flush too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (
        ParseError, ArityError, DimensionError, ValueError, OverflowError,
        FloatingPointError, OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
