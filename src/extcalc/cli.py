"""Command line interface: algebra on serialized forms plus verification.

Exit codes: 0 success, 1 a verification fell outside tolerance, 2 bad
usage, unparseable input or a floating-point error (overflow, division
by zero, invalid operation), reported as one error line.  File
arguments accept "-" for stdin.  The EXTERIOR_TOL environment variable
overrides the default tolerance used by the optional --zap cleanup flag.

Each subcommand returns its result: a form or tensor, a scalar, a line
of text, or a verification's (report, passed) pair.  main alone writes
it, applying --zap, and exits 1 on a failed verdict.  It runs both steps
with RuntimeWarning as an error, so a numpy floating-point error raises
where it happens, and restores the caller's warning filters.  With the
global --stats option it then writes one JSON line to stderr: the
subcommand, its elapsed seconds, whether numpy was loaded, the sorted
extcalc modules the run loaded, for `verify stokes` its quadrature
nodes, and for `verify suite` each check's name, cases and elapsed
seconds.  print, add, wedge, alt, eval, contract, pullback of degree 3
or less and verify stokes compute on Python floats and never import
numpy (the coefficient store and the evaluations refuse an overflow).
Each subcommand imports the modules it calls when it runs, and json
only to write a report or the --stats line.  Besides extcalc, cli and
sparse: add loads textio; print, eval, contract, wedge and pullback
load textio, forms and arrays (the array gate); a ktensor file loads
tensors and arrays (add and eval of one need no forms), and alt all
four; d loads derivatives and arrays; `verify stokes` derivatives and
stokes; the other checks more.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import warnings

from .sparse import DEFAULT_TOL, KForm, SparseMap, _check_tol, format_coefficient

__all__ = ["main"]

# the demo 0-forms of extcalc.derivatives that `d --field` accepts
_FIELDS = ("f1", "f2", "f3")

# det46's coefficient sum_{j<=n} j^j overflows a float for every n above this
DET46_MAX_N = 143


def _default_tol() -> float:
    raw = os.environ.get("EXTERIOR_TOL", DEFAULT_TOL)
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"EXTERIOR_TOL must be a number, got {raw!r}") from None


def _read(path: str, rows: bool = False):
    # the form or tensor in a file ("-" for stdin), or with rows its rows of numbers
    from .textio import _parse_rows, parse_form_text

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return _parse_rows(text) if rows else parse_form_text(text)


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


def cmd_d(args):
    from . import derivatives

    if args.omega:
        return derivatives.omega_gradient(args.at)
    if args.field:
        form = derivatives.FieldForm([(getattr(derivatives, args.field), ())])
    else:
        form = derivatives.demo_two_form()
    return derivatives.exterior_d(form, args.at, analytic=not args.fd)


def cmd_print(args):
    from .forms import symbolic

    obj = _read(args.object)
    style = args.style
    if style is None:
        style = "d" if isinstance(obj, KForm) else "letters"
    return symbolic(obj, style=style)


def cmd_verify_stokes(args):
    from .stokes import verify_stokes

    tol = _check_tol(args.tol)
    rep = verify_stokes(args.n, args.a, args.m)
    args.work["nodes"] = rep["m"] ** rep["n"] + 2 * rep["n"] * rep["m"] ** (rep["n"] - 1)
    scale = max(1.0, abs(rep["volume"]))
    return rep, rep["err_bv"] / scale <= tol and rep["err_vc"] / scale <= tol


def cmd_verify_ddzero(args):
    from .checks import check_dd_zero

    rep = check_dd_zero(tuple(args.at))
    return rep, rep["passed"]


def cmd_verify_det46(args):
    if not 2 <= args.n <= DET46_MAX_N:
        raise ValueError(f"det46 needs 2 <= --n <= {DET46_MAX_N}, got {args.n}: the example "
                         f"needs two dimensions, and sum_j j^j overflows above {DET46_MAX_N}")
    if args.seed < 0:
        raise ValueError(f"det46 needs --seed >= 0, got {args.seed}: it seeds numpy's default_rng")
    import numpy as np

    from .stokes import dphi_example, verify_det_proportionality

    rng = np.random.default_rng(args.seed)
    x = np.arange(1.0, args.n + 1.0)
    E = rng.random((args.n, args.n))
    rep = verify_det_proportionality(dphi_example(x), E)
    tol = 1e-6 * max(1.0, abs(rep["lhs"]))
    rep["tol"] = tol
    rep["passed"] = bool(rep["diff"] <= tol)
    return rep, rep["passed"]


def cmd_verify_suite(args):
    from .checks import SUITE_CHECKS

    reports, timings = [], []
    for check in SUITE_CHECKS:
        start = time.perf_counter()
        reports.append(report := check())
        timings.append({"name": report["name"], "cases": report["cases"],
                        "elapsed_s": time.perf_counter() - start})
    args.work["checks"] = timings
    ok = all(r["passed"] for r in reports)
    return {"checks": reports, "passed": ok}, ok


def _write(result, args) -> int:
    """Write a subcommand's result to stdout and return the exit code."""
    if isinstance(result, tuple):
        import json

        report, passed = result
        print(json.dumps(report, default=float, allow_nan=False))
        return 0 if passed else 1
    if isinstance(result, SparseMap):
        if getattr(args, "zap", None) is not None:
            result = result.zap(args.zap)
        sys.stdout.write(result.to_text())
    else:
        print(format_coefficient(result) if isinstance(result, float) else result)
    return 0


def _add_zap(p: argparse.ArgumentParser):
    p.add_argument("--zap", nargs="?", type=float, const=_default_tol(), default=None,
                   metavar="TOL", help="drop |coeff| <= TOL from the result "
                   "(bare --zap uses EXTERIOR_TOL or 1e-11)")


class _Parser(argparse.ArgumentParser):
    """argparse whose refusals are the one `error: ...` line, with no usage lines, and
    SystemExit(2); subparsers inherit it through parser_class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="extcalc", description="sparse exterior calculus on serialized k-forms and k-tensors")
    parser.add_argument("--stats", action="store_true",
                        help="after the result, write one JSON line of run statistics to stderr")
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
    p.add_argument("--keep-form", action="store_true",
                   help="return a 0-form instead of a bare scalar when fully contracted")
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
    src.add_argument("--omega", action="store_true",
                     help="gradient 1-form of the singular (n-1)-form")
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


def _stats(args, elapsed: float) -> str:
    # the --stats line: what ran, how long it took, whether numpy was loaded, which extcalc
    # modules were (this one by its own name, also when it runs as __main__), and the work
    import json

    modules = sorted({__spec__.name, *(m for m in sys.modules if m.split(".")[0] == "extcalc")})
    stats = {"subcommand": " ".join(filter(None, (args.command, getattr(args, "check", None)))),
             "elapsed_s": elapsed, "numpy_loaded": "numpy" in sys.modules, "modules": modules,
             **args.work}
    return json.dumps(stats, allow_nan=False)


def main(argv=None) -> int:
    start = time.perf_counter()
    try:
        args = _build_parser().parse_args(argv)
        # what a subcommand reports of its work for --stats (its nodes, or its checks)
        args.work = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = _write(args.func(args), args)
        if args.stats:
            print(_stats(args, time.perf_counter() - start), file=sys.stderr)
        return code
    except BrokenPipeError:
        # writer side of a closed pipe: silence the shutdown flush too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OverflowError, RuntimeWarning, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
