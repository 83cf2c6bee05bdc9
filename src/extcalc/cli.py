"""Command line interface: algebra on serialized forms plus verification.

Exit codes: 0 success, 1 a verification fell outside tolerance, 2 bad
usage, unparseable input or a floating-point error (overflow, division
by zero, invalid operation), reported as one error line.  File
arguments accept "-" for stdin.  The EXTERIOR_TOL environment variable
overrides the default tolerance used by the optional --zap cleanup flag.

One grammar table, _grammar, feeds two parsers: a table parser reads a
command line of the plain shape (exact long options, each value its own
token), and argparse, built from the same table, loads only for help,
abbreviations and refusals, which stay argparse's own.

Each subcommand returns its result: a form or tensor, a scalar, a line
of text, or a verification's (report, passed) pair.  main alone writes
it, applying --zap, and exits 1 on a failed verdict.  It runs both steps
with RuntimeWarning as an error, so a numpy floating-point error raises
where it happens, and restores the caller's warning filters.  With the
global --stats option it then writes one JSON line to stderr: the
subcommand, its elapsed seconds, whether numpy and argparse were loaded,
the sorted extcalc modules the run loaded, for a form or tensor the
terms written (and with --zap those zapped), for `verify stokes` its
quadrature nodes, and for `verify suite` each check's name, cases, seed
and elapsed seconds.  On Python floats, where no RuntimeWarning is
raised, the coefficient store and the evaluations refuse an overflow.
The seven commands that read files run their bodies in
extcalc.filecmds.  Reports and the --stats line are written by _json,
so no command loads json.

A process run through `run` ends by running the atexit handlers,
flushing stdout and stderr and calling os._exit with main's code, so it
skips the interpreter's teardown; a reader that closes the stdout pipe
early gets exit 0 and nothing on stderr but the --stats line, whatever
the result's size, and help alike.
"""

from __future__ import annotations

import atexit
import math
import os
import sys
import time
import warnings
from types import SimpleNamespace

from .rules import DEFAULT_TOL, _check_tol

__all__ = ["main", "run"]

# det46's coefficient sum_{j<=n} j^j overflows a float for every n above this
DET46_MAX_N = 143


def _default_tol() -> float:
    raw = os.environ.get("EXTERIOR_TOL", DEFAULT_TOL)
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"EXTERIOR_TOL must be a number, got {raw!r}") from None


def cmd_d(args):
    from . import derivatives

    if args.omega:
        return derivatives.omega_gradient(args.at)
    if args.field:
        form = derivatives.FieldForm([(getattr(derivatives, args.field), ())])
    else:
        form = derivatives.demo_two_form()
    return derivatives.exterior_d(form, args.at, analytic=not args.fd)


def cmd_verify_stokes(args):
    from .stokes import _scaled_errors, verify_stokes

    tol = _check_tol(args.tol)
    rep = verify_stokes(args.n, args.a, args.m)
    args.work["nodes"] = rep["m"] ** rep["n"] + 2 * rep["n"] * rep["m"] ** (rep["n"] - 1)
    return rep, max(_scaled_errors(rep)) <= tol


def cmd_verify_ddzero(args):
    from .derivatives import check_dd_zero

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
                        "seed": getattr(check, "seed", None),
                        "elapsed_s": time.perf_counter() - start})
    args.work["checks"] = timings
    ok = all(r["passed"] for r in reports)
    return {"checks": reports, "passed": ok}, ok


def _name(s) -> str:
    # a report's name as JSON: printable ASCII without " or \, which JSON writes unescaped
    if isinstance(s, str) and s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    raise ValueError(f"cannot write {s!r} as a report name")


def _json(obj) -> str:
    """json.dumps(obj, default=float, allow_nan=False) for what a report or the --stats line
    holds: dicts keyed by names, lists, bools, None, ints, names, and numbers through float().
    A name JSON would escape, NaN and infinity raise ValueError."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{_name(k)}: {_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_json, obj)) + "]"
    if isinstance(obj, str):
        return _name(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if not math.isfinite(value := float(obj)):
        raise ValueError("Out of range float values are not JSON compliant")
    return float.__repr__(value)


def _write(result, args) -> int:
    """Write a subcommand's result to stdout and return the exit code."""
    if isinstance(result, tuple):
        report, passed = result
        print(_json(report))
        return 0 if passed else 1
    from .sparse import SparseMap, format_coefficient

    if isinstance(result, SparseMap):
        if getattr(args, "zap", None) is not None:
            args.work["zapped"] = len(result) - len(result := result.zap(args.zap))
        args.work["terms"] = len(result)
        sys.stdout.write(result.to_text())
    else:
        print(format_coefficient(result) if isinstance(result, float) else result)
    return 0


def _grammar() -> dict:
    # the grammar both parsers read, in --help order: command words -> (help, function,
    # positionals, {option: its add_argument keywords}, the options excluding each other);
    # `verify` only groups its checks, and a file command's function is the name of its body
    # in extcalc.filecmds, which main imports only for it.  Built per run, so that bare --zap
    # reads EXTERIOR_TOL each time and each list default is a fresh list
    zap = {"--zap": {"nargs": "?", "type": float, "const": _default_tol(), "default": None,
                     "metavar": "TOL", "help": "drop |coeff| <= TOL from the result "
                     "(bare --zap uses EXTERIOR_TOL or 1e-11)"}}
    at = {"--at": {"nargs": "+", "type": float, "default": [1.0, 2.0, 3.0, 4.0]}}
    flag = {"action": "store_true", "default": False}
    return {
        ("eval",): ("evaluate a form or tensor on a frame", "cmd_eval", ("object", "frame"), {},
                    ()),
        ("wedge",): ("wedge product of two forms", "cmd_wedge", ("a", "b"), zap, ()),
        ("add",): ("sum of two like objects", "cmd_add", ("a", "b"), zap, ()),
        ("contract",): ("interior product with vectors", "cmd_contract", ("form", "vectors"), {
            "--keep-form": {**flag, "help": "return a 0-form instead of a bare scalar when "
                            "fully contracted"}, **zap}, ()),
        ("pullback",): ("pull a form back along a square matrix", "cmd_pullback",
                        ("form", "matrix"), zap, ()),
        ("alt",): ("alternating part of a tensor", "cmd_alt", ("tensor",), {}, ()),
        ("d",): ("exterior derivative of the built-in fields", cmd_d, (), {
            **at, "--field": {"choices": ["f1", "f2", "f3"], "help": "d of one demo 0-form"},
            "--omega": {**flag, "help": "gradient 1-form of the singular (n-1)-form"},
            "--fd": {**flag, "help": "force finite differences"}}, ("--field", "--omega")),
        ("print",): ("symbolic one-line rendering", "cmd_print", ("object",),
                     {"--style": {"choices": ["letters", "d"], "default": None}}, ()),
        ("verify",): ("numeric verification reports (JSON)", None, (), {}, ()),
        ("verify", "stokes"): ("boundary vs volume vs closed form", cmd_verify_stokes, (), {
            "--n": {"type": int, "default": 3}, "--a": {"type": float, "default": 1.0},
            "--m": {"type": int, "default": 8}, "--tol": {"type": float, "default": 1e-8}}, ()),
        ("verify", "ddzero"): ("d(d(demo 2-form)) = 0", cmd_verify_ddzero, (), at, ()),
        ("verify", "det46"): ("top-form determinant proportionality", cmd_verify_det46, (), {
            "--seed": {"type": int, "default": 0}, "--n": {"type": int, "default": 9}}, ()),
        ("verify", "suite"): ("every seeded property check", cmd_verify_suite, (), {}, ()),
    }


def _parse(grammar: dict, argv: list):
    """argparse's namespace for an argv of the plain shape, `[--stats] <command> [<check>]`
    then positionals and exact long options, each value its own token; else None, which
    leaves help, abbreviations, --opt=value, values starting with "-" and refusals to argparse.
    """
    stats = argv[:1] == ["--stats"]
    words = tuple(argv[stats:stats + 2])
    words = words if words in grammar else words[:1]
    _, func, positionals, options, exclusive = grammar.get(words, (None,) * 5)
    if func is None:
        return None
    values = {flag[2:].replace("-", "_"): kw.get("default") for flag, kw in options.items()}
    values.update(stats=stats, command=words[0], func=func, **dict(zip(["check"], words[1:])))
    rest, given, seen, i = argv[stats + len(words):], [], set(), 0
    # which tokens are values: a lone "-" (stdin) is, any other token starting with "-" is not
    is_value = [token[:1] != "-" or token == "-" for token in rest] + [False]
    while i < len(rest):
        token, kw, i = rest[i], options.get(rest[i]), i + 1
        if is_value[i - 1]:
            given.append(token)
            continue
        if kw is None:
            return None
        seen.add(token)
        value, nargs, end = True, kw.get("nargs"), i
        if "action" not in kw:
            while is_value[end] and (end == i or nargs == "+"):
                end += 1
            try:
                taken = [kw.get("type", str)(arg) for arg in rest[i:end]]
            except ValueError:
                return None
            if not (taken or nargs == "?") or not all(v in kw.get("choices", taken) for v in taken):
                return None
            value = taken if nargs == "+" else taken[0] if taken else kw["const"]
        values[token[2:].replace("-", "_")] = value
        i = end
    if len(given) != len(positionals) or len(seen.intersection(exclusive)) > 1:
        return None
    return SimpleNamespace(**values, **dict(zip(positionals, given)))


def _build_parser(grammar: dict):
    """argparse's parser for the grammar: the only path for help, abbreviations and refusals."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse whose refusals are the one `error: ...` line, with no usage lines, and
        SystemExit(2); subparsers inherit it through parser_class."""

        def error(self, message):
            self.exit(2, f"error: {message}\n")

    parser = _Parser(
        prog="extcalc", description="sparse exterior calculus on serialized k-forms and k-tensors")
    parser.add_argument("--stats", action="store_true",
                        help="after the result, write one JSON line of run statistics to stderr")
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for words, (help_text, func, positionals, options, exclusive) in grammar.items():
        p = subparsers[words[:-1]].add_parser(words[-1], help=help_text)
        if func is None:
            subparsers[words] = p.add_subparsers(dest="check", required=True)
            continue
        group = p.add_mutually_exclusive_group() if exclusive else p
        for name in positionals:
            p.add_argument(name)
        for flag, kw in options.items():
            (group if flag in exclusive else p).add_argument(flag, **kw)
        p.set_defaults(func=func)
    return parser


def _stats(args, elapsed: float) -> str:
    # the --stats line: what ran, how long it took, whether numpy and argparse were loaded,
    # which extcalc modules were (this one by its own name, also as __main__), and the work
    modules = sorted({__spec__.name, *(m for m in sys.modules if m.split(".")[0] == "extcalc")})
    stats = {"subcommand": " ".join(filter(None, (args.command, getattr(args, "check", None)))),
             "elapsed_s": elapsed, "numpy_loaded": "numpy" in sys.modules,
             "argparse_loaded": "argparse" in sys.modules, "modules": modules, **args.work}
    return _json(stats)


def main(argv=None) -> int:
    start = time.perf_counter()
    args = None
    try:
        grammar, argv = _grammar(), sys.argv[1:] if argv is None else list(argv)
        try:
            args = _parse(grammar, argv) or _build_parser(grammar).parse_args(argv)
        except SystemExit:
            # argparse's help leaves by SystemExit: its text meets a closed pipe here too
            sys.stdout.flush()
            raise
        # the work behind the result for --stats: nodes or checks, and _write's term counts
        args.work = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            func = args.func
            if isinstance(func, str):
                from . import filecmds

                func = getattr(filecmds, func)
            code = _write(func(args), args)
        # a closed pipe raises here, whatever the result's size, not in a later flush
        sys.stdout.flush()
    except BrokenPipeError:
        # writer side of a closed pipe: whatever is still buffered goes to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    except (ValueError, OverflowError, RuntimeWarning, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # after the result, also when its reader has gone
    if args is not None and args.stats:
        print(_stats(args, time.perf_counter() - start), file=sys.stderr)
    return code


def run():
    """Entry point of `python -m extcalc.cli` and the `extcalc` script.  The teardown it skips
    changes no output; main's SystemExit or exception, or a flush that raises, exits normally."""
    code = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
