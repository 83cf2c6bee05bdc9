"""The CLI contract on a grid of inputs, run in-process through cli.main.

Every argv exits 0, 1 or 2.  A refusal (2) writes nothing to stdout and
exactly one `error:` line to stderr.  A file command that succeeds writes
what an independent route computes: evaluations, contractions and
pullback coefficients by the signed expansion of tests/oracles.py, the
wedge by sorting each concatenated pair of keys, sums term by term.
MEANINGS holds what each grid file of tests/cli_inputs.py means, all
integral, so each of those routes is exact.

Rows cross the objects with every file subcommand and each operand of
the right kind, and put every other file once in each operand position;
the odd option values -1, 0, 2.5, nan, inf and 1e400 go to every numeric
option.

REFUSALS is the one record of what the CLI refuses: each row is an
argv and its exact stderr line, and a new refusal adds a row there, not
a test.  Every row also runs in a fresh interpreter, outside pytest's
warning filters.  _run runs an argv in process, and _fresh in a child
interpreter, for the CLI tests of every file but test_imports.py.

Every argv run here also goes through both parsers of the one grammar:
cli's table parser either defers to argparse or builds argparse's own
namespace.  The benchmark's command shapes and argv drawn by hypothesis
from the grammar get the same check.

cli._json writes every report and the --stats line; the json module
stays here only as its oracle, on drawn report-shaped values and on the
real reports.
"""

import contextlib
import io
import itertools
import math
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

import extcalc
from extcalc import cli
from extcalc.cli import main
from oracles import dense_tensor_value, form_value_by_expansion, perm_parity
from test_imports import _ALGEBRA_ROWS

ODD = ("-1", "0", "2.5", "nan", "inf", "1e400")

# grid file name -> its meaning: ("kform" | "ktensor", k, canonical terms), ("rows", rows), or None
MEANINGS = {
    "w0": ("kform", 0, {(): -4.0}),
    "w1": ("kform", 1, {(1,): 2.0, (4,): -3.0}),
    "w2": ("kform", 2, {(1, 2): 1.0, (1, 3): 3.0, (2, 3): -2.0}),
    "w3": ("kform", 3, {(1, 2, 3): 1.0, (1, 2, 4): 12.0, (2, 3, 4): -5.0}),
    "wz": ("kform", 2, {}),
    "big": ("kform", 1, {(1,): 1e308, (2,): -1e308}),
    "big2": ("kform", 2, {(1, 2): 1e308}),
    "ten1": ("kform", 1, {(2,): 10.0}),
    "w7": ("kform", 7, {tuple(range(1, 8)): 1.0}),
    "w11": ("kform", 11, {tuple(range(1, 12)): 1.0}),
    "t1": ("ktensor", 1, {(2,): 5.0}),
    "t2": ("ktensor", 2, {(1, 1): 2.0, (1, 26): -7.0, (2, 1): -1.0, (3, 2): 1.0}),
    "t10": ("ktensor", 10, {tuple(range(1, 11)): 1.0}),
    "t27": ("ktensor", 2, {(1, 27): 3.0}),
    "vec3": ("rows", [1.0, 2.0, 3.0]),
    "col4": ("rows", [[1.0], [0.0], [2.0], [-1.0]]),
    "v10": ("rows", [[10.0], [0.0]]),
    "m10": ("rows", [[10.0, 0.0], [0.0, 10.0]]),
    "m32": ("rows", [[1.0, 2.0], [0.0, 1.0], [3.0, -1.0]]),
    "m3": ("rows", [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [2.0, 0.0, 1.0]]),
    "m4": ("rows", [[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0],
                    [0.0, 2.0, 0.0, 1.0]]),
    **dict.fromkeys(["ragged", "nancoef", "badcoef", "junk", "empty", "missing"]),
}

# the file subcommands and how many file operands each takes
FILE_COMMANDS = {"print": 1, "alt": 1, "eval": 2, "wedge": 2, "add": 2, "contract": 2,
                 "pullback": 2}


def _shown(namespace) -> dict:
    # each attribute's repr: tells nan, a list from a tuple and an int from a float apart
    return {name: repr(value) for name, value in vars(namespace).items()}


def _agrees(argv):
    # the table parser's namespace for argv, None where it defers; where it accepts, argparse
    # accepts too and builds the same attributes with the same values, func and defaults included
    grammar = cli._grammar()
    table = cli._parse(grammar, list(argv))
    if table is not None:
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                parsed = cli._build_parser(grammar).parse_args(list(argv))
            except SystemExit:
                pytest.fail(f"{argv}: the table parser accepts what argparse refuses: "
                            f"{err.getvalue()}")
        assert _shown(table) == _shown(parsed), argv
    return table


def _run(argv):
    # (exit code, stdout, stderr) of one in-process CLI run; argparse's refusals raise SystemExit
    _agrees(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _child_env(**env) -> dict:
    # this process's environment with env added, where Python reads an empty value as unset, and
    # the extcalc the tests import first on PYTHONPATH
    src = str(Path(extcalc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **env, "PYTHONPATH": path}


def _fresh(args, stdout=subprocess.PIPE, **env):
    # one `python <args>` in a process of its own, in _child_env(**env)
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=_child_env(**env), timeout=120)


def _number(c) -> str:
    c = float(c)
    return str(int(c)) if c.is_integer() and abs(c) < 1e16 else repr(c)


def _form_text(kind, k, terms, zap=None) -> str:
    kept = sorted((key, c) for key, c in terms.items()
                  if c != 0.0 and (zap is None or abs(c) > zap))
    lines = [f"{kind} k={k}"] + ([f"zero k={k}"] if not kept else [])
    lines += [" ".join(map(str, key)) + " : " + _number(c) for key, c in kept]
    return "\n".join(lines) + "\n"


def _frame(rows) -> np.ndarray:
    E = np.array(rows, dtype=float)
    return E.reshape(-1, 1) if E.ndim == 1 else E


def _oracle(command, names, zap=None, keep_form=False):
    # the expected stdout of a successful file command, or None where no route applies
    meanings = [MEANINGS[name] for name in names]
    if command == "eval":
        (kind, k, terms), (_, rows) = meanings
        value = (form_value_by_expansion if kind == "kform" else dense_tensor_value)(
            terms, k, _frame(rows))
        return _number(value) + "\n"
    if command == "add":
        (kind, k, a), (_, _, b) = meanings
        total = dict(a)
        for key, c in b.items():
            total[key] = total.get(key, 0.0) + c
        return _form_text(kind, k, total, zap)
    if command == "wedge":
        (_, k, a), (_, l, b) = meanings
        out = {}
        for (ka, ca), (kb, cb) in itertools.product(a.items(), b.items()):
            if not set(ka) & set(kb):
                key = tuple(sorted(ka + kb))
                out[key] = out.get(key, 0.0) + perm_parity(ka + kb) * ca * cb
        return _form_text("kform", k + l, out, zap)
    if command in ("contract", "pullback"):
        (_, k, terms), (_, rows) = meanings
        M = _frame(rows)
        n, m = M.shape
        if command == "pullback":
            # coefficient on J: the form on the columns J of M, sum_I c_I det(M[I, J])
            out = {J: form_value_by_expansion(terms, k, M[:, [j - 1 for j in J]])
                   for J in itertools.combinations(range(1, n + 1), k)}
            return _form_text("kform", k, out, zap)
        if m == k and not keep_form:
            return _number(form_value_by_expansion(terms, k, M)) + "\n"
        # coefficient on K: the form on the vectors, then the basis vectors e_K
        I = np.eye(n)
        out = {K: form_value_by_expansion(terms, k, np.hstack([M, I[:, [i - 1 for i in K]]]))
               for K in itertools.combinations(range(1, n + 1), k - m)}
        return _form_text("kform", k - m, out, zap)
    return None


def _check(argv, code, out, err):
    assert code in (0, 1, 2), (argv, code, err)
    if code != 2:
        assert err == "", (argv, err)
        return
    # one error line and nothing else, argparse's own refusals included
    lines = err.splitlines()
    assert out == "" and lines, argv
    assert sum("error:" in line for line in lines) == 1, (argv, err)
    assert lines == [lines[-1]] and lines[-1].startswith("error: "), (argv, err)


OBJECTS = [name for name, meaning in MEANINGS.items() if meaning and meaning[0] != "rows"]
MATRICES = [name for name, meaning in MEANINGS.items() if meaning and meaning[0] == "rows"]


def _operands(command):
    # the file names of each row: for two operands, every object with every operand of the
    # kind its position wants, and each other file once in either position
    if FILE_COMMANDS[command] == 1:
        yield from ((name,) for name in MEANINGS)
        return
    seconds = OBJECTS if command in ("wedge", "add") else MATRICES
    yield from itertools.product(OBJECTS, seconds)
    yield from ((name, seconds[-1]) for name in MEANINGS if name not in OBJECTS)
    yield from (("w2", name) for name in MEANINGS if name not in seconds)


def _file_rows(command):
    for names in _operands(command):
        yield names, []
        if command == "contract":
            yield names, ["--keep-form"]


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_file_commands_on_every_input(command, files):
    outcomes = dict.fromkeys((0, 1, 2), 0)
    for names, extra in _file_rows(command):
        argv = [command, *(files[name] for name in names), *extra]
        code, out, err = _run(argv)
        _check(argv, code, out, err)
        outcomes[code] += 1
        if code == 0:
            want = _oracle(command, names, keep_form=bool(extra))
            assert want is None or out == want, (argv, out, want)
            assert out, argv
    # the grid holds both answers and refusals for every command, and no verdict
    assert outcomes[0] >= 4 and outcomes[1] == 0 and outcomes[2] >= 10, outcomes


@pytest.mark.parametrize("value", ODD)
def test_zap_values(value, files):
    zap = float(value)
    for command, names in (("wedge", ("w1", "w2")), ("add", ("w2", "w2")),
                           ("contract", ("w3", "col4")), ("pullback", ("w2", "m3"))):
        argv = [command, *(files[name] for name in names), "--zap", value]
        code, out, err = _run(argv)
        _check(argv, code, out, err)
        if value == "nan":
            assert code == 2 and err == "error: a tolerance must be a number, got nan\n"
        else:
            assert code == 0 and out == _oracle(command, names, zap=zap), argv


NUMERIC_OPTIONS = [
    ["verify", "stokes", "--n"], ["verify", "stokes", "--m"], ["verify", "stokes", "--a"],
    ["verify", "stokes", "--tol"], ["verify", "det46", "--n"], ["verify", "det46", "--seed"],
    ["d", "--at"], ["d", "--omega", "--at"], ["verify", "ddzero", "--at"],
]


@pytest.mark.parametrize("value", ODD)
def test_numeric_options(value):
    for option in NUMERIC_OPTIONS:
        argvs = [option + [value]]
        if option[-1] == "--at":
            argvs.append(option + [value, "2", "3", "4"])
        for argv in argvs:
            code, out, err = _run(argv)
            _check(argv, code, out, err)
            if code == 1 or argv[0] == "verify" and code == 0:
                assert argv[0] == "verify" and isinstance(json.loads(out), dict), argv


_DET46_N = ("error: det46 needs 2 <= --n <= 143, got {}: the example needs two dimensions, and "
            "sum_j j^j overflows above 143")
_NODES = "error: verify_stokes: m^n = {}^{} volume nodes = {} exceeds the bound 1048576; refusing"
_ALT = ("error: alt on arity {0}: {1} terms x {0}! permutations = {2} exceeds the bound 1048576; "
        "refusing")
_R4 = "error: the demo fields f1, f2, f3 live on R^4, got a point in R^{}"
_INF = "error: cannot store the non-finite coefficient inf"
_NAN_TOL = "error: a tolerance must be a number, got nan"
_ASCII = "error: line {}: underscore or non-ASCII character in {!r}"

# every refusal of the CLI: argv, file names standing for their paths, and its one stderr line.
# A line of None is worded by numpy (its RuntimeWarnings vary across the versions pyproject
# admits), by argparse (which varies across 3.10-3.12) or by the OS (a missing file's message
# holds its path); those rows keep the contract's one `error:` line
REFUSALS = [
    # add takes two objects of one type; wedge, contract and pullback read each form through
    # one kform check
    (["add", "w1", "t1"], "error: add needs two objects of the same type"),
    *((["wedge", a, b], "error: wedge needs a kform input")
      for a, b in (("t2", "w1"), ("w1", "t1"), ("t1", "t2"))),
    (["contract", "t1", "v10"], "error: contract needs a kform input"),
    (["pullback", "t1", "v10"], "error: pullback needs a kform input"),
    # the readers name the line; a 0-form reads its frame as any form does
    *(([command, "w2", "ragged"], "error: line 2: row has 1 entries, expected 2")
      for command in ("eval", "contract", "pullback")),
    (["print", "badcoef"], "error: line 2: bad coefficient in '1 2 : oops'"),
    (["print", "nancoef"], "error: line 2: bad coefficient in '1 : nan'"),
    # int() and float() would read 1_0 as 10 and an Arabic-Indic three as 3
    (["print", "underscored"], _ASCII.format(2, "1_0 2_0 : 1_5")),
    (["print", "arabic"], _ASCII.format(1, "kform k=\u0663")),
    (["eval", "w2", "underscoredrow"], _ASCII.format(1, "1_0 2")),
    # a line ends at "\n" only, so U+2028 is a character of its line
    (["print", "linesep"], _ASCII.format(2, "1 2 : 1\u20282 3 : 4")),
    # a number on the command line is read by the same rule, through argparse's refusal
    (["verify", "stokes", "--n", "\u0663"], "error: argument --n: invalid int value: '\u0663'"),
    (["verify", "stokes", "--m", "1_0"], "error: argument --m: invalid int value: '1_0'"),
    (["d", "--at", "1_0", "2", "3", "4"], "error: argument --at: invalid float value: '1_0'"),
    (["wedge", "w1", "ten1", "--zap", "1_0"], "error: argument --zap: invalid float value: '1_0'"),
    (["print", "missing"], None),
    (["eval", "w0", "col4"], "error: frame has 1 columns but the object has arity 0"),
    # print's default letters end at z: the message names the alphabet and the style that
    # renders index 27.  It once read `error: index 27 exceeds the 26 symbols supplied`, with
    # stderr sha256 225c0584...c9107, though no symbols were supplied
    (["print", "t27"], "error: index 27 has no letter (the default symbols a-z name 1-26); "
     "use --style d"),
    # alt counts terms x k! before expanding a form or permuting a tensor
    (["alt", "w11"], _ALT.format(11, 39916800, 1593350922240000)),
    (["alt", "w7"], _ALT.format(7, 5040, 25401600)),
    (["alt", "t10"], _ALT.format(10, 1, 3628800)),
    # finite inputs whose result overflows
    (["eval", "big2", "m10"],
     "error: evaluate_form: the value came out inf: a product or sum overflowed"),
    (["pullback", "big2", "m10"], _INF),
    (["wedge", "big", "ten1"], _INF),
    (["contract", "big", "v10"], _INF),
    (["contract", "big2", "v10", "--keep-form"], _INF),
    # a NaN tolerance would drop every term (--zap) or fail every comparison (--tol)
    (["wedge", "w1", "ten1", "--zap", "nan"], _NAN_TOL),
    (["add", "w1", "ten1", "--zap", "nan"], _NAN_TOL),
    (["verify", "stokes", "--n", "2", "--tol", "nan"], _NAN_TOL),
    # a point: finite, and in R^4 for the demo fields
    (["d", "--at", "nan", "2", "3", "4"], "error: need a finite number, got nan"),
    (["d", "--omega", "--at", "inf", "1"], "error: need a finite number, got inf"),
    (["d", "--field", "f1", "--at", "1", "inf", "3", "4"], "error: need a finite number, got inf"),
    (["verify", "ddzero", "--at", "1", "2", "3", "nan"], "error: need a finite number, got nan"),
    (["verify", "ddzero", "--at", "1", "2", "3", "1e400"], "error: need a finite number, got inf"),
    (["d", "--at", "1", "2"], "error: point has length 2 but indices reach 4"),
    (["verify", "ddzero", "--at", "1", "2"], "error: point has length 2 but indices reach 4"),
    (["verify", "ddzero", "--at", "1", "2", "3"], "error: point has length 3 but indices reach 4"),
    (["d", "--field", "f1", "--at", "1", "2"], _R4.format(2)),
    (["d", "--fd", "--field", "f2", "--at", "1", "2", "3"], _R4.format(3)),
    (["d", "--at", "1", "2", "3", "4", "5"], _R4.format(5)),
    (["verify", "ddzero", "--at", "1", "2", "3", "4", "5"], _R4.format(5)),
    # numpy's floating-point errors, one error line under cli.main's policy
    (["d", "--omega", "--at", "1e200", "1", "1"], None),
    (["d", "--at", "1e200", "1", "1", "1"], None),
    (["d", "--omega", "--at", "1e-100", "1e-100", "1e-100"], None),
    # verify stokes: a finite edge, a closed form that fits a float, and at most 2^20 nodes
    (["verify", "stokes", "--n", "2", "--a", "inf"], "error: need a finite number, got inf"),
    (["verify", "stokes", "--n", "2", "--a", "1e308"],
     "error: the closed form overflows at n = 2, a = 1e+308"),
    (["verify", "stokes", "--n", "3", "--m", "3", "--a", "1e100"],
     "error: the closed form overflows at n = 3, a = 1e+100"),
    (["verify", "stokes", "--n", "6", "--m", "50"], _NODES.format(50, 6, 15625000000)),
    (["verify", "stokes", "--n", "2", "--m", "100000"], _NODES.format(100000, 2, 10000000000)),
    # verify det46: --n in its range, refused before allocating, and a seed default_rng takes
    *((["verify", "det46", "--n", n], _DET46_N.format(n))
      for n in ("-1", "0", "1", "144", "300", str(10**12))),
    (["verify", "det46", "--n", "130"], "error: the determinant check overflows at n = 130"),
    *((["verify", "det46", "--seed", seed],
       f"error: det46 needs --seed >= 0, got {seed}: it seeds numpy's default_rng")
      for seed in ("-1", str(-(2**70)))),
    # argparse's usage errors: an unknown command, and none
    (["frobnicate"], None),
    ([], None),
]


@pytest.mark.parametrize("argv, line", REFUSALS,
                         ids=[" ".join(argv) or "no-command" for argv, _ in REFUSALS])
def test_refusal(argv, line, files):
    # exit 2, nothing on stdout and the row's one line on stderr, well within a second: no
    # refusal allocates or expands first
    argv = [files.get(arg, arg) for arg in argv]
    start = time.perf_counter()
    code, out, err = _run(argv)
    assert time.perf_counter() - start < 1.0, argv
    _check(argv, code, out, err)
    assert (code, out, err) == (2, "", err if line is None else line + "\n")


def test_each_declared_output_change_is_a_command_same_output_runs(tmp_path, monkeypatch):
    # tools/same_output.py passes a difference from the base tree only on an argv of DECLARED,
    # and each must be one of its commands: a declared change cannot outlive its row
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tools"))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    import same_output

    commands = same_output.commands(tmp_path)
    assert [argv for argv in same_output.DECLARED if list(argv) not in commands] == []


def test_cli_floating_point_policy_holds_in_a_fresh_interpreter(files):
    # pytest turns every warning into an error, so only an interpreter without its filters
    # shows that main alone makes numpy's overflow, division and invalid-value warnings one
    # error line, and puts the caller's warning filters back
    rows = [([files.get(arg, arg) for arg in argv], line) for argv, line in REFUSALS]
    script = (
        "import contextlib, io, warnings\n"
        "from extcalc.cli import main\n"
        f"for argv, line in {rows!r}:\n"
        "    before = list(warnings.filters)\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            code = main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    lines = err.getvalue().splitlines()\n"
        "    assert code == 2 and out.getvalue() == '', (argv, code, out.getvalue())\n"
        "    assert len(lines) == 1 and lines[0].startswith('error:'), (argv, lines)\n"
        "    assert line in (None, lines[0]), (argv, lines)\n"
        "    assert warnings.filters == before, argv\n"
    )
    proc = _fresh(["-c", script], PYTHONWARNINGS="")
    assert proc.returncode == 0, proc.stderr


# --stats rows: names of cli_inputs.FILES stand for their paths; the last three are refusals
STATS_ROWS = [
    ["print", "w2"], ["wedge", "w1", "w2"], ["pullback", "w3", "m4"], ["eval", "w2", "m32"],
    ["contract", "w3", "col4", "--keep-form"], ["d", "--omega", "--at", "1", "2", "3"],
    ["verify", "stokes", "--n", "2", "--m", "2"], ["verify", "ddzero"], ["verify", "suite"],
    ["wedge", "t1", "w1"], ["eval", "w2", "missing"], ["verify", "stokes", "--n", "9"],
]


def _no_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


@pytest.mark.parametrize("row", STATS_ROWS, ids=["-".join(row) for row in STATS_ROWS])
def test_stats_line(row, files):
    argv = [files.get(arg, arg) for arg in row]
    plain = _run(argv)
    _check(argv, *plain)
    code, out, err = _run(["--stats", *argv])
    # the exit code and stdout of the plain run; a refusal writes its one error line alone
    assert (code, out) == plain[:2]
    if code == 2:
        assert err == plain[2]
        return
    assert err.endswith("\n") and err.count("\n") == 1
    stats = json.loads(err, parse_constant=_no_constant)
    subcommand = " ".join(row[:2]) if row[0] == "verify" else row[0]
    suite, stokes = subcommand == "verify suite", subcommand == "verify stokes"
    written = out.startswith(("kform", "ktensor"))
    assert set(stats) == ({"subcommand", "elapsed_s", "numpy_loaded", "argparse_loaded", "modules"}
                          | ({"checks"} if suite else set()) | ({"nodes"} if stokes else set())
                          | ({"terms"} if written else set()))
    assert stats["subcommand"] == subcommand and stats["numpy_loaded"] is True
    # this process runs under pytest, which has loaded argparse
    assert stats["argparse_loaded"] is True
    # in this process every extcalc module is loaded, each named once, in sorted order
    assert stats["modules"] == sorted(set(stats["modules"])) and {
        "extcalc", "extcalc.cli", "extcalc.sparse"} <= set(stats["modules"])
    assert all(m == "extcalc" or m.startswith("extcalc.") for m in stats["modules"])
    assert type(stats["elapsed_s"]) is float and stats["elapsed_s"] > 0.0
    if suite:
        reports = json.loads(out)["checks"]
        assert [(c["name"], c["cases"]) for c in stats["checks"]] == [
            (r["name"], r["cases"]) for r in reports]
        assert len(reports) == 14 and all(
            set(c) == {"name", "cases", "seed", "elapsed_s"} for c in stats["checks"])
        # the seed each check draws from, null for the three that draw nothing
        assert [c["seed"] for c in stats["checks"]] == [
            101, 7, 102, 103, 104, 105, 106, 107, 108, 109, 110, None, None, None]
        assert 0.0 < sum(c["elapsed_s"] for c in stats["checks"]) <= stats["elapsed_s"]
    if stokes:  # m^n volume nodes and 2n faces of m^(n-1), at n = m = 2
        assert stats["nodes"] == 2**2 + 2 * 2 * 2**1


def test_stats_line_counts_the_nodes_of_verify_stokes():
    # m^n + 2n m^(n-1) nodes: 512 in the volume and 6 faces of 64 at n = 3, m = 8; stdout is
    # byte-identical with and without --stats
    argv = ["verify", "stokes", "--n", "3", "--m", "8"]
    code, out, err = _run(["--stats", *argv])
    assert (code, out) == _run(argv)[:2] == (0, out) and out
    assert json.loads(err)["nodes"] == 896


def test_stats_line_counts_the_terms_written_and_zapped(files):
    # w2 + w2 is 2 e12 + 6 e13 - 4 e23: a form result reports the terms it wrote, and with --zap
    # the terms --zap dropped; stdout is byte-identical with and without --stats
    for zap, work, text in (([], {"terms": 3}, "1 2 : 2\n1 3 : 6\n2 3 : -4\n"),
                            (["--zap", "5"], {"terms": 1, "zapped": 2}, "1 3 : 6\n"),
                            (["--zap", "10"], {"terms": 0, "zapped": 3}, "zero k=2\n")):
        argv = ["add", files["w2"], files["w2"], *zap]
        code, out, err = _run(["--stats", *argv])
        assert (code, out) == _run(argv)[:2] == (0, "kform k=2\n" + text)
        stats = json.loads(err, parse_constant=_no_constant)
        assert {key: stats[key] for key in ("terms", "zapped") if key in stats} == work


def test_stats_line_reports_a_run_without_numpy(files):
    # in a process of its own, print never loads numpy
    run = _fresh(["-m", "extcalc.cli", "--stats", "print", files["w2"]])
    assert (run.returncode, run.stdout) == _run(["print", files["w2"]])[:2], run.stderr
    stats = json.loads(run.stderr, parse_constant=_no_constant)
    assert stats["subcommand"] == "print" and stats["numpy_loaded"] is False
    # the table parser read the command line, so argparse never loaded
    assert stats["argparse_loaded"] is False
    # run as `python -m extcalc.cli`, cli is __main__ and still listed by its own name
    assert stats["modules"] == _ALGEBRA_ROWS["print"][1]


@pytest.mark.parametrize("code, argv", [(0, ["verify", "stokes", "--n", "3"]),
                                        (1, ["verify", "stokes", "--n", "4", "--tol", "1e-300"]),
                                        (2, ["d", "--omega", "--at", "1e200", "1", "1"])],
                         ids=["exit-0", "exit-1", "exit-2"])
def test_a_cli_process_exits_with_mains_code_and_text(code, argv):
    # cli.run ends the process without the interpreter's teardown: the exit code, stdout and
    # stderr are main's, and the --stats line still reaches stderr
    _, out, err = in_process = _run(argv)
    assert in_process[0] == code
    proc = _fresh(["-m", "extcalc.cli", *argv])
    assert (proc.returncode, proc.stdout, proc.stderr) == in_process
    proc = _fresh(["-m", "extcalc.cli", "--stats", *argv])
    assert (proc.returncode, proc.stdout) == (code, out)
    if code == 2:
        assert proc.stderr == err
    else:
        assert json.loads(proc.stderr)["subcommand"] == "verify stokes"


def test_a_cli_process_writes_a_large_result_to_a_file_whole(tmp_path):
    # a result far past stdout's buffer, redirected to a file, is main's text byte for byte
    rows = "".join(f"{i} {i + 1} {i + 2} : 1\n" for i in range(1, 5001))
    f = tmp_path / "f.txt"
    f.write_text("kform k=3\n" + rows, encoding="utf-8")
    code, out, _ = _run(["add", str(f), str(f)])
    assert code == 0 and len(out.encode()) > 2**16
    with open(tmp_path / "out.txt", "wb") as sink:
        proc = _fresh(["-m", "extcalc.cli", "add", str(f), str(f)], stdout=sink)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "out.txt").read_bytes() == out.encode()


def test_a_cli_process_runs_each_atexit_handler_once_then_exits_through_os_exit():
    # an atexit handler registered before the CLI runs as __main__ runs once, after main's
    # output; the process then ends through os._exit with main's code
    script = (
        "import atexit, os, runpy\n"
        "atexit.register(print, 'handler ran')\n"
        "real_exit = os._exit\n"
        "def _exit(code):\n"
        "    os.write(2, f'os._exit({code})'.encode())\n"
        "    real_exit(code)\n"
        "os._exit = _exit\n"
        "runpy.run_module('extcalc.cli', run_name='__main__')\n"
    )
    argv = ["verify", "stokes", "--n", "3"]
    code, out, _ = _run(argv)
    proc = _fresh(["-c", script, *argv])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, out + "handler ran\n", f"os._exit({code})")


def test_run_falls_back_to_the_normal_exit_when_its_flush_raises(monkeypatch):
    # in-process: os._exit with main's code after the atexit handlers and the flush; a flush
    # that raises leaves by sys.exit with the same code, and main's SystemExit passes through
    calls = []

    class Stream(io.StringIO):
        def __init__(self, fails):
            super().__init__()
            self.fails = fails

        def flush(self):
            calls.append("flush")
            if self.fails:
                raise BrokenPipeError(32, "Broken pipe")

    class Exited(Exception):
        """Stands in for the end of the process."""

    def exit_(code):
        calls.append(("os._exit", code))
        raise Exited

    monkeypatch.setattr(cli, "main", lambda: 1)
    monkeypatch.setattr(cli.atexit, "_run_exitfuncs", lambda: calls.append("atexit"))
    monkeypatch.setattr(cli.os, "_exit", exit_)
    monkeypatch.setattr(sys, "stderr", Stream(False))
    monkeypatch.setattr(sys, "stdout", Stream(False))
    with pytest.raises(Exited):
        cli.run()
    assert calls == ["atexit", "flush", "flush", ("os._exit", 1)]
    calls.clear()
    monkeypatch.setattr(sys, "stdout", Stream(True))
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 1 and calls == ["atexit", "flush"]
    calls.clear()
    monkeypatch.setattr(cli, "main", lambda: sys.exit(2))
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 2 and calls == []


# the argv shapes of perfbench/inputs.py and its print warm-up, file names standing for paths
BENCHMARK_ARGV = [
    ["print", "A3.txt"], ["add", "A3.txt", "C3.txt"], ["eval", "A3.txt", "E.txt"],
    ["contract", "A3.txt", "V.txt"], ["wedge", "A3.txt", "B2.txt"], ["pullback", "P5.txt", "M.txt"],
    *(["verify", "stokes", "--n", str(n), "--a", repr(a), "--m", str(m)]
      for n, a, m in ((3, 1.0, 8), (4, 0.5, 8), (6, 1.0, 4))),
    ["verify", "suite"], ["verify", "ddzero"], ["verify", "det46", "--seed", "1234567"],
    ["d", "--field", "f1", "--fd"], ["d", "--omega", "--at", "1.0", "2.0", "3.0", "4.0", "5.0"],
]


@pytest.mark.parametrize("argv", BENCHMARK_ARGV, ids=" ".join)
def test_the_table_parser_reads_every_benchmark_command(argv):
    # the benchmark's commands never reach argparse, with --stats or without
    for line in (argv, ["--stats", *argv]):
        assert _agrees(line) is not None, line


def test_each_run_gets_a_list_default_of_its_own():
    first, second = (cli._parse(cli._grammar(), ["d"]) for _ in range(2))
    assert first.at == second.at == [1.0, 2.0, 3.0, 4.0] and first.at is not second.at


# argv the table parser leaves to argparse, one per rule: help, an abbreviation, an unknown
# option, --opt=value, --, a value starting with "-", a failed conversion, a choice outside the
# set, too few or too many positionals, two options of one mutually exclusive group, --stats
# after the command, a missing or unknown command
DEFERRED = [
    ["-h"], ["print", "x", "--help"], ["verify", "stokes", "-h"], ["verify", "stokes", "--t", "1"],
    ["--stat", "print", "x"], ["print", "x", "--sty", "d"], ["verify", "stokes", "--x", "1"],
    ["verify", "stokes", "--n=3"], ["print", "--", "x"], ["verify", "stokes", "--n", "-1"],
    ["d", "--at", "1", "-2"], ["print", "-x"], ["wedge", "a", "b", "--zap", "-1"],
    ["verify", "stokes", "--n", "2.5"], ["d", "--at", "x"], ["print", "x", "--style", "D"],
    ["d", "--field", "f4"], ["print"], ["eval", "a"], ["print", "x", "y"], ["verify", "suite", "x"],
    ["d", "--field", "f1", "--omega"], ["d", "--omega", "--at", "1", "--field", "f2"],
    ["print", "x", "--stats"], ["verify", "--stats", "suite"], [], ["--stats"], ["verify"],
    ["frobnicate"], ["verify", "frobnicate"], ["verify stokes"],
]


@pytest.mark.parametrize("argv", DEFERRED, ids=" ".join)
def test_the_table_parser_defers_what_only_argparse_reads(argv):
    assert cli._parse(cli._grammar(), argv) is None


# hypothesis caches the constants it reads from local source at collection time: under
# .pytest_cache, as in test_properties.py, not in a .hypothesis/ of the working directory
set_hypothesis_home_dir(Path(__file__).resolve().parents[1] / ".pytest_cache" / "hypothesis")

_GRAMMAR = cli._grammar()
_ODD = ["-1", "-2.5", "nan", "inf", "1e400", "2.5", "x", "", "-", "f4", "--", "-h", "--help",
        "--stats", "--x"]


def _fitting(kw):
    # values an option takes: none for a flag, else its choices or numbers of its type, as many
    # as its nargs admits
    if "action" in kw:
        return st.just([])
    floats = ["2.5", "nan", "1e400"] if kw.get("type") is cli._FLOAT else []
    numbers = ["0", "3", "12", *floats]
    low, high = {"+": (1, 3), "?": (0, 1)}.get(kw.get("nargs"), (1, 1))
    return st.lists(st.sampled_from(kw.get("choices", numbers)), min_size=low, max_size=high)


@st.composite
def _argvs(draw):
    # a command of the grammar, or an unknown or missing one; positionals, mostly as many as it
    # takes; its options in any order, each with fitting values or with 0-3 odd ones; and now
    # and then a stray: an abbreviation, --flag=value, -h, --, a negative, non-numeric, nan or
    # 1e400 value or a lone "-"
    words = draw(st.sampled_from([*_GRAMMAR, ("frobnicate",), ()]))
    _, _, positionals, specs, _ = _GRAMMAR.get(words, ("", None, (), {}, ()))
    count = len(positionals) + (draw(st.integers(0, 3)) == 0)
    path = st.sampled_from(["a.txt", "-", "", "x y", "3", "stokes"]) | st.text(max_size=3)
    chunks = [[draw(path)] for _ in range(count)]
    for flag in draw(st.lists(st.sampled_from(sorted(specs)), max_size=3)) if specs else ():
        odd = st.lists(st.sampled_from(_ODD) | st.text(max_size=3), max_size=3)
        chunks.append([flag, *draw(odd if draw(st.integers(0, 3)) == 0 else _fitting(specs[flag]))])
    strays = _ODD + [flag[:end] for flag in specs for end in range(3, len(flag))] + [
        f"{flag}=3" for flag in specs]
    if draw(st.integers(0, 3)) == 0:
        chunks.append([draw(st.sampled_from(strays))])
    order = draw(st.permutations(range(len(chunks))))
    return ["--stats"] * draw(st.booleans()) + list(words) + [
        token for i in order for token in chunks[i]]


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_argvs())
def test_the_table_parser_defers_or_agrees_with_argparse(argv):
    _agrees(argv)


# report-shaped values for cli._json: names, ints, floats at the edges of repr's forms, bools,
# None and the numpy scalars a report may hold, nested in lists and in dicts keyed by names
_NAMES = st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters='"\\'),
                 max_size=6)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_LEAVES = (st.sampled_from([-0.0, 1e16, 1e15, 5e-324, -1.7976931348623157e308, 0.1, 2**70])
           | _FLOATS | st.integers() | st.booleans() | st.none() | _NAMES
           | _FLOATS.map(np.float64) | st.integers(-2**63, 2**63 - 1).map(np.int64)
           | st.booleans().map(np.bool_))
_REPORTS = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(_NAMES, inner, max_size=4), max_leaves=24)


def _dumps(value) -> str:
    # the oracle: what cli wrote with the json module, allow_nan=False and float() for the rest
    return json.dumps(value, default=float, allow_nan=False)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_REPORTS)
def test_the_report_writer_writes_what_json_dumps_writes(value):
    assert cli._json(value) == _dumps(value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                 np.float64("-inf"), np.float32("inf")], ids=repr)
def test_the_report_writer_refuses_nan_and_infinity(bad):
    # one ValueError, worded the same on every Python, wherever the value sits
    for value in (bad, [1, bad], {"name": "x", "values": [0.5, {"err": bad}]}):
        with pytest.raises(ValueError) as refused:
            cli._json(value)
        assert str(refused.value) == "Out of range float values are not JSON compliant"
        with pytest.raises(ValueError):
            _dumps(value)


@pytest.mark.parametrize("bad", ['say "x"', "a\\b", "line\n", "tab\t", "\x7f", "café"],
                         ids=repr)
def test_the_report_writer_refuses_a_name_json_would_escape(bad):
    for value in (bad, [bad], {bad: 1}, {"name": bad}):
        with pytest.raises(ValueError, match="as a report name"):
            cli._json(value)


@pytest.mark.parametrize("argv", [["verify", "stokes", "--n", "4", "--a", "0.5", "--m", "8"],
                                  ["verify", "ddzero"], ["verify", "det46", "--seed", "3"],
                                  ["verify", "suite"]], ids=" ".join)
def test_the_real_reports_and_stats_line_are_written_as_json_dumps_writes(argv):
    # each verify report, and its --stats line, which the oracle reads back and writes again
    args = cli._parse(cli._grammar(), ["--stats", *argv])
    args.work = {}
    report, _ = args.func(args)
    assert cli._json(report) == _dumps(report)
    line = cli._stats(args, 0.25)
    assert line == _dumps(json.loads(line)) and json.loads(line)["elapsed_s"] == 0.25
