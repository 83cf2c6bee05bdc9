"""The CLI contract on a grid of inputs, run in-process through cli.main.

Every argv exits 0, 1 or 2.  A refusal (2) writes nothing to stdout and
exactly one `error:` line to stderr.  A file command that succeeds writes
what an independent route computes: evaluations, contractions and
pullback coefficients by the signed expansion of tests/oracles.py, the
wedge by sorting each concatenated pair of keys, sums term by term.  Every
input below is integral, so each of those routes is exact.

Rows cross the objects with every file subcommand and each operand of
the right kind, and put every other file once in each operand position;
the odd option values -1, 0, 2.5, nan, inf and 1e400 go to every numeric
option.  A new refusal adds a row here, not a test.

Every argv run here also goes through both parsers of the one grammar:
cli's table parser either defers to argparse or builds argparse's own
namespace.  The benchmark's command shapes and argv drawn by hypothesis
from the grammar get the same check.
"""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
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

# name -> (file text, meaning): ("kform" | "ktensor", k, canonical terms), ("rows", rows), or None
FILES = {
    "w0": ("kform k=0\n : 3\n", ("kform", 0, {(): 3.0})),
    "w1": ("kform k=1\n1 : 2\n3 : -1\n", ("kform", 1, {(1,): 2.0, (3,): -1.0})),
    "w2": ("kform k=2\n2 1 : -1\n1 3 : 3\n2 3 : -2\n3 3 : 7\n",
           ("kform", 2, {(1, 2): 1.0, (1, 3): 3.0, (2, 3): -2.0})),
    "w3": ("kform k=3\n1 2 3 : 2\n2 3 4 : -1\n", ("kform", 3, {(1, 2, 3): 2.0, (2, 3, 4): -1.0})),
    "wz": ("kform k=2\nzero k=2\n", ("kform", 2, {})),
    "big": ("kform k=1\n1 : 1e308\n2 : -1e308\n", ("kform", 1, {(1,): 1e308, (2,): -1e308})),
    "t1": ("ktensor k=1\n2 : 5\n", ("ktensor", 1, {(2,): 5.0})),
    "t2": ("ktensor k=2\n1 1 : 2\n2 1 : 3\n", ("ktensor", 2, {(1, 1): 2.0, (2, 1): 3.0})),
    "t27": ("ktensor k=2\n1 27 : 3\n", ("ktensor", 2, {(1, 27): 3.0})),
    "vec3": ("1 2 3\n", ("rows", [1.0, 2.0, 3.0])),
    "col4": ("1\n0\n2\n-1\n", ("rows", [[1.0], [0.0], [2.0], [-1.0]])),
    "m32": ("1 2\n0 1\n3 -1\n", ("rows", [[1.0, 2.0], [0.0, 1.0], [3.0, -1.0]])),
    "m3": ("1 2 0\n0 1 1\n2 0 1\n", ("rows", [[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [2.0, 0.0, 1.0]])),
    "m4": ("1 0 2 0\n0 1 0 1\n1 1 1 0\n0 2 0 1\n",
           ("rows", [[1.0, 0.0, 2.0, 0.0], [0.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0],
                     [0.0, 2.0, 0.0, 1.0]])),
    "ragged": ("1 2\n3\n", None),
    "nancoef": ("kform k=1\n1 : nan\n", None),
    "junk": ("hello\n", None),
    "empty": ("", None),
    "missing": (None, None),
}

# the file subcommands and how many file operands each takes
FILE_COMMANDS = {"print": 1, "alt": 1, "eval": 2, "wedge": 2, "add": 2, "contract": 2,
                 "pullback": 2}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    out = {}
    for name, (text, _) in FILES.items():
        out[name] = str(root / f"{name}.txt")
        if text is not None:
            (root / f"{name}.txt").write_text(text, encoding="utf-8")
    return out


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
    meanings = [FILES[name][1] for name in names]
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


OBJECTS = [name for name, (_, meaning) in FILES.items() if meaning and meaning[0] != "rows"]
MATRICES = [name for name, (_, meaning) in FILES.items() if meaning and meaning[0] == "rows"]


def _operands(command):
    # the file names of each row: for two operands, every object with every operand of the
    # kind its position wants, and each other file once in either position
    if FILE_COMMANDS[command] == 1:
        yield from ((name,) for name in FILES)
        return
    seconds = OBJECTS if command in ("wedge", "add") else MATRICES
    yield from itertools.product(OBJECTS, seconds)
    yield from ((name, seconds[-1]) for name in FILES if name not in OBJECTS)
    yield from (("w2", name) for name in FILES if name not in seconds)


def _file_rows(command):
    for names in _operands(command):
        yield names, []
        if command == "contract":
            yield names, ["--keep-form"]


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_file_commands_on_every_input(command, paths):
    outcomes = dict.fromkeys((0, 1, 2), 0)
    for names, extra in _file_rows(command):
        argv = [command, *(paths[name] for name in names), *extra]
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
def test_zap_values(value, paths):
    zap = float(value)
    for command, names in (("wedge", ("w1", "w2")), ("add", ("w2", "w2")),
                           ("contract", ("w3", "col4")), ("pullback", ("w2", "m3"))):
        argv = [command, *(paths[name] for name in names), "--zap", value]
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


def test_the_refusals_whose_messages_are_declared(paths):
    # wedge reads each operand through the kform check that contract and pullback use
    for a, b in (("t2", "w1"), ("w1", "t1"), ("t1", "t2")):
        assert _run(["wedge", paths[a], paths[b]]) == (2, "", "error: wedge needs a kform input\n")
    # ragged matrix rows are refused by the row reader, naming the line
    for command in ("eval", "contract", "pullback"):
        assert _run([command, paths["w2"], paths["ragged"]]) == (
            2, "", "error: line 2: row has 1 entries, expected 2\n")
    # a 0-form reads its frame as any form does, and a frame file has at least one column
    assert _run(["eval", paths["w0"], paths["col4"]]) == (
        2, "", "error: frame has 1 columns but the object has arity 0\n")
    # print's default letters end at z: an index past 26 names the alphabet and the style that
    # renders it, not a supply of symbols nobody gave
    assert _run(["print", paths["t27"]]) == (
        2, "", "error: index 27 has no letter (the default symbols a-z name 1-26); "
        "use --style d\n")
    assert _run(["print", paths["t27"], "--style", "d"]) == (0, "+3 dx1*dx27\n", "")


# --stats rows: file names stand for their paths; the last three are refusals
STATS_ROWS = [
    ["print", "w2"], ["wedge", "w1", "w2"], ["pullback", "w3", "m4"], ["eval", "w2", "m32"],
    ["contract", "w3", "col4", "--keep-form"], ["d", "--omega", "--at", "1", "2", "3"],
    ["verify", "stokes", "--n", "2", "--m", "2"], ["verify", "ddzero"], ["verify", "suite"],
    ["wedge", "t1", "w1"], ["eval", "w2", "missing"], ["verify", "stokes", "--n", "9"],
]


def _no_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


@pytest.mark.parametrize("row", STATS_ROWS, ids=["-".join(row) for row in STATS_ROWS])
def test_stats_line(row, paths):
    argv = [paths.get(arg, arg) for arg in row]
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


def test_stats_line_counts_the_terms_written_and_zapped(paths):
    # w2 + w2 is 2 e12 + 6 e13 - 4 e23: a form result reports the terms it wrote, and with --zap
    # the terms --zap dropped; stdout is byte-identical with and without --stats
    for zap, work, text in (([], {"terms": 3}, "1 2 : 2\n1 3 : 6\n2 3 : -4\n"),
                            (["--zap", "5"], {"terms": 1, "zapped": 2}, "1 3 : 6\n"),
                            (["--zap", "10"], {"terms": 0, "zapped": 3}, "zero k=2\n")):
        argv = ["add", paths["w2"], paths["w2"], *zap]
        code, out, err = _run(["--stats", *argv])
        assert (code, out) == _run(argv)[:2] == (0, "kform k=2\n" + text)
        stats = json.loads(err, parse_constant=_no_constant)
        assert {key: stats[key] for key in ("terms", "zapped") if key in stats} == work


def test_stats_line_reports_a_run_without_numpy(paths):
    # in a process of its own, print never loads numpy
    src = str(Path(extcalc.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-m", "extcalc.cli", "--stats", "print", paths["w2"]],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.stdout == _run(["print", paths["w2"]])[1]
    stats = json.loads(run.stderr, parse_constant=_no_constant)
    assert stats["subcommand"] == "print" and stats["numpy_loaded"] is False
    # the table parser read the command line, so argparse never loaded
    assert stats["argparse_loaded"] is False
    # run as `python -m extcalc.cli`, cli is __main__ and still listed by its own name
    assert stats["modules"] == _ALGEBRA_ROWS["print"][1]


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
    numbers = ["0", "3", "12"] + (["2.5", "nan", "1e400"] if kw.get("type") is float else [])
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
