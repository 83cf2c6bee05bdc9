"""The text format, and the CLI answers that GOLDENS cannot hold.

The text half round-trips forms, tensors and matrices through their
text; its refusals of malformed or non-finite lines are rows of
API_REFUSALS in test_api_contract.py.  Every CLI answer that is an argv,
an exit code and an exact stdout on inline files is a row of GOLDENS in
test_goldens.py, and each CLI refusal of that kind is a row of REFUSALS
in test_cli_contract.py.  A CLI test stays here when it needs what a
row cannot give: a process of its own, stdin or an environment
variable; a spy, a monkeypatch or a time bound; or a tolerance, where
numpy's SIMD sin and cos or BLAS set the digits (`d` on the demo form
and its --fd route, `verify ddzero`, `det46` and `suite`, and a
pullback by a random matrix and back).
"""

import contextlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from extcalc import (
    KForm,
    KTensor,
    exterior_d,
    demo_two_form,
    kform_from_rows,
    ktensor_from_rows,
    parse_form_text,
    parse_matrix_text,
    rform,
)
import extcalc
from extcalc import cli
from extcalc.cli import main


# ---------------------------------------------------------------- text io


def test_round_trip_integer_form():
    w = rform(3, 3, 7, 8)
    assert parse_form_text(w.to_text()) == w


def test_round_trip_float_form():
    w = rform(3, 2, 5, 4).scale(0.1)
    back = parse_form_text(w.to_text())
    assert back.equals(w, 1e-14)
    assert isinstance(back, KForm)


def test_round_trip_tensor():
    T = ktensor_from_rows([(2, 1), (1, 1)], [5.0, -0.25])
    back = parse_form_text(T.to_text())
    assert isinstance(back, KTensor)
    assert back == T


def test_round_trip_large_integers():
    w = KForm(2, {(1, 2): 371423053.0})
    assert parse_form_text(w.to_text()) == w


def test_round_trip_zero_objects():
    z = parse_form_text(KForm(3).to_text())
    assert isinstance(z, KForm) and z.arity == 3 and not z.terms
    z = parse_form_text(KTensor(0).to_text())
    assert isinstance(z, KTensor) and z.arity == 0 and not z.terms


def test_round_trip_scalar_form():
    w = KForm(0, {(): 6.0})
    assert parse_form_text(w.to_text()) == w


def test_parse_canonicalizes_rows():
    got = parse_form_text("kform k=3\n4 2 3 : 1\n1 4 2 : 5\n")
    assert got.terms == {(2, 3, 4): 1.0, (1, 2, 4): -5.0}


def test_parse_skips_comments_and_blanks():
    text = "# header comment\n\nkform k=1\n2 : 3  # trailing\n\n"
    assert parse_form_text(text).terms == {(2,): 3.0}


def test_parse_matrix_vector_and_matrix():
    v = parse_matrix_text("1 2 3\n")
    assert v.shape == (3,) and v[2] == 3.0
    M = parse_matrix_text("# frame\n1 2\n3 4\n")
    assert M.shape == (2, 2) and M[1, 0] == 3.0


# ---------------------------------------------------------------- cli

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_a_file_command_calls_the_textio_function_bound_when_it_runs(tmp_path, monkeypatch):
    # a parser or renderer wrapped on extcalc.textio once the file commands have loaded (here
    # by this import, as by an earlier command), as a profiler wraps it, is the one that runs
    from extcalc import filecmds, textio

    called = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            called.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("parse_form_text", "_parse_rows", "symbolic"):
        monkeypatch.setattr(textio, name, counted(name, getattr(textio, name)))
    w = _write(tmp_path, "w.txt", "kform k=1\n3 : 1\n")
    frame = _write(tmp_path, "frame.txt", "1\n2\n3\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["print", w]) == main(["eval", w, frame]) == 0
    assert called == ["parse_form_text", "symbolic", "parse_form_text", "_parse_rows"]


def test_cli_alt_of_an_empty_huge_arity_object_is_immediate(tmp_path, capsys):
    # nothing to permute: neither 1000000! nor its float is ever formed
    for header in ("ktensor", "kform"):
        f = _write(tmp_path, "f.txt", f"{header} k=1000000\nzero k=1000000\n")
        t0 = time.perf_counter()
        assert main(["alt", f]) == 0
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr() == ("ktensor k=1000000\nzero k=1000000\n", "")


def test_cli_alt_counts_a_form_before_expanding_it(tmp_path, capsys, monkeypatch):
    # a one-term 9-form expands to 9! = 362,880 terms within the bound, but
    # alt would then permute each 9! ways: refused before the expansion
    def expand(w):
        raise AssertionError("the form was expanded before alt's bound was checked")

    # cmd_alt imports form_to_tensor from extcalc.forms when it runs
    monkeypatch.setattr(extcalc.forms, "form_to_tensor", expand)
    f = _write(tmp_path, "f.txt", "kform k=9\n" + " ".join(map(str, range(1, 10))) + " : 1\n")
    assert main(["alt", f]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: alt on arity 9: 362880 terms x 9! permutations = 131681894400"
        " exceeds the bound 1048576; refusing\n"
    )


def test_cli_d_default_demo(capsys):
    assert main(["d"]) == 0
    got = parse_form_text(capsys.readouterr().out)
    want = exterior_d(demo_two_form(), np.array([1.0, 2.0, 3.0, 4.0]))
    assert got.equals(want, 1e-12)


def test_cli_d_fd_route(capsys):
    assert main(["d", "--fd"]) == 0
    got = parse_form_text(capsys.readouterr().out)
    want = exterior_d(demo_two_form(), np.array([1.0, 2.0, 3.0, 4.0]))
    assert got.equals(want, 1e-6)


def test_cli_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("kform k=1\n2 : 3\n"))
    assert main(["print", "-"]) == 0
    assert capsys.readouterr().out == "+3 dx2\n"


@pytest.mark.parametrize(
    "argv, line",
    [(["print", "-"], "error: line 2: bad coefficient in '1 : nan'"),
     (["verify", "stokes", "--n", "2", "--a", "inf"], "error: need a finite number, got inf"),
     (["verify", "stokes", "--n", "2", "--a", "1e308"],
      "error: the closed form overflows at n = 2, a = 1e+308"),
     (["verify", "stokes", "--n", "3", "--m", "3", "--a", "1e100"],
      "error: the closed form overflows at n = 3, a = 1e+100")],
    ids=["argv0", "argv1", "argv2", "argv3"],
)
def test_cli_non_finite_numbers_exit_2(argv, line, monkeypatch, capsys):
    # NaN on stdin, or a finite --a whose closed form overflows
    monkeypatch.setattr(sys, "stdin", io.StringIO("kform k=1\n1 : nan\n"))
    assert main(argv) == 2
    assert capsys.readouterr() == ("", line + "\n")


def test_cli_floating_point_error_is_one_error_line():
    # numpy's overflow warnings must not precede the error message
    src = str(Path(extcalc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "extcalc.cli", "d", "--omega", "--at", "1e200", "1", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_cli_a_reader_that_closes_the_pipe_early_is_not_an_error(tmp_path):
    # more than 1 MB of output, far past a pipe's buffer (64 KB on Linux):
    # the writer is still writing when the reader stops after a few bytes
    rows = "".join(f"{i} {i + 1} {i + 2} : 1\n" for i in range(1, 60001))
    f = _write(tmp_path, "f.txt", "kform k=3\n" + rows)
    # buffered stdout, as by default: unbuffered, a write cut short by the
    # closed pipe returns its partial count and never raises
    src = str(Path(extcalc.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "extcalc.cli", "add", f, f],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(16) == b"kform k=3\n1 2 3 "
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0 and err == b""
    assert len(parse_form_text(Path(f).read_text()).scale(2.0).to_text()) > 2**20
    # results that fit the buffer or not, and help, written into a pipe whose reader closed
    # before the writer started, buffered or not: the --stats line is still written, once
    one = _write(tmp_path, "one.txt", "kform k=1\n1 : 1\n")
    mid = _write(tmp_path, "mid.txt", "kform k=3\n" + "".join(rows.splitlines(True)[:3081]))
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        for argv, stats in ((["print", one], []), (["verify", "stokes", "--n", "3"], []),
                            (["--stats", "print", one], ["print"]),
                            (["--stats", "verify", "stokes", "--n", "2"], ["verify stokes"]),
                            (["--stats", "add", mid, mid], ["add"]), (["--stats", "-h"], [])):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run([sys.executable, "-m", "extcalc.cli", *argv],
                                      stdout=write_end, stderr=subprocess.PIPE,
                                      env={**env, **unbuffered}, timeout=60)
            finally:
                os.close(write_end)
            lines = proc.stderr.splitlines()
            assert (proc.returncode, len(lines)) == (0, len(stats)), (argv, unbuffered, proc.stderr)
            assert [json.loads(line)["subcommand"] for line in lines] == stats


def test_cli_zap_env_default(tmp_path, monkeypatch, capsys):
    a = _write(tmp_path, "a.txt", "kform k=1\n1 : 1\n2 : 0.4\n")
    b = _write(tmp_path, "b.txt", "kform k=1\n1 : 1\n")
    monkeypatch.setenv("EXTERIOR_TOL", "0.5")
    assert main(["add", a, b, "--zap"]) == 0
    assert capsys.readouterr().out == "kform k=1\n1 : 2\n"
    # explicit value beats the environment
    assert main(["add", a, b, "--zap", "0.3"]) == 0
    assert capsys.readouterr().out == "kform k=1\n1 : 2\n2 : 0.4\n"
    # without --zap nothing is dropped
    assert main(["add", a, b]) == 0
    assert capsys.readouterr().out == "kform k=1\n1 : 2\n2 : 0.4\n"


def test_cli_nan_tolerance_exits_2(tmp_path, monkeypatch, capsys):
    # a NaN tolerance from the environment is refused as --zap nan is (a row of REFUSALS in
    # test_cli_contract.py): it would drop every term
    a = _write(tmp_path, "a.txt", "kform k=1\n1 : 1\n")
    monkeypatch.setenv("EXTERIOR_TOL", "nan")
    assert main(["add", a, a, "--zap"]) == 2
    assert capsys.readouterr() == ("", "error: a tolerance must be a number, got nan\n")


def test_cli_zap_cleans_pullback_noise(tmp_path, capsys):
    w = _write(tmp_path, "w.txt", "kform k=2\n2 4 : 2\n")
    rng = np.random.default_rng(0)
    M = rng.standard_normal((4, 4))
    back = np.linalg.inv(M)
    m1 = _write(tmp_path, "m1.txt", "\n".join(" ".join(map(str, r)) for r in M))
    m2 = _write(tmp_path, "m2.txt", "\n".join(" ".join(map(str, r)) for r in back))
    assert main(["pullback", w, m1]) == 0
    mid = capsys.readouterr().out
    p1 = _write(tmp_path, "mid.txt", mid)
    assert main(["pullback", p1, m2, "--zap", "1e-8"]) == 0
    got = parse_form_text(capsys.readouterr().out)
    assert got.equals(kform_from_rows([(2, 4)], [2.0]), 1e-8)


@pytest.mark.parametrize(
    "argv",
    [["print", "x"], ["eval", "x", "y"], ["wedge", "x", "y"], ["add", "x", "y"],
     ["contract", "x", "y"], ["pullback", "x", "y"], ["alt", "x"], ["d"],
     ["verify", "suite"]],
)
def test_cli_non_numeric_tol_env_exits_2(argv, monkeypatch, capsys):
    monkeypatch.setenv("EXTERIOR_TOL", "abc")
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: EXTERIOR_TOL must be a number, got 'abc'\n"


def test_cli_verify_ddzero(capsys):
    assert main(["verify", "ddzero"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True
    assert rep["analytic_max"] == 0.0


def test_cli_verify_det46(capsys):
    assert main(["verify", "det46"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True and rep["n"] == 9
    lhs_default = rep["lhs"]
    assert main(["verify", "det46", "--seed", "1", "--n", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True and rep["n"] == 5
    assert rep["lhs"] != lhs_default
    # every non-negative seed default_rng takes runs, past 64 bits too
    assert main(["verify", "det46", "--seed", str(2**64)]) == 0


def test_cli_verify_suite(capsys):
    assert main(["verify", "suite"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True
    assert len(rep["checks"]) == 14
    assert all(c["passed"] for c in rep["checks"])


def test_console_module_entry_point(tmp_path):
    # the child finds the same extcalc the tests import, installed or not
    src = str(Path(extcalc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "extcalc.cli", "verify", "det46", "--n", "4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_the_console_script_is_the_module_entry_point():
    # the installed `extcalc` ends its process as `python -m extcalc.cli` does, through
    # cli.run; pyproject.toml is read by a regex, since Python 3.10 has no tomllib
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    target = re.fullmatch(r'extcalc = "([\w.]+):(\w+)"', scripts.group(1).strip())
    assert target is not None, scripts.group(1)
    assert getattr(importlib.import_module(target.group(1)), target.group(2)) is cli.run
