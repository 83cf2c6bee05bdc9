import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from extcalc import (
    ArityError,
    KForm,
    KTensor,
    ParseError,
    alt,
    exterior_d,
    demo_two_form,
    form_to_tensor,
    kform_from_rows,
    ktensor_from_rows,
    parse_form_text,
    parse_matrix_text,
    rform,
)
import extcalc
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


@pytest.mark.parametrize(
    "text",
    [
        "",
        "   \n# only comments\n",
        "junk k=2\n1 2 : 1\n",
        "kform\n1 2 : 1\n",
        "kform k=x\n1 2 : 1\n",
        "kform k=-1\nzero k=-1\n",
        "kform k=2\n",
        "kform k=2\n1 x : 3\n",
        "kform k=2\n1 2 : abc\n",
        "kform k=2\n0 2 : 1\n",
        "kform k=2\n1 2 1\n",
        "kform k=2\nzero k=3\n",
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_form_text(text)


def test_parse_arity_mismatch_carries_line_number():
    with pytest.raises(ArityError, match="line 3"):
        parse_form_text("kform k=2\n1 2 : 1\n1 2 3 : 1\n")


def test_parse_matrix_vector_and_matrix():
    v = parse_matrix_text("1 2 3\n")
    assert v.shape == (3,) and v[2] == 3.0
    M = parse_matrix_text("# frame\n1 2\n3 4\n")
    assert M.shape == (2, 2) and M[1, 0] == 3.0


@pytest.mark.parametrize("text", ["", "1 2\n3\n", "1 q\n"])
def test_parse_matrix_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_matrix_text(text)


@pytest.mark.parametrize("token", ["nan", "-inf", "Infinity", "1e999"])
def test_parse_rejects_non_finite_numbers_naming_the_line(token):
    with pytest.raises(ParseError, match="line 3"):
        parse_form_text(f"kform k=2\n1 2 : 1\n2 3 : {token}\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_matrix_text(f"1 2\n3 {token}\n")


# ---------------------------------------------------------------- cli

K1_TEXT = "kform k=3\n3 5 4 : 2\n4 6 1 : 7\n"
K2_TEXT = "kform k=2\n1 3 : 1\n2 4 : 2\n3 5 : 3\n4 6 : 4\n5 7 : 5\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_wedge_worked_example(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", K1_TEXT)
    b = _write(tmp_path, "b.txt", K2_TEXT)
    assert main(["wedge", a, b]) == 0
    out = capsys.readouterr().out
    assert out == "kform k=5\n1 3 4 5 6 : -21\n1 4 5 6 7 : -35\n"


def test_cli_add_and_eval(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", "kform k=1\n3 : 1\n")
    b = _write(tmp_path, "b.txt", "kform k=1\n5 : 2\n")
    assert main(["add", a, b]) == 0
    assert capsys.readouterr().out == "kform k=1\n3 : 1\n5 : 2\n"

    w = _write(tmp_path, "w.txt", "kform k=1\n3 : 1\n5 : 2\n")
    frame = _write(tmp_path, "frame.txt", "".join(f"{i}\n" for i in range(1, 11)))
    assert main(["eval", w, frame]) == 0
    assert capsys.readouterr().out == "13\n"


def test_cli_add_rejects_mixed_types(tmp_path, capsys):
    a = _write(tmp_path, "a.txt", "kform k=1\n3 : 1\n")
    b = _write(tmp_path, "b.txt", "ktensor k=1\n3 : 1\n")
    assert main(["add", a, b]) == 2
    assert "error:" in capsys.readouterr().err
    v = _write(tmp_path, "v.txt", "1\n0\n0\n")
    for argv, want in ((["wedge", a, b], "wedge needs two kform inputs"),
                       (["contract", b, v], "contract needs a kform input"),
                       (["pullback", b, v], "pullback needs a kform input")):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {want}\n"


def test_cli_eval_tensor(tmp_path, capsys):
    t = _write(tmp_path, "t.txt", "ktensor k=2\n1 1 : 2\n2 1 : 3\n")
    frame = _write(tmp_path, "e.txt", "1 4\n2 5\n")
    # 2*E[1,1]*E[1,2] + 3*E[2,1]*E[1,2]
    assert main(["eval", t, frame]) == 0
    assert capsys.readouterr().out == "32\n"


def test_cli_contract(tmp_path, capsys):
    w = _write(tmp_path, "w.txt", "kform k=2\n1 2 : 1\n")
    v = _write(tmp_path, "v.txt", "0 1\n")
    assert main(["contract", w, v]) == 0
    assert capsys.readouterr().out == "kform k=1\n1 : -1\n"

    V = _write(tmp_path, "V.txt", "0 1\n1 0\n")
    assert main(["contract", w, V]) == 0
    assert capsys.readouterr().out == "-1\n"
    assert main(["contract", w, V, "--keep-form"]) == 0
    assert capsys.readouterr().out == "kform k=0\n : -1\n"


def test_cli_pullback_worked_example(tmp_path, capsys):
    w = _write(tmp_path, "w.txt", "kform k=2\n1 2 : 1\n1 3 : 5\n")
    M = _write(tmp_path, "M.txt", "1 4 7\n2 5 8\n3 6 9\n")
    assert main(["pullback", w, M]) == 0
    out = capsys.readouterr().out
    assert out == "kform k=2\n1 2 : -33\n1 3 : -66\n2 3 : -33\n"


def test_cli_alt(tmp_path, capsys):
    t = _write(tmp_path, "t.txt", "ktensor k=2\n1 2 : 1\n2 3 : 2\n3 4 : 3\n")
    assert main(["alt", t]) == 0
    assert capsys.readouterr().out == (
        "ktensor k=2\n"
        "1 2 : 0.5\n"
        "2 1 : -0.5\n"
        "2 3 : 1\n"
        "3 2 : -1\n"
        "3 4 : 1.5\n"
        "4 3 : -1.5\n"
    )


def test_cli_alt_accepts_forms(tmp_path, capsys):
    f = _write(tmp_path, "f.txt", "kform k=2\n1 2 : 1\n")
    assert main(["alt", f]) == 0
    got = parse_form_text(capsys.readouterr().out)
    assert got == alt(form_to_tensor(kform_from_rows([(1, 2)])))


def test_cli_alt_refuses_large_form_before_expanding(tmp_path, capsys):
    f = _write(tmp_path, "f.txt", "kform k=11\n" + " ".join(map(str, range(1, 12))) + " : 1\n")
    t0 = time.perf_counter()
    assert main(["alt", f]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "exceeds the bound 1048576; refusing" in capsys.readouterr().err
    # a one-term 7-form expands to 7! terms, each of which alt would
    # permute 7! ways; a one-term 10-tensor alone takes 10! permutations
    for header, k in (("kform", 7), ("ktensor", 10)):
        body = " ".join(map(str, range(1, k + 1)))
        f = _write(tmp_path, "f.txt", f"{header} k={k}\n{body} : 1\n")
        t0 = time.perf_counter()
        assert main(["alt", f]) == 2
        assert time.perf_counter() - t0 < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: alt on arity {k}:") and "exceeds the bound" in err


def test_cli_d_default_demo(capsys):
    assert main(["d"]) == 0
    got = parse_form_text(capsys.readouterr().out)
    want = exterior_d(demo_two_form(), np.array([1.0, 2.0, 3.0, 4.0]))
    assert got.equals(want, 1e-12)


def test_cli_d_field_gradient(capsys):
    assert main(["d", "--field", "f1"]) == 0
    assert capsys.readouterr().out == "kform k=1\n1 : 24\n2 : 13\n3 : 35\n4 : 6\n"


def test_cli_d_fd_route(capsys):
    assert main(["d", "--fd"]) == 0
    got = parse_form_text(capsys.readouterr().out)
    want = exterior_d(demo_two_form(), np.array([1.0, 2.0, 3.0, 4.0]))
    assert got.equals(want, 1e-6)


def test_cli_d_omega(capsys):
    assert main(["d", "--omega", "--at", "1", "0"]) == 0
    assert capsys.readouterr().out == "kform k=1\n1 : -1\n2 : -1\n"


def test_cli_print_styles(tmp_path, capsys):
    f = _write(tmp_path, "f.txt", "kform k=2\n1 2 : 1\n1 3 : 2\n2 3 : 3\n")
    assert main(["print", f]) == 0
    assert capsys.readouterr().out == "+ dx1^dx2 +2 dx1^dx3 +3 dx2^dx3\n"
    assert main(["print", f, "--style", "letters"]) == 0
    assert capsys.readouterr().out == "+ a^b +2 a^c +3 b^c\n"

    t = _write(tmp_path, "t.txt", "ktensor k=2\n1 2 : 1\n2 3 : 2\n3 4 : 3\n4 5 : 4\n")
    assert main(["print", t]) == 0
    assert capsys.readouterr().out == "+ a*b +2 b*c +3 c*d +4 d*e\n"


def test_cli_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("kform k=1\n2 : 3\n"))
    assert main(["print", "-"]) == 0
    assert capsys.readouterr().out == "+3 dx2\n"


@pytest.mark.parametrize(
    "argv",
    [["print", "-"], ["verify", "stokes", "--n", "2", "--a", "inf"],
     ["verify", "stokes", "--n", "2", "--a", "1e308"],
     ["verify", "stokes", "--n", "3", "--m", "3", "--a", "1e100"]],
)
def test_cli_non_finite_numbers_exit_2(argv, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("kform k=1\n1 : nan\n"))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [["eval", "big2", "m10"], ["pullback", "big2", "m10"], ["wedge", "big1", "ten1"],
     ["contract", "big1", "v10"], ["contract", "big2", "v10", "--keep-form"],
     ["d", "--omega", "--at", "1e200", "1", "1"], ["d", "--at", "nan", "2", "3", "4"],
     ["d", "--omega", "--at", "inf", "1"], ["d", "--field", "f1", "--at", "1", "inf", "3", "4"],
     ["d", "--at", "1e200", "1", "1", "1"], ["d", "--omega", "--at", "1e-100", "1e-100", "1e-100"],
     ["verify", "det46", "--n", "300"], ["verify", "stokes", "--n", "3", "--m", "3", "--a", "1e100"]],
)
def test_cli_non_finite_results_exit_2(argv, tmp_path, capsys):
    # finite input whose result overflows, or a non-finite point: no
    # nan/inf may reach the text output
    files = {
        "big2": "kform k=2\n1 2 : 1e308\n",
        "big1": "kform k=1\n1 : 1e308\n",
        "ten1": "kform k=1\n2 : 10\n",
        "m10": "10 0\n0 10\n",
        "v10": "10\n0\n",
    }
    argv = [_write(tmp_path, a + ".txt", files[a]) if a in files else a for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:")


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


def test_cli_closed_form_overflow_is_one_error_line(capsys):
    assert main(["verify", "stokes", "--n", "2", "--a", "1e308"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the closed form overflows at n = 2, a = 1e+308\n"


@pytest.mark.parametrize(
    "argv, message",
    [(["d", "--at", "1", "2"], "point has dimension 2 but wedge indices reach 4"),
     (["d", "--field", "f1", "--at", "1", "2"], "R^4, got a point in R^2"),
     (["d", "--at", "1", "2", "3", "4", "5"], "R^4, got a point in R^5"),
     (["d", "--fd", "--field", "f2", "--at", "1", "2", "3"], "R^4, got a point in R^3"),
     (["verify", "ddzero", "--at", "1", "2", "3", "4", "5"], "R^4, got a point in R^5"),
     (["verify", "ddzero", "--at", "1", "2"], "point has dimension 2 but wedge indices reach 4")],
)
def test_cli_demo_fields_outside_r4_exit_2(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


@pytest.mark.parametrize("argv", [["--n", "6", "--m", "50"], ["--n", "2", "--m", "100000"]])
def test_cli_verify_stokes_refuses_too_many_nodes_at_once(argv, capsys):
    t0 = time.perf_counter()
    assert main(["verify", "stokes", *argv]) == 2
    assert time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "bound" in err


@pytest.mark.parametrize("n", ["144", str(10**12)])
def test_cli_det46_refuses_large_n_before_allocating(n, capsys):
    t0 = time.perf_counter()
    assert main(["verify", "det46", "--n", n]) == 2
    assert time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "--n <= 143" in err


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
    # a NaN tolerance would drop every term (zap) or fail every
    # comparison (verify stokes); it is refused instead
    a = _write(tmp_path, "a.txt", "kform k=1\n1 : 1\n")
    b = _write(tmp_path, "b.txt", "kform k=1\n2 : 1\n")
    for argv in (["wedge", a, b, "--zap", "nan"], ["add", a, b, "--zap", "nan"],
                 ["verify", "stokes", "--n", "2", "--tol", "nan"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: a tolerance must be a number, got nan\n"
    monkeypatch.setenv("EXTERIOR_TOL", "nan")
    assert main(["add", a, b, "--zap"]) == 2
    assert capsys.readouterr().out == ""


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


def test_cli_parse_failure_exits_2(tmp_path, capsys):
    bad = _write(tmp_path, "bad.txt", "kform k=2\n1 2 : oops\n")
    assert main(["print", bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2" in err


def test_cli_missing_file_exits_2(capsys):
    assert main(["print", "/nonexistent/z.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_usage_error_is_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["print", "x"], ["eval", "x", "y"], ["wedge", "x", "y"], ["add", "x", "y"],
     ["contract", "x", "y"], ["pullback", "x", "y"], ["alt", "x"], ["d"],
     ["verify", "suite"]],
)
def test_cli_non_numeric_tol_env_exits_2(argv, monkeypatch, capsys):
    monkeypatch.setenv("EXTERIOR_TOL", "abc")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "EXTERIOR_TOL" in err


def test_cli_verify_stokes(capsys):
    assert main(["verify", "stokes", "--n", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["closed_form"] == 3.0
    assert rep["err_bv"] < 1e-8 and rep["err_vc"] < 1e-8
    # quadrature error is real, so an absurd tolerance must fail
    assert main(["verify", "stokes", "--n", "3", "--tol", "1e-17"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["err_bv"] > 0.0


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
