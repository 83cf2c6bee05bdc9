"""CLI answers, taken in process through cli.main: GOLDENS is their one table.

Each row is an argv, its exit code and its exact stdout, and every row
writes nothing to stderr; test_cli_contract's _run runs it.  Its file
operands are named from tests/cli_inputs.py, every coefficient and every
frame, vector and matrix entry of those an integer, and the algebra
commands compute on Python floats, so each answer is the same on every
IEEE platform.  `verify stokes` also computes on Python floats but calls
the C library's pow through float `**`: its rows were taken with glibc
2.36, and CI's runners are the first check on another libm.  A row's
text changes only with a declared change of the output.  Builtin sum()
compensates float sums from Python 3.12 on, so a static check keeps it
off floats in extcalc: the digits would differ between interpreters.

README's CLI examples are rows here too, and test_readme.py holds each
shown output to its row.  The CLI's refusals are not here: REFUSALS in
test_cli_contract.py holds each one's exact stderr line.  A CLI answer
is tested in test_textio_cli.py instead when it needs a process, stdin
or an environment variable, a spy, a monkeypatch or a time bound, or a
tolerance, because numpy's SIMD sin and cos or BLAS set its digits.
"""

import ast
import collections
from pathlib import Path

import pytest

import extcalc
from test_cli_contract import _run

# argv (names of cli_inputs.FILES stand for their files' paths), exit code, stdout
GOLDENS = [
    (["print", "w2"], 0, "+ dx1^dx2 +3 dx1^dx3 -2 dx2^dx3\n"),
    (["print", "w2", "--style", "letters"], 0, "+ a^b +3 a^c -2 b^c\n"),
    (["print", "w2", "--style", "d"], 0, "+ dx1^dx2 +3 dx1^dx3 -2 dx2^dx3\n"),
    (["print", "w3"], 0, "+ dx1^dx2^dx3 +12 dx1^dx2^dx4 -5 dx2^dx3^dx4\n"),
    (["print", "w3", "--style", "letters"], 0, "+ a^b^c +12 a^b^d -5 b^c^d\n"),
    (["print", "t2"], 0, "+2 a*a -7 a*z - b*a + c*b\n"),
    (["print", "t2", "--style", "d"], 0, "+2 dx1*dx1 -7 dx1*dx26 - dx2*dx1 + dx3*dx2\n"),
    (["print", "w0"], 0, "- 4\n"),
    (["print", "w0", "--style", "letters"], 0, "- 4\n"),
    (["print", "wz"], 0, "0\n"),
    (["print", "t27", "--style", "d"], 0, "+3 dx1*dx27\n"),
    (["print", "K2", "--style", "d"], 0, "+ dx1^dx3 +2 dx2^dx4 +3 dx3^dx5 +4 dx4^dx6 +5 dx5^dx7\n"),
    (["add", "w2", "w2"], 0, "kform k=2\n1 2 : 2\n1 3 : 6\n2 3 : -4\n"),
    (["add", "t2", "t2"], 0, "ktensor k=2\n1 1 : 4\n1 26 : -14\n2 1 : -2\n3 2 : 2\n"),
    (["add", "w3", "w3", "--zap", "10"], 0, "kform k=3\n1 2 4 : 24\n"),
    (["add", "dx3", "w1a"], 0, "kform k=1\n3 : 1\n5 : 2\n"),
    (["wedge", "w1", "w2"], 0, "kform k=3\n1 2 3 : -4\n1 2 4 : -3\n1 3 4 : -9\n2 3 4 : 6\n"),
    (["wedge", "w0", "w3"], 0, "kform k=3\n1 2 3 : -4\n1 2 4 : -48\n2 3 4 : 20\n"),
    (["wedge", "w1", "w3"], 0, "kform k=4\n1 2 3 4 : -7\n"),
    # Spivak's worked example, K1 ^ K2 of the library tour
    (["wedge", "K1", "K2"], 0, "kform k=5\n1 3 4 5 6 : -21\n1 4 5 6 7 : -35\n"),
    (["eval", "w3", "e3"], 0, "-24\n"),
    (["eval", "w2", "e2"], 0, "-22\n"),
    (["eval", "w1s", "e10"], 0, "13\n"),
    (["eval", "dx3", "frame"], 0, "16\n"),
    # 2 E[1,1] E[1,2] + 3 E[2,1] E[1,2]
    (["eval", "t2a", "e2a"], 0, "32\n"),
    (["contract", "w3", "v"], 0,
     "kform k=2\n1 2 : -12\n1 3 : -2\n1 4 : -24\n2 3 : 6\n2 4 : 12\n3 4 : -10\n"),
    (["contract", "w3", "e3"], 0, "-24\n"),
    (["contract", "w3", "e3", "--keep-form"], 0, "kform k=0\n : -24\n"),
    (["contract", "dx12", "v2"], 0, "kform k=1\n1 : -1\n"),
    (["contract", "dx12", "e2b"], 0, "-1\n"),
    (["contract", "dx12", "e2b", "--keep-form"], 0, "kform k=0\n : -1\n"),
    (["pullback", "w1", "m"], 0, "kform k=1\n1 : -1\n2 : 4\n4 : -4\n"),
    (["pullback", "w2", "m"], 0,
     "kform k=2\n1 2 : -5\n1 3 : -5\n1 4 : -12\n2 4 : -13\n3 4 : -13\n"),
    (["pullback", "w3", "m"], 0, "kform k=3\n1 2 3 : -16\n1 2 4 : -189\n1 3 4 : -54\n2 3 4 : -9\n"),
    (["pullback", "w2a", "m3a"], 0, "kform k=2\n1 2 : -33\n1 3 : -66\n2 3 : -33\n"),
    (["alt", "t2"], 0,
     "ktensor k=2\n1 2 : 0.5\n1 26 : -3.5\n2 1 : -0.5\n2 3 : -0.5\n3 2 : 0.5\n26 1 : 3.5\n"),
    (["alt", "w2"], 0, "ktensor k=2\n1 2 : 1\n1 3 : 3\n2 1 : -1\n2 3 : -2\n3 1 : -3\n3 2 : 2\n"),
    (["alt", "t2b"], 0,
     "ktensor k=2\n1 2 : 0.5\n2 1 : -0.5\n2 3 : 1\n3 2 : -1\n3 4 : 1.5\n4 3 : -1.5\n"),
    # exact small integers, whatever numpy's SIMD sin and cos give
    (["d", "--field", "f1"], 0, "kform k=1\n1 : 24\n2 : 13\n3 : 35\n4 : 6\n"),
    (["d", "--omega", "--at", "1", "0"], 0, "kform k=1\n1 : -1\n2 : -1\n"),
    # the defaults at n = 2, and the benchmark's stokes-cube cases as it writes them
    (["verify", "stokes", "--n", "2"], 0,
     '{"n": 2, "a": 1.0, "m": 8, "boundary": 1.9999999999999993, "volume": 1.9999999999999996, '
     '"closed_form": 2.0, "err_bv": 2.220446049250313e-16, "err_vc": 4.440892098500626e-16}\n'),
    (["verify", "stokes", "--n", "3", "--a", "1.0", "--m", "8"], 0,
     '{"n": 3, "a": 1.0, "m": 8, "boundary": 2.999999999999998, "volume": 2.9999999999999973, '
     '"closed_form": 3.0, "err_bv": 4.440892098500626e-16, "err_vc": 2.6645352591003757e-15}\n'),
    (["verify", "stokes", "--n", "4", "--a", "1.0", "--m", "8"], 0,
     '{"n": 4, "a": 1.0, "m": 8, "boundary": 3.999999999999994, "volume": 3.9999999999999996, '
     '"closed_form": 4.0, "err_bv": 5.773159728050814e-15, "err_vc": 4.440892098500626e-16}\n'),
    (["verify", "stokes", "--n", "4", "--a", "0.5", "--m", "8"], 0,
     '{"n": 4, "a": 0.5, "m": 8, "boundary": 0.11718749999999988, "volume": 0.11718749999999986, '
     '"closed_form": 0.1171875, "err_bv": 1.3877787807814457e-17, '
     '"err_vc": 1.3877787807814457e-16}\n'),
    (["verify", "stokes", "--n", "5", "--a", "1.0", "--m", "6"], 0,
     '{"n": 5, "a": 1.0, "m": 6, "boundary": 4.99999999999998, "volume": 4.999999999999989, '
     '"closed_form": 5.0, "err_bv": 9.769962616701378e-15, "err_vc": 1.0658141036401503e-14}\n'),
    (["verify", "stokes", "--n", "6", "--a", "1.0", "--m", "4"], 0,
     '{"n": 6, "a": 1.0, "m": 4, "boundary": 5.99999999999999, "volume": 5.99999999999999, '
     '"closed_form": 6.0, "err_bv": 0.0, "err_vc": 9.769962616701378e-15}\n'),
    (["verify", "stokes", "--n", "3", "--a", "1", "--m", "8"], 0,
     '{"n": 3, "a": 1.0, "m": 8, "boundary": 2.999999999999998, "volume": 2.9999999999999973, '
     '"closed_form": 3.0, "err_bv": 4.440892098500626e-16, "err_vc": 2.6645352591003757e-15}\n'),
    # the quadrature error is real, so an absurd tolerance fails
    (["verify", "stokes", "--n", "3", "--tol", "1e-17"], 1,
     '{"n": 3, "a": 1.0, "m": 8, "boundary": 2.999999999999998, "volume": 2.9999999999999973, '
     '"closed_form": 3.0, "err_bv": 4.440892098500626e-16, "err_vc": 2.6645352591003757e-15}\n'),
]


@pytest.mark.parametrize("argv, code, stdout", GOLDENS, ids=["-".join(row[0]) for row in GOLDENS])
def test_golden(argv, code, stdout, files):
    assert _run([files.get(arg, arg) for arg in argv]) == (code, stdout, "")


def _builtin_sums(node, where: str):
    # the enclosing function, as module.qualname, of each call of the bare name sum below node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "sum":
            yield where
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _builtin_sums(child, f"{where}.{child.name}" if named else where)


def test_builtin_sum_adds_only_integers():
    # wedge sums the bits of a key and _parity counts inversions; a float sum runs left to
    # right, as stokes.closed_form_value does
    sums = collections.Counter(
        where for path in sorted(Path(extcalc.__file__).parent.glob("*.py"))
        for where in _builtin_sums(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    assert sums == {"forms.wedge": 2, "sparse._parity": 1}
