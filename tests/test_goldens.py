"""Golden digests of CLI answers, taken in process through cli.main.

Each row is an argv, its exit code and the sha256 of its stdout and of
its stderr.  The file operands are the small inline files below, every
coefficient and every frame, vector and matrix entry an integer, and the
algebra commands compute on Python floats, so each digest is the same
on every IEEE platform.  `verify stokes` also computes on Python floats
but calls the C library's pow through float `**`: its digests were
taken with glibc 2.36, and CI's runners are the first check on another
libm.  A row's digest changes only with a declared change of the output.
Builtin sum() compensates float sums from Python 3.12 on, so a static
check keeps it off floats in extcalc: the digits would differ between
interpreters.
The CLI's refusals are not here: REFUSALS in test_cli_contract.py holds
each one's exact stderr line.
"""

import ast
import collections
import contextlib
import hashlib
import io
from pathlib import Path

import pytest

import extcalc
from extcalc.cli import main

FILES = {
    "w2": "kform k=2\n2 1 : -1\n1 3 : 3\n2 3 : -2\n3 3 : 7\n",
    "w3": "kform k=3\n1 2 3 : 1\n2 3 4 : -5\n1 2 4 : 12\n",
    "t2": "ktensor k=2\n1 1 : 2\n2 1 : -1\n3 2 : 1\n1 26 : -7\n",
    "w0": "kform k=0\n : -4\n",
    "wz": "kform k=2\nzero k=2\n",
    "t27": "ktensor k=2\n1 27 : 3\n",
    "w1": "kform k=1\n1 : 2\n4 : -3\n",
    "e2": "1 2\n0 -1\n3 1\n",
    "e3": "1 0 2\n0 1 1\n2 1 0\n1 1 1\n",
    "v": "1\n2\n0\n-1\n",
    "m": "1 2 0 1\n3 4 1 0\n0 1 2 3\n1 0 0 2\n",
}

# the digest of an empty stream
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# argv (file names stand for their paths), exit code, sha256 of stdout, sha256 of stderr
GOLDENS = [
    (["print", "w2"], 0,
     "ff862752d4f6d3f904f60c24c426282a4c9d16acc4e4687108467e29c59adb20", EMPTY),
    (["print", "w2", "--style", "letters"], 0,
     "193c752d773926dd7ad1f612145c8ff84e5113cc4996906d583c8081126814cf", EMPTY),
    (["print", "w2", "--style", "d"], 0,
     "ff862752d4f6d3f904f60c24c426282a4c9d16acc4e4687108467e29c59adb20", EMPTY),
    (["print", "w3"], 0,
     "156ac8618ec2fef3463742e9e6fb9378aa22f9e714f24483562469dbc41f4ad6", EMPTY),
    (["print", "w3", "--style", "letters"], 0,
     "ba817418ba7759cdd108c1ab8043da3a6d0ec917c87072b09c723d462104de39", EMPTY),
    (["print", "t2"], 0,
     "22dae8dbaa9f9357cd0f2f95473abffadaa62cab96474abd8eb83f4074ec920e", EMPTY),
    (["print", "t2", "--style", "d"], 0,
     "02d37a63b94bc90b463220fcbb20a0bbf115a50822857debd67e77031d702b15", EMPTY),
    (["print", "w0"], 0,
     "500e632c68b31012f661f468ab0686fabb0af009380adb9561aef30652142519", EMPTY),
    (["print", "w0", "--style", "letters"], 0,
     "500e632c68b31012f661f468ab0686fabb0af009380adb9561aef30652142519", EMPTY),
    (["print", "wz"], 0,
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa", EMPTY),
    (["print", "t27", "--style", "d"], 0,
     "285b0a4cb1a35f94aae63613f12fcd8b2151db6613e782ace8cba1665fe8564e", EMPTY),
    (["add", "w2", "w2"], 0,
     "5411518296a6ce404893c81c888a3be7ff611253075d77f47c0716b22d02c21b", EMPTY),
    (["add", "t2", "t2"], 0,
     "c0db1f2b7e9e1af47d80724f9894cddcea91c8917595cf735f5cfc832898e09a", EMPTY),
    (["add", "w3", "w3", "--zap", "10"], 0,
     "644afd3ab02ea65b9647d0d21898bfeb806eea9a15de2ff5dac670e8fc0a53d9", EMPTY),
    (["wedge", "w1", "w2"], 0,
     "7f1f96ded90d192dd0d523e3e4d6629fe3d0c7c0107f02e2776e97dac8554ab2", EMPTY),
    (["wedge", "w0", "w3"], 0,
     "49a2e4f041448d01816ec215a1897566dcc8634a12c364c4534392fe68b80534", EMPTY),
    (["wedge", "w1", "w3"], 0,
     "0b2d343dbfdc80c13afc44c2da6658b69882333c9d5b9ff4344f4737bbea8ff8", EMPTY),
    (["eval", "w3", "e3"], 0,
     "e13e8b54c5d4e113a5e0f8eb2b59702b143743db40fabccb2c1d6695160a952b", EMPTY),
    (["eval", "w2", "e2"], 0,
     "d3efadfafd8abcff38ccddb358a9c4fca6a773b8bd3fa778482e6de7836203dc", EMPTY),
    (["contract", "w3", "v"], 0,
     "3ec0002cba597bf2c28dcace704ec8c8c8bec84021e69a85b97e34e9628913c6", EMPTY),
    (["contract", "w3", "e3"], 0,
     "e13e8b54c5d4e113a5e0f8eb2b59702b143743db40fabccb2c1d6695160a952b", EMPTY),
    (["contract", "w3", "e3", "--keep-form"], 0,
     "d021522cf7597a5e84889954ac2f5e5527889772e63be7334df66b6646c6bc5b", EMPTY),
    (["pullback", "w1", "m"], 0,
     "b744659714e0dc5b33d2e869ab8e7001a0d99b4b5848705a86df11f08118207e", EMPTY),
    (["pullback", "w2", "m"], 0,
     "fe6d40c4168093df98b5040c1caafd2e03a4c01ee13e6b9b5678994b6308a4fd", EMPTY),
    (["pullback", "w3", "m"], 0,
     "744b9d799181a5a755b31183c51bb7d7139becee3aa407605b660033b656f7d7", EMPTY),
    (["alt", "t2"], 0,
     "253bc2bf42cfffc9c4ceba09d6f7e17913acdcf44d1922521be9ff632432fb12", EMPTY),
    (["alt", "w2"], 0,
     "bc01f7d4f4dbe14edf1eea250ee15147f75e122039339d43acbc749f484ba889", EMPTY),
    # the defaults at n = 2, and the benchmark's stokes-cube cases as it writes them
    (["verify", "stokes", "--n", "2"], 0,
     "ee6b757685ddef506e5fd8053eef26d7dd7f7240a464e20fa33a34b5b3ebd1ec", EMPTY),
    (["verify", "stokes", "--n", "3", "--a", "1.0", "--m", "8"], 0,
     "90786517b5105f4b9bd2170eec08925e453f16e3a5042d7ae00a64c0df4c9c19", EMPTY),
    (["verify", "stokes", "--n", "4", "--a", "1.0", "--m", "8"], 0,
     "b17f2155f246642a3c4d7495339ad6b5ee49d48a33743453ef732c1f22196a3a", EMPTY),
    (["verify", "stokes", "--n", "4", "--a", "0.5", "--m", "8"], 0,
     "2dffc1fe22c44d865e87a38a4242c0ef9da8e1eb60348b8949faf2ebc72fe664", EMPTY),
    (["verify", "stokes", "--n", "5", "--a", "1.0", "--m", "6"], 0,
     "01ab3d02e1b2a3854fef67c22e61bf945f83b543d66281d6edf4bdd11aca815a", EMPTY),
    (["verify", "stokes", "--n", "6", "--a", "1.0", "--m", "4"], 0,
     "5ebba5798b2136cb30c9c3ed393406b820fe401e25eba86aaf23aedf93a3ead8", EMPTY),
]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, code, out_sha, err_sha", GOLDENS,
                         ids=["-".join(row[0]) for row in GOLDENS])
def test_golden(argv, code, out_sha, err_sha, tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        got = main([str(tmp_path / arg) if arg in FILES else arg for arg in argv])
    assert (got, _digest(out.getvalue()), _digest(err.getvalue())) == (code, out_sha, err_sha)


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
