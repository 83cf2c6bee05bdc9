"""Import hygiene: each command loads only the modules it calls.

The text subcommands (print, add, wedge, alt), eval, contract,
pullback of degree 3 or less and verify stokes compute on Python floats
and must run without numpy; `import extcalc` itself loads no submodule.
Both are checked in a fresh interpreter, since the test process has
long since imported everything.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import extcalc

HEAVY = ["numpy", "extcalc.derivatives", "extcalc.stokes", "extcalc.checks"]


def _loaded_after(script: str, modules=HEAVY) -> list:
    # run script in a fresh interpreter; -> those of `modules` it loaded, in their order
    src = str(Path(extcalc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # the list is taken before the report's own import of json, so json can be one of `modules`
    script += (f"\nimport sys\nloaded = [m for m in {modules!r} if m in sys.modules]\n"
               "import json\nprint(json.dumps(loaded))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _run_quietly(argv_list) -> str:
    # a script running each argv through main with stdout discarded, asserting exit 0
    return (
        "import contextlib, io\n"
        "from extcalc.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {argv_list!r}]\n"
        "assert codes == [0] * len(codes), codes\n"
    )


def test_import_extcalc_loads_no_heavy_module():
    assert _loaded_after("import extcalc") == []


def test_text_subcommands_run_without_numpy(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    t = tmp_path / "t.txt"
    a.write_text("kform k=1\n1 : 2\n2 : -1\n")
    b.write_text("kform k=2\n2 3 : 0.5\n")
    t.write_text("ktensor k=2\n1 2 : 3\n")
    commands = [["print", str(a)], ["add", str(a), str(a), "--zap"], ["wedge", str(a), str(b)],
                ["alt", str(t)], ["alt", str(b)]]
    assert _loaded_after(_run_quietly(commands)) == []


def test_kform_general_runs_without_numpy():
    script = "from extcalc import kform_general\nassert len(kform_general(3, 2)) == 3\n"
    assert _loaded_after(script) == []


def test_eval_contract_and_small_pullbacks_run_without_numpy(tmp_path):
    # minors through 3x3 are cofactor expansions on Python floats
    w = tmp_path / "w.txt"
    t = tmp_path / "t.txt"
    m = tmp_path / "m.txt"
    e = tmp_path / "e.txt"
    w.write_text("kform k=3\n1 2 3 : 2\n2 3 4 : -1\n")
    t.write_text("ktensor k=3\n1 2 4 : 3\n")
    m.write_text("1 2 0 1\n3 4 1 0\n0 1 2 3\n1 0 0 2\n")
    e.write_text("1 0 2\n0 1 1\n2 1 0\n1 1 1\n")
    commands = [["eval", str(w), str(e)], ["eval", str(t), str(e)],
                ["contract", str(w), str(e)], ["contract", str(w), str(e), "--keep-form"],
                ["pullback", str(w), str(m)]]
    assert _loaded_after(_run_quietly(commands)) == []


def test_verify_stokes_runs_without_numpy():
    # the rule, the nodes and the sums are Python floats
    commands = [["verify", "stokes", "--n", str(n), "--m", "3"] for n in range(2, 7)]
    assert _loaded_after(_run_quietly(commands)) == ["extcalc.derivatives", "extcalc.stokes"]


def test_numeric_subcommand_loads_numpy_but_not_unused_layers(tmp_path):
    # a degree-4 pullback takes its minors from numpy.linalg.det stacks
    w = tmp_path / "w.txt"
    m = tmp_path / "m.txt"
    w.write_text("kform k=4\n1 2 3 4 : 2\n")
    m.write_text("1 2 0 1\n3 4 1 0\n0 1 2 3\n1 0 0 2\n")
    assert _loaded_after(_run_quietly([["pullback", str(w), str(m)]])) == ["numpy"]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from extcalc import *", namespace)
    for name in extcalc.__all__:
        module = importlib.import_module(f"extcalc.{extcalc._MODULE_OF[name]}")
        assert namespace[name] is getattr(module, name)
        assert getattr(extcalc, name) is getattr(module, name)
    assert set(extcalc.__all__) <= set(dir(extcalc))
    assert len(set(extcalc.__all__)) == len(extcalc.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        extcalc.frobnicate
    assert not hasattr(extcalc, "numpy")


def test_stokes_and_derivatives_import_without_dataclasses():
    # the four records are plain __slots__ classes; dataclasses pulls in inspect (about 9 ms),
    # and the annotations are never evaluated, so nothing needs typing.  -S keeps site's own
    # imports out of the count
    src = str(Path(extcalc.__file__).resolve().parents[1])
    script = ("import sys, extcalc.stokes\n"
              "print([m in sys.modules for m in ('dataclasses', 'inspect', 'typing')])\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False]"


def _defined(obj, module) -> bool:
    # a function or class the module defines, a cached function (functools.cache) included
    return (isinstance(obj, (type, types.FunctionType)) or hasattr(obj, "__wrapped__")) and (
        getattr(obj, "__module__", None) == module.__name__)


def _defined_callables(module):
    # (qualified name, object) of each function and class the module defines, and of each
    # method, static or class method and property getter those classes define
    for name, obj in vars(module).items():
        if not _defined(obj, module):
            continue
        yield name, obj
        for attr, member in vars(obj).items() if isinstance(obj, type) else ():
            member = getattr(member, "__func__", getattr(member, "fget", member))
            if _defined(member, module):
                yield f"{name}.{attr}", member


def test_every_annotation_resolves():
    # typing.get_type_hints evaluates each annotation string in its module's namespace, as
    # documentation tools and type checkers do: a name the module never binds raises NameError
    import typing

    package = Path(extcalc.__file__).parent
    unresolved = []
    for path in sorted(package.glob("*.py")):
        name = "extcalc" if path.stem == "__init__" else f"extcalc.{path.stem}"
        for qualname, obj in _defined_callables(importlib.import_module(name)):
            try:
                typing.get_type_hints(obj)
            except NameError as exc:
                unresolved.append(f"{name}.{qualname}: {exc}")
    assert unresolved == []


def _every_module() -> list:
    package = Path(extcalc.__file__).parent
    return ["extcalc"] + [f"extcalc.{p.stem}" for p in sorted(package.glob("[!_]*.py"))]


# what each command of the benchmark's workloads loads, alone in a fresh interpreter.  The
# parser reads through sparse alone, and the algebra of extcalc.forms reads its frames, vectors
# and matrices through the array gate, as the field layer reads its point.  print renders with
# the parser's module, and verify ddzero runs beside dd_check, so neither loads forms;
# verify stokes needs only KForm's key rule, from sparse; only verify suite loads checks.  numpy
# loads for minors from 4x4 up, the field layer's derivatives and the seeded checks; json only
# to write a report
_TEXT = ["extcalc", "extcalc.cli", "extcalc.sparse", "extcalc.textio"]
_ALGEBRA = ["extcalc", "extcalc.arrays", "extcalc.cli", "extcalc.forms", "extcalc.sparse",
            "extcalc.textio"]
_KTENSOR = ["extcalc", "extcalc.arrays", "extcalc.cli", "extcalc.sparse", "extcalc.tensors",
            "extcalc.textio"]
_FIELD = ["extcalc", "extcalc.arrays", "extcalc.cli", "extcalc.derivatives", "extcalc.sparse",
          "numpy"]
_STOKES = ["extcalc", "extcalc.cli", "extcalc.derivatives", "extcalc.sparse", "extcalc.stokes",
           "json"]
_ALGEBRA_ROWS = {
    "print": (["print", "w3"], _TEXT),
    "print-0-form": (["print", "w0"], _TEXT),
    "print-ktensor": (["print", "t"], _KTENSOR),
    "add": (["add", "w3", "w3", "--zap"], _TEXT),
    "eval": (["eval", "w3", "e"], _ALGEBRA),
    "contract": (["contract", "w3", "e"], _ALGEBRA),
    "wedge": (["wedge", "w1", "w3"], _ALGEBRA),
    "pullback-k3": (["pullback", "w3", "m"], _ALGEBRA),
    "pullback-k4": (["pullback", "w4", "m"], _ALGEBRA + ["numpy"]),
    "add-ktensor": (["add", "t", "t"], _KTENSOR),
    "eval-ktensor": (["eval", "t", "e"], _KTENSOR),
    "d": (["d"], _FIELD),
    "d-fd": (["d", "--fd"], _FIELD),
    "d-field": (["d", "--field", "f1"], _FIELD),
    "d-omega": (["d", "--omega", "--at", "1", "2", "3"], _FIELD),
    **{f"verify-stokes-n{n}": (["verify", "stokes", "--n", str(n), "--m", "3"], _STOKES)
       for n in range(2, 7)},
    "verify-ddzero": (["verify", "ddzero"], _FIELD + ["json"]),
    "verify-det46": (["verify", "det46"], ["extcalc", "extcalc.arrays", "extcalc.cli",
                                           "extcalc.derivatives", "extcalc.forms",
                                           "extcalc.sparse", "extcalc.stokes", "numpy", "json"]),
    "verify-suite": (["verify", "suite"], ["extcalc", "extcalc.arrays", "extcalc.checks",
                                           "extcalc.cli", "extcalc.derivatives", "extcalc.forms",
                                           "extcalc.sparse", "extcalc.stokes", "extcalc.tensors",
                                           "numpy", "json"]),
}


def _algebra_files(tmp_path) -> dict:
    texts = {"w0": "kform k=0\n : -3\n", "w1": "kform k=1\n1 : 2\n4 : -0.5\n",
             "w3": "kform k=3\n1 2 3 : 2\n2 3 4 : -1\n",
             "w4": "kform k=4\n1 2 3 4 : 2\n", "t": "ktensor k=3\n1 2 4 : 3\n3 3 1 : 0.25\n",
             "e": "1 0 2\n0 1 1\n2 1 0\n1 1 1\n",
             "m": "1 2 0 1\n3 4 1 0\n0 1 2 3\n1 0 0 2\n"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in texts}


@pytest.mark.parametrize("row", _ALGEBRA_ROWS, ids=_ALGEBRA_ROWS)
def test_each_algebra_command_loads_exactly_its_modules(row, tmp_path):
    # the exact extcalc modules, numpy and json one command loads: textio only for a file,
    # tensors only for a ktensor file, and checks only for the suite
    argv, modules = _ALGEBRA_ROWS[row]
    paths = _algebra_files(tmp_path)
    command = [paths.get(arg, arg) for arg in argv]
    assert _loaded_after(_run_quietly([command]), _every_module() + ["numpy", "json"]) == modules


def test_a_ktensor_file_still_parses_and_adds(tmp_path):
    # the parser imports KTensor for a ktensor header only: a kform sum leaves tensors unloaded,
    # and a ktensor sum then loads it and writes a tensor's text
    paths = _algebra_files(tmp_path)
    script = ("import contextlib, io, sys\nfrom extcalc.cli import main\n"
              "def add(path):\n    out = io.StringIO()\n"
              "    with contextlib.redirect_stdout(out):\n"
              "        assert main(['add', path, path]) == 0\n    return out.getvalue()\n"
              f"assert add({paths['w3']!r}) == 'kform k=3\\n1 2 3 : 4\\n2 3 4 : -2\\n'\n"
              "assert 'extcalc.tensors' not in sys.modules\n"
              f"assert add({paths['t']!r}) == 'ktensor k=3\\n1 2 4 : 6\\n3 3 1 : 0.5\\n'\n")
    assert _loaded_after(script, ["extcalc.tensors"]) == ["extcalc.tensors"]


def test_plain_command_lines_load_no_argparse(tmp_path):
    # the table parser reads every command line of the plain shape, so argparse, its gettext
    # and locale stay unloaded, also where numpy loads (pullback of degree 4, d, verify suite)
    paths = _algebra_files(tmp_path)
    commands = [["print", "w3"], ["add", "w3", "w3"], ["eval", "w3", "e"], ["contract", "w3", "e"],
                ["wedge", "w1", "w3"], ["pullback", "w3", "m"], ["pullback", "w4", "m"],
                ["verify", "stokes", "--n", "3", "--a", "0.5", "--m", "3"], ["verify", "suite"],
                ["d", "--omega", "--at", "1", "2", "3"]]
    script = _run_quietly([[paths.get(arg, arg) for arg in argv] for argv in commands])
    assert _loaded_after(script, ["argparse", "gettext", "locale"]) == []


def test_an_abbreviated_option_still_reaches_argparse():
    # argparse alone reads --t as --tol, and the report is the one --tol writes
    script = ("import contextlib, io, sys\nfrom extcalc.cli import main\n"
              "def run(argv):\n    out = io.StringIO()\n"
              "    with contextlib.redirect_stdout(out):\n"
              "        assert main(['verify', 'stokes', *argv]) == 0\n    return out.getvalue()\n"
              "report = run(['--tol', '1e-9'])\nassert 'argparse' not in sys.modules\n"
              "assert run(['--t', '1e-9']) == report and report.startswith('{\"n\": 3, ')\n")
    assert _loaded_after(script, ["argparse"]) == ["argparse"]
