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
    script += f"\nimport sys, json\nprint(json.dumps([m for m in {modules!r} if m in sys.modules]))\n"
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


def test_verify_stokes_loads_four_extcalc_modules():
    # the example pair needs only KForm's key rule, from sparse: forms, tensors, textio and
    # checks stay unloaded
    package = Path(extcalc.__file__).parent
    every = ["extcalc"] + [f"extcalc.{p.stem}" for p in sorted(package.glob("[!_]*.py"))]
    commands = [["verify", "stokes", "--n", str(n), "--m", "3"] for n in range(2, 7)]
    assert _loaded_after(_run_quietly(commands), every) == [
        "extcalc", "extcalc.cli", "extcalc.derivatives", "extcalc.sparse", "extcalc.stokes"]


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


def test_d_loads_the_field_layer_and_the_algebra_it_calls():
    # the field layer signs its index rows through forms._canonical_rows and reads its point
    # through the tensors gate; the Stokes quadrature, the parser and the suite stay unloaded
    package = Path(extcalc.__file__).parent
    every = ["extcalc"] + [f"extcalc.{p.stem}" for p in sorted(package.glob("[!_]*.py"))]
    commands = [["d"], ["d", "--fd"], ["d", "--field", "f1"],
                ["d", "--omega", "--at", "1", "2", "3"]]
    assert _loaded_after(_run_quietly(commands), every) == [
        "extcalc", "extcalc.cli", "extcalc.derivatives", "extcalc.forms", "extcalc.sparse",
        "extcalc.tensors"]
