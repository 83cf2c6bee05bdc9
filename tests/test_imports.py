"""Import hygiene: each command loads only the modules it calls.

_ALGEBRA_ROWS is the one record of what a command loads: the exact
extcalc modules and numpy of each command line in it.  Each row runs
alone in a fresh interpreter, since the test process has long since
imported everything, and under -S, which keeps site's own imports out.
Every row also keeps one shared rule: argparse, gettext, locale and json
never load, and a run without numpy loads none of typing, inspect and
dataclasses.  `import extcalc` itself loads no submodule.  The rows
also justify each lazy import: an import inside a function of an extcalc
module that names an extcalc module or numpy must keep that module out
of some row that loads the enclosing one; any other goes at the top.
"""

import ast
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import extcalc

# -S leaves site-packages off sys.path, so the child reads the source tree and the directory
# numpy is installed in from PYTHONPATH
_PATH = os.pathsep.join([str(Path(extcalc.__file__).resolve().parents[1]),
                         str(Path(importlib.util.find_spec("numpy").origin).parents[1])])
# the table parser reads every plain command line, so argparse, its gettext and locale never
# load, and cli writes each report itself, so json never does; numpy imports typing and inspect
# itself, so only a run without numpy must leave these three unloaded (the records are
# __slots__ classes, and no annotation is ever evaluated)
_NEVER = ["argparse", "gettext", "locale", "json"]
_NOT_WITHOUT_NUMPY = ["typing", "inspect", "dataclasses"]
_RULE = _NEVER + _NOT_WITHOUT_NUMPY


def _every_module() -> list:
    package = Path(extcalc.__file__).parent
    return ["extcalc"] + [f"extcalc.{p.stem}" for p in sorted(package.glob("[!_]*.py"))]


def _loaded_after(script: str) -> list:
    # run script in a fresh `python -S`, within 60 s; -> the modules it loaded of every extcalc
    # module, numpy and the rule's seven, in that order.  The report imports nothing
    watched = _every_module() + ["numpy"] + _RULE
    script += f"\nimport sys\nprint(*[m for m in {watched!r} if m in sys.modules])\n"
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": _PATH}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def _run_quietly(argv: list) -> str:
    # a script running argv through main with stdout discarded, asserting exit 0
    return ("import contextlib, io\nfrom extcalc.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\nassert code == 0, code\n")


def test_import_extcalc_loads_no_heavy_module():
    assert _loaded_after("import extcalc") == ["extcalc"]


def test_kform_general_runs_without_numpy():
    script = "from extcalc import kform_general\nassert len(kform_general(3, 2)) == 3\n"
    assert _loaded_after(script) == ["extcalc", "extcalc.arrays", "extcalc.forms",
                                     "extcalc.rules", "extcalc.sparse"]


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
    assert not hasattr(extcalc, "numpy")


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


# what each command loads, alone in a fresh interpreter: every command of the benchmark's
# workloads and each other command line whose set differs or that the rule must cover, so that
# a module split edits the rows it moves.  Every command checks its inputs by extcalc.rules,
# and the seven that read files run their bodies in extcalc.filecmds.  The parser reads through
# sparse alone, and the algebra of extcalc.forms reads its frames, vectors and matrices through
# the array gate, as the field layer reads its point.  print renders with the parser's module,
# and verify ddzero runs beside dd_check, so neither loads forms; verify stokes needs only the
# form key rule and the field core of extcalc.fields, not the coefficient store of sparse or
# the derivatives; a ktensor file loads tensors, and alt expands a form into one; only verify
# suite loads checks.  numpy loads for minors from 4x4 up, the field layer's derivatives and
# the seeded checks
_TEXT = ["extcalc", "extcalc.cli", "extcalc.filecmds", "extcalc.rules", "extcalc.sparse",
         "extcalc.textio"]
_ALGEBRA = ["extcalc", "extcalc.arrays", "extcalc.cli", "extcalc.filecmds", "extcalc.forms",
            "extcalc.rules", "extcalc.sparse", "extcalc.textio"]
_KTENSOR = ["extcalc", "extcalc.arrays", "extcalc.cli", "extcalc.filecmds", "extcalc.rules",
            "extcalc.sparse", "extcalc.tensors", "extcalc.textio"]
_ALT = ["extcalc", "extcalc.arrays", "extcalc.cli", "extcalc.filecmds", "extcalc.forms",
        "extcalc.rules", "extcalc.sparse", "extcalc.tensors", "extcalc.textio"]
_FIELD = ["extcalc", "extcalc.arrays", "extcalc.cli", "extcalc.derivatives", "extcalc.fields",
          "extcalc.rules", "extcalc.sparse", "numpy"]
_STOKES = ["extcalc", "extcalc.cli", "extcalc.fields", "extcalc.rules", "extcalc.stokes"]
_ALGEBRA_ROWS = {
    "print": (["print", "w3"], _TEXT),
    "print-0-form": (["print", "w0"], _TEXT),
    "print-ktensor": (["print", "t"], _KTENSOR),
    "add": (["add", "w3", "w3"], _TEXT),
    "add-zap": (["add", "w3", "w3", "--zap"], _TEXT),
    "eval": (["eval", "w3", "e"], _ALGEBRA),
    "contract": (["contract", "w3", "e"], _ALGEBRA),
    "contract-keep-form": (["contract", "w3", "e", "--keep-form"], _ALGEBRA),
    "wedge": (["wedge", "w1", "w3"], _ALGEBRA),
    "pullback-k3": (["pullback", "w3", "m"], _ALGEBRA),
    "pullback-k4": (["pullback", "w4", "m"], _ALGEBRA + ["numpy"]),
    "add-ktensor": (["add", "t", "t"], _KTENSOR),
    "eval-ktensor": (["eval", "t", "e"], _KTENSOR),
    "alt": (["alt", "w3"], _ALT),
    "alt-ktensor": (["alt", "t"], _ALT),
    "d": (["d"], _FIELD),
    "d-fd": (["d", "--fd"], _FIELD),
    "d-field": (["d", "--field", "f1"], _FIELD),
    "d-omega": (["d", "--omega", "--at", "1", "2", "3"], _FIELD),
    **{f"verify-stokes-n{n}": (["verify", "stokes", "--n", str(n), "--m", "3"], _STOKES)
       for n in range(2, 7)},
    "verify-stokes-a": (["verify", "stokes", "--n", "3", "--a", "0.5", "--m", "3"], _STOKES),
    # verify_stokes's node bound, 10^6 volume nodes: the quadrature on Python floats finishes
    # within _loaded_after's 60 s
    "verify-stokes-n6-m10": (["verify", "stokes", "--n", "6", "--m", "10"], _STOKES),
    "verify-ddzero": (["verify", "ddzero"], _FIELD),
    "verify-det46": (["verify", "det46"], ["extcalc", "extcalc.arrays", "extcalc.cli",
                                           "extcalc.fields", "extcalc.forms", "extcalc.rules",
                                           "extcalc.sparse", "extcalc.stokes", "numpy"]),
    "verify-suite": (["verify", "suite"], ["extcalc", "extcalc.arrays", "extcalc.checks",
                                           "extcalc.cli", "extcalc.derivatives", "extcalc.fields",
                                           "extcalc.forms", "extcalc.rules", "extcalc.sparse",
                                           "extcalc.stokes", "extcalc.tensors", "numpy"]),
}


def _lazy_imports() -> list:
    # (enclosing module, imported module, "file:line") of each import inside a function of an
    # extcalc module that names an extcalc module or numpy; `from . import x` names extcalc.x
    found = []
    for path in sorted(Path(extcalc.__file__).parent.glob("*.py")):
        module = "extcalc" if path.stem == "__init__" else f"extcalc.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inner = {node for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                 for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))}
        for node in sorted(inner, key=lambda node: node.lineno):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif node.level == 0:
                names = [node.module]
            elif node.module is None:
                names = [f"extcalc.{alias.name}" for alias in node.names]
            else:
                names = [f"extcalc.{node.module}"]
            found += [(module, name, f"{path.name}:{node.lineno}") for name in names
                      if name == "numpy" or name.split(".")[0] == "extcalc"]
    return found


def test_each_lazy_import_defers_a_module_some_row_runs_without():
    # an import inside a function keeps its module out of a run only if some row loads the
    # enclosing module without it; one that every such row loads anyway belongs at the top
    lazy = _lazy_imports()
    unjustified = [f"{where} imports {imported}" for module, imported, where in lazy
                   if not any(module in modules and imported not in modules
                              for _, modules in _ALGEBRA_ROWS.values())]
    assert lazy and unjustified == []


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
    # the row's exact extcalc modules and numpy; of the rule's seven, only those numpy imports
    # itself may load beside them
    argv, modules = _ALGEBRA_ROWS[row]
    paths = _algebra_files(tmp_path)
    loaded = _loaded_after(_run_quietly([paths.get(arg, arg) for arg in argv]))
    banned = _NEVER + ([] if "numpy" in modules else _NOT_WITHOUT_NUMPY)
    assert [m for m in loaded if m not in _RULE or m in banned] == modules


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
    assert "extcalc.tensors" in _loaded_after(script)


def test_an_abbreviated_option_still_reaches_argparse():
    # argparse alone reads --t as --tol, and the report is the one --tol writes
    script = ("import contextlib, io, sys\nfrom extcalc.cli import main\n"
              "def run(argv):\n    out = io.StringIO()\n"
              "    with contextlib.redirect_stdout(out):\n"
              "        assert main(['verify', 'stokes', *argv]) == 0\n    return out.getvalue()\n"
              "report = run(['--tol', '1e-9'])\nassert 'argparse' not in sys.modules\n"
              "assert run(['--t', '1e-9']) == report and report.startswith('{\"n\": 3, ')\n")
    assert "argparse" in _loaded_after(script)


def test_each_moved_rule_is_one_object_in_every_module_that_binds_it():
    from extcalc import rules, sparse

    for name in ["ArityError", "DimensionError", "DEFAULT_TOL"]:
        assert getattr(extcalc, name) is getattr(sparse, name) is getattr(rules, name), name
    for name in ["_check_integral", "_check_key", "_check_finite", "_check_tol"]:
        assert getattr(sparse, name) is getattr(rules, name), name
    assert extcalc._MODULE_OF["ArityError"] == extcalc._MODULE_OF["DEFAULT_TOL"] == "rules"
    assert {"ArityError", "DimensionError", "DEFAULT_TOL"} <= set(sparse.__all__)
    # the form key rule is KForm's and FieldForm's one function
    assert sparse.KForm._key_rule is rules._check_form_key


def test_a_field_form_refuses_a_key_as_kform_does_without_the_store():
    # FieldForm checks its keys by the form key rule alone; KForm's message is then the same
    script = ("import sys\nfrom extcalc.fields import FieldForm\n"
              "try:\n    FieldForm([(abs, (2, 1))])\nexcept ValueError as exc:\n"
              "    field = str(exc)\nassert 'extcalc.sparse' not in sys.modules\n"
              "from extcalc import KForm\ntry:\n    KForm(2, {(2, 1): 1.0})\n"
              "except ValueError as exc:\n    assert str(exc) == field, (str(exc), field)\n"
              "assert field.startswith('form keys must be strictly increasing, got (2, 1)')\n")
    assert "extcalc.sparse" in _loaded_after(script)


@pytest.mark.parametrize("argv", [["print", "w3"], ["wedge", "w1", "w3"]], ids=" ".join)
def test_a_file_command_under_python_m_compiles_cli_once(argv, tmp_path):
    # run as `python -m extcalc.cli`, cli is __main__: the file commands' module must not import
    # extcalc.cli, which would compile and run cli a second time
    paths = _algebra_files(tmp_path)
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "extcalc.cli",
                           *[paths.get(arg, arg) for arg in argv]], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": _PATH}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = [line.split("|")[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "extcalc.filecmds" in imported and "extcalc.cli" not in imported
