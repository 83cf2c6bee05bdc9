"""List the extcalc source each command compiles, on one source tree or two.

Usage, from the repository root:

    python tools/load_cost.py [--runs N] [OLD_TREE [NEW_TREE]]

Each tree is a checkout of this repository; NEW_TREE defaults to the one
holding this script, and with no tree given only that one is listed.
The commands are the rows of _ALGEBRA_ROWS in tests/test_imports.py;
their file operands are names of tests/cli_inputs.py's files, which
write_inputs writes into the directory the commands run in.  Each runs
once per tree as `python -m extcalc.cli --stats <argv>` with the tree's
src on PYTHONPATH, in a fresh interpreter that writes no bytecode; its
--stats line names the extcalc modules it loaded.  A module's cost is its line
count and the minimum over N runs (default 20) of compile() on its
source, timed in this process.  The output is two Markdown tables: each
row's modules with their total lines and compile milliseconds (old,
new and the change for two trees), then each module's own.  Compile
times depend on the host and its load; the script gates nothing and
exits 0 once every command has run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def rows(workdir: Path) -> dict:
    """name -> argv of each _ALGEBRA_ROWS row, its input files written under workdir, which it
    runs in."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]
    from cli_inputs import write_inputs
    from test_imports import _ALGEBRA_ROWS

    write_inputs(workdir)
    return {name: argv for name, (argv, _) in _ALGEBRA_ROWS.items()}


def loaded(tree: Path, argv: list, workdir: Path) -> list:
    # the extcalc modules one run of argv loads, as its --stats line lists them
    env = {k: v for k, v in os.environ.items() if k not in ("EXTERIOR_TOL", "PYTHONSTARTUP")}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "extcalc.cli", "--stats", *argv],
                          capture_output=True, text=True, env=env, cwd=workdir, timeout=600)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"error: {' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stderr.splitlines()[-1])["modules"]


def cost(tree: Path, module: str, runs: int) -> tuple:
    # (lines, minimum compile seconds) of one extcalc module's source in the tree
    parts = module.split(".")[1:] or ["__init__"]
    path = tree.joinpath("src", "extcalc", *parts).with_suffix(".py")
    source = path.read_text(encoding="utf-8")
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        compile(source, str(path), "exec")
        best = min(best, time.perf_counter() - start)
    return source.count("\n"), best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=20, help="compile() timings per module")
    parser.add_argument("trees", nargs="*", metavar="TREE", help="OLD_TREE [NEW_TREE]")
    args = parser.parse_args(argv)
    if len(args.trees) > 2 or args.runs < 1:
        parser.error("give at most two trees and --runs >= 1")
    trees = [Path(tree).resolve() for tree in (*args.trees, ROOT)[:min(2, len(args.trees) + 1)]]
    for tree in trees:
        if not (tree / "src" / "extcalc" / "cli.py").is_file():
            parser.error(f"{tree} holds no src/extcalc/cli.py")
    with tempfile.TemporaryDirectory() as scratch:
        commands = rows(Path(scratch))
        runs = {name: [loaded(tree, argv, Path(scratch)) for tree in trees]
                for name, argv in commands.items()}
    costs = [{m: cost(tree, m, args.runs) for m in sorted({m for r in runs.values() for m in r[i]})}
             for i, tree in enumerate(trees)]

    def total(i: int, modules: list) -> tuple:
        return sum(costs[i][m][0] for m in modules), 1e3 * sum(costs[i][m][1] for m in modules)

    two = len(trees) == 2
    print(f"Source compiled per command, compile() minimum of {args.runs} runs:\n")
    print("| Row | Loads | Lines | Compile ms |" if not two else
          "| Row | Loads (new) | Lines old → new | Compile ms old → new | Change ms |")
    print("|---|---|---|---|" + "---|" * two)
    for name, per_tree in runs.items():
        shown = " ".join(m.removeprefix("extcalc.") for m in per_tree[-1])
        (lines, ms), *new = [total(i, modules) for i, modules in enumerate(per_tree)]
        if new:
            print(f"| {name} | {shown} | {lines} → {new[0][0]} | {ms:.2f} → {new[0][1]:.2f} "
                  f"| {new[0][1] - ms:+.2f} |")
        else:
            print(f"| {name} | {shown} | {lines} | {ms:.2f} |")
    print("\n| Module | Lines | Compile ms |" if not two else
          "\n| Module | Lines old → new | Compile ms old → new |")
    print("|---|---|---|")
    for module in sorted(set().union(*costs)):
        cells = [costs[i].get(module) for i in range(len(trees))]
        lines = " → ".join("-" if c is None else str(c[0]) for c in cells)
        ms = " → ".join("-" if c is None else f"{1e3 * c[1]:.2f}" for c in cells)
        print(f"| {module} | {lines} | {ms} |")
    print("\n" + "; ".join(f"{'old' if two and i == 0 else 'new' if two else 'tree'}: {tree}"
                           for i, tree in enumerate(trees)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
