"""Run one list of CLI commands on two source trees and list every argv whose output differs.

Usage, from the repository root:

    python tools/same_output.py OLD_TREE [NEW_TREE]

Each tree is a checkout of this repository (a `git worktree` of the
parent commit, say); NEW_TREE defaults to the one holding this script.
Every command runs as `python -m extcalc.cli <argv>` with the tree's src
on PYTHONPATH, one at a time, in a scratch directory holding the inputs,
which are written once and shared by both trees.  An argv differs when
its exit code, stdout or stderr differs byte for byte.  A difference on
an argv of DECLARED is a declared change of the output: it is listed as
declared, with its reason, and passes.  Every other difference is
listed, and the exit code is 1 if there is any.  Run with one tree
twice, the list must be empty: output that depends on time or order
shows there.

The list: the seventeen commands of the three benchmark workloads at
seeds 1-3, built by perfbench/inputs.py (imported without writing
bytecode, and never changed), an argv repeated across seeds run once;
`verify det46` at seeds 0-2; and every argv of GOLDENS in
tests/test_goldens.py and of REFUSALS in tests/test_cli_contract.py.
Their file operands are names of tests/cli_inputs.py's files, which
write_inputs writes into the directory the commands run in.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


# argv, its file operands named as in tests/cli_inputs.py, whose output is meant to differ from
# the base tree's -> why.  Drop a row once the base tree has the change
DECLARED = {
    **dict.fromkeys([("verify", "stokes", "--n", "\u0663"), ("verify", "stokes", "--m", "1_0"),
                     ("d", "--at", "1_0", "2", "3", "4"), ("wedge", "w1", "ten1", "--zap", "1_0")],
                    "numbers on the command line refuse underscores and non-ASCII digits, as the"
                    " readers do"),
    ("print", "linesep"): "the readers end a line at \\n only, so U+2028 is a refused character",
}


def commands(workdir: Path) -> list:
    """The argv list, its input files written under workdir, which it runs in."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests"), str(ROOT / "src")]
    import inputs
    from cli_inputs import write_inputs
    from test_cli_contract import REFUSALS
    from test_goldens import GOLDENS

    argvs = []
    for seed in SEEDS:
        for name, workload in sorted(inputs.WORKLOADS.items()):
            (workdir / f"{name}-{seed}").mkdir()
            argvs += [list(c.argv) for c in workload.build(seed, workdir / f"{name}-{seed}")[0]]
    argvs += [["verify", "det46", "--seed", str(seed)] for seed in range(3)]
    write_inputs(workdir)
    argvs += [argv for argv, _, _ in GOLDENS] + [argv for argv, _ in REFUSALS]
    unique = {tuple(argv): None for argv in argvs}
    return [list(argv) for argv in unique]


def run(tree: Path, argv: list, workdir: Path) -> tuple:
    # (exit code, stdout bytes, stderr bytes) of one CLI run on the tree's source
    env = {k: v for k, v in os.environ.items() if k not in ("EXTERIOR_TOL", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(tree / "src")
    proc = subprocess.run([sys.executable, "-m", "extcalc.cli", *argv], capture_output=True,
                          env=env, cwd=workdir, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print("usage: python tools/same_output.py OLD_TREE [NEW_TREE]", file=sys.stderr)
        return 2
    trees = [Path(tree).resolve() for tree in (*argv, ROOT)[:2]]
    for tree in trees:
        if not (tree / "src" / "extcalc" / "cli.py").is_file():
            print(f"error: {tree} holds no src/extcalc/cli.py", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as scratch:
        workdir = Path(scratch)
        listed, differ, declared = commands(workdir), 0, 0
        for command in listed:
            old, new = (run(tree, command, workdir) for tree in trees)
            parts = [part for part, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                     if a != b]
            if parts and tuple(command) in DECLARED:
                declared += 1
                print(f"declared, differs in {', '.join(parts)}: {' '.join(command)}: "
                      f"{DECLARED[tuple(command)]}")
            elif parts:
                differ += 1
                print(f"differs in {', '.join(parts)}: {' '.join(command)}")
    print(f"{differ} of {len(listed)} commands differ between {trees[0]} and {trees[1]}, "
          f"and {declared} of the {len(DECLARED)} declared")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
