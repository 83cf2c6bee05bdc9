"""README's examples hold: its library tour runs as a doctest, each CLI example shows its
GOLDENS row's stdout, and its load table matches the import rows."""

import doctest
import re
import shlex
from pathlib import Path

from test_goldens import GOLDENS
from test_imports import _ALGEBRA_ROWS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0 and result.failed == 0


def _cli_examples() -> list:
    # (argv, the output shown) for each `$ extcalc` command of the CLI section's first block,
    # each file named without its .txt, as tests/cli_inputs.py names it
    text = README.read_text(encoding="utf-8")
    block = text[text.index("## CLI"):].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for command in block.split("$ extcalc ")[1:]:
        line, _, shown = command.partition("\n")
        argv = [arg.removesuffix(".txt") for arg in shlex.split(line, comments=True)]
        examples.append((argv, shown.rstrip("\n") + "\n"))
    return examples


def test_readme_cli_examples_show_their_golden_rows():
    # an output shown ending in "...}" is the start of the row's stdout, up to the "..."
    rows = {tuple(argv): (code, stdout) for argv, code, stdout in GOLDENS}
    examples = _cli_examples()
    assert examples
    for argv, shown in examples:
        code, stdout = rows[tuple(argv)]
        if shown.endswith("...}\n"):
            shown = shown[:-len("...}\n")]
            stdout = stdout[:len(shown)]
        assert (code, stdout) == (0, shown), argv


def _load_table() -> list:
    # the "Also loads" rows: (the subcommands named, whether the row is for a ktensor file, the
    # extcalc modules a run loads: the named ones beside those the sentence "Every subcommand
    # loads ..." above the table names, up to its parenthesis or semicolon)
    text = README.read_text(encoding="utf-8")
    sentence = re.search(r"Every subcommand\s+loads\s([^(;]+)", text)[1]
    every = set(re.findall(r"`([^`]+)`", sentence))
    body = text[text.index("| Subcommand | Also loads |"):].split("\n\n")[0].splitlines()[2:]
    rows = []
    for line in body:
        commands, modules = (re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:3])
        rows.append((set(commands) - {"ktensor"}, "ktensor" in commands,
                     sorted(every | {f"extcalc.{m}" for m in modules})))
    return rows


def test_readme_load_table_matches_the_import_rows():
    # each import row's extcalc modules are those of the table row naming its subcommand, the
    # ktensor row for a ktensor file where one names it; every table row stands for some row
    table, used = _load_table(), set()
    for name, (argv, modules) in _ALGEBRA_ROWS.items():
        subcommand = " ".join(argv[:2]) if argv[0] == "verify" else argv[0]
        fits = [i for i, (commands, ktensor, _) in enumerate(table)
                if subcommand in commands and (not ktensor or "ktensor" in name)]
        assert fits, name
        i = max(fits, key=lambda i: table[i][1])
        used.add(i)
        assert [m for m in modules if m.startswith("extcalc")] == table[i][2], name
    assert used == set(range(len(table)))
