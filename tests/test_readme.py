"""Every fenced ``python`` block of README.md runs as written, every
``transub`` line of its ``sh`` blocks parses, README's CLI tables list exactly
what the CLI has, and the constants it cites exist and hold the values it
states."""

import argparse
import ast
import codecs
import importlib
import re
import shlex
from pathlib import Path

import pytest

import transub
from transub import cli

ROOT = Path(__file__).resolve().parents[1]
README_TEXT = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README_TEXT, re.M | re.S)
SH_LINES = [
    line
    for block in re.findall(r"^```sh\n(.*?)^```", README_TEXT, re.M | re.S)
    for line in block.splitlines()
]
COMMANDS = [line for line in SH_LINES if line.startswith("transub ")]


def table_rows(heading: str) -> list[list[str]]:
    """The cells of each body row of the first table after ``heading``."""
    after = README_TEXT[README_TEXT.index(f"\n{heading}\n"):]
    table = re.search(r"^\|.*?(?=\n\n)", after, re.M | re.S).group(0)
    rows = table.splitlines()[2:]  # past the header and its rule
    return [[cell.strip() for cell in row.split("|")[1:-1]] for row in rows]


def first_column(heading: str) -> list[str]:
    return [row[0] for row in table_rows(heading)]


def cited(name: str):
    """The attribute a README citation names: ``module._NAME`` in a submodule
    of ``transub``, a bare ``NAME`` in ``transub`` itself."""
    module, _, attr = name.rpartition(".")
    return getattr(importlib.import_module(f"transub.{module}") if module else transub, attr)


# Backticked constants: ``NAME`` or ``module._NAME``, in capitals.
CITED = sorted(set(re.findall(r"`((?:[a-z]+\.)?_?[A-Z][A-Z0-9]*_[A-Z0-9_]+)`", README_TEXT)))
SUPERSCRIPTS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


@pytest.mark.parametrize("line", COMMANDS, ids=lambda line: line.split("#")[0].strip())
def test_sh_command_parses(line):
    cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])


def test_path_example_writes_what_it_states(tmp_path, monkeypatch, capsys):
    # printf '3 2\n1 2\n2 3\n' > path.rel, then the maximal line's stated output
    (printf,) = [line for line in SH_LINES if line.startswith("printf ")]
    _, text, _, name = shlex.split(printf)
    (maximal,) = [line for line in COMMANDS if "path.rel" in line and "writes" in line]
    stated = re.search(r'# writes "(.*)"', maximal).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(codecs.decode(text, "unicode_escape"))
    assert cli.main(shlex.split(maximal, comments=True)[1:]) == cli.EXIT_OK
    assert capsys.readouterr().out == codecs.decode(stated, "unicode_escape") == "3 1\n1 2\n"


def test_subcommand_table_lists_every_subcommand():
    (subparsers,) = (
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert first_column("## CLI") == [f"`{name}`" for name in subparsers.choices]


def test_exit_status_table_lists_every_exit_code():
    codes = sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    assert codes == list(range(6))
    assert first_column("### Exit statuses") == [str(code) for code in codes]


def test_exit_status_table_names_each_error_row():
    # The prefix of each ``cli._ERROR_EXITS`` row, such as "parse error",
    # appears in README's row for that row's exit status.
    meanings = dict(table_rows("### Exit statuses"))
    for cls, prefix, status in cli._ERROR_EXITS:
        assert prefix in meanings[str(status)].lower(), cls.__name__


def test_cited_constants_exist():
    assert {"relation._ROUTE_COSTS", "sat._WALK_BUDGET", "DENSE_VERTEX_BUDGET"} <= set(CITED)
    for name in CITED:
        cited(name)  # AttributeError names a constant README cites but the code lacks


def test_budget_table_states_the_constants():
    # Each row states a number, such as "22 arcs" or "10⁶ two-arc walks",
    # and names the constant that holds it.
    rows = table_rows("## Enumeration budgets")
    assert len(rows) == 10
    for routine, budget, parameter in rows:
        base, power = re.match(r"(\d+)([⁰¹²³⁴⁵⁶⁷⁸⁹]*) ", budget).groups()
        stated = int(base) ** int(power.translate(SUPERSCRIPTS)) if power else int(base)
        (constant,) = re.findall(r"`([^`]+)`", parameter)
        assert cited(constant) == stated, routine


def test_paper_claims_cite_tests_that_exist():
    # Each claim row names, in its last cell, the test ids that check it.
    ids = [
        test_id
        for row in table_rows("## Paper claims")
        for test_id in re.findall(r"`(tests/\w+\.py(?:::\w+)+)`", row[-1])
    ]
    assert len(table_rows("## Paper claims")) == 3 and ids
    for test_id in ids:
        path, *names = test_id.split("::")
        nodes = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
        for name in names:
            found = [
                node for node in nodes
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
            ]
            assert found, test_id
            nodes = found[0].body
