"""Every fenced ``python`` block of README.md runs as written, and README's
CLI tables list exactly what the CLI has."""

import argparse
import re
from pathlib import Path

import pytest

from transub import cli

README_TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README_TEXT, re.M | re.S)


def first_column(heading: str) -> list[str]:
    """The first cell of each body row of the first table after ``heading``."""
    after = README_TEXT[README_TEXT.index(f"\n{heading}\n"):]
    table = re.search(r"^\|.*?(?=\n\n)", after, re.M | re.S).group(0)
    rows = table.splitlines()[2:]  # past the header and its rule
    return [row.split("|")[1].strip() for row in rows]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


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
