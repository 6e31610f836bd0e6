"""``src/transub`` reads no numpy name added after numpy 1.24, the oldest
numpy that ``pyproject.toml`` accepts.

The names below were added to numpy's top-level namespace in releases 1.25
to 2.2, as their release notes list them.  A name missing from the list is
not caught, nor is a keyword argument added to an old function.  A scan of
names also cannot see behaviour that changed under an old name, such as
numpy 2's casting of uint64 operands, so the ``floor`` CI job, which runs
tier-1 under numpy 1.24, stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "transub"

POST_FLOOR = frozenset({
    # modules
    "dtypes", "exceptions", "strings",
    # functions
    "astype", "bitwise_count", "concat", "cumulative_prod", "cumulative_sum", "isdtype",
    "matrix_transpose", "matvec", "permute_dims", "trapezoid", "unique_all", "unique_counts",
    "unique_inverse", "unique_values", "unstack", "vecdot", "vecmat",
    # array-API aliases of older functions
    "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "bitwise_invert",
    "bitwise_left_shift", "bitwise_right_shift", "pow",
    # types; a bare ``bool`` (not ``bool_``) was removed in 1.24 and came back in 2.0
    "bool", "long", "ulong",
})


def numpy_names(source: str) -> set[str]:
    """The top-level numpy names that ``source`` reads: ``alias.name`` for an
    alias bound by ``import numpy``, the names of ``from numpy import``, and
    the submodule of ``import numpy.sub`` or ``from numpy.sub import``."""
    tree = ast.parse(source)
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, sub = alias.name.partition(".")
                if head == "numpy":
                    aliases.add(alias.asname or head)
                    if sub:
                        names.add(sub.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            parts = node.module.split(".")
            names.update([parts[1]] if len(parts) > 1 else [alias.name for alias in node.names])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                names.add(node.attr)
    return names


def test_no_numpy_name_past_the_floor():
    found = {
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in numpy_names(path.read_text(encoding="utf-8")) & POST_FLOOR
    }
    assert not found, sorted(found)


def test_the_scan_sees_each_way_of_naming_numpy():
    source = (
        "import numpy as xp\nimport numpy.strings\nfrom numpy import concat\n"
        "from numpy.dtypes import StringDType\nxp.bitwise_count(xp.bool_(1))\n"
    )
    assert numpy_names(source) == {"strings", "concat", "dtypes", "bitwise_count", "bool_"}
