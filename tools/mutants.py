"""A catalogue of mutants of ``src/transub`` that the tests must kill.

Each mutant names a module, a text that must occur in it exactly once, the
text that replaces it, and the pytest node ids that must fail on the mutated
copy.  The script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, checks that the selected tests pass there unmutated,
then applies one mutant at a time and runs its tests with ``PYTHONPATH`` on
the copy.  It exits 1 if a mutant survives, if its text does not occur
exactly once, or if a selected test fails on the unmutated copy.

Run from anywhere, with numpy, pytest and hypothesis installed:

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named ones

A change that moves or rewrites a catalogued text states its mutants again.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REL = "tests/test_relation.py::"
MAX = "tests/test_maximum.py::"


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # a file name under src/transub
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # Where a vertex's run of arcs begins, and its readers.
    Mutant(
        "row-starts-right", "relation.py",
        "return np.searchsorted(codes, np.arange(n + 1) * n)",
        'return np.searchsorted(codes, np.arange(n + 1) * n, side="right")',
        (REL + "TestViews::test_row_runs_of_the_codes",),
    ),
    Mutant(
        "forced-code-keeps-b", "relation.py",
        "codes[i1] - head[i1] + head[i2]",
        "codes[i1] + head[i2]",
        (REL + "TestTransitivity::test_examples",),
    ),
    Mutant(
        "loop-mask-mod-n", "relation.py",
        "r._arc_codes() % (r.n + 1) == 0",
        "r._arc_codes() % r.n == 0",
        ("tests/test_sat.py::TestEncoding::test_clauses_match_cell_scan_oracle_n3_loops",),
    ),
    Mutant(
        "degrees-swapped", "relation.py",
        "deg = np.diff(_row_starts(codes, n)), np.bincount(codes % n, minlength=n)",
        "deg = np.bincount(codes % n, minlength=n), np.diff(_row_starts(codes, n))",
        (REL + "TestDegrees::test_second_call_returns_the_same_read_only_arrays",),
    ),
    Mutant(
        "local-search-neighbour-is-row", "maximum.py",
        "nbrs, bounds = ends % n,",
        "nbrs, bounds = ends // n,",
        (MAX + "TestDicutOnArcs::test_seeded_large_input",),
    ),
    # The edge-list readers.
    Mutant(
        "line-loop-transposed", "relation.py",
        "codes.append((u - 1) * n + v - 1)",
        "codes.append((v - 1) * n + u - 1)",
        (REL + "TestEdgeListParsing::test_comments_and_blanks",),
    ),
    Mutant(
        "plain-reader-refuses-blank-lines", "relation.py",
        "np.any((gaps != 0) & (gaps != 2))",
        "np.any(gaps != 2)",
        (REL + "TestEdgeListFastPath::test_explicit_cases",),
    ),
    Mutant(
        "plain-reader-takes-lone-cr", "relation.py",
        ' or classes.count(b"\\r") != classes.count(b"\\r\\n")',
        "",
        (REL + "TestEdgeListFastPath::test_explicit_cases",),
    ),
    Mutant(
        "plain-reader-takes-19-digits", "relation.py",
        'b"1" * 19 in classes',
        'b"1" * 20 in classes',
        (REL + "TestEdgeListFastPath::test_explicit_cases",),
    ),
    # The arc view of cell codes.
    Mutant(
        "has-arc-misses-code-0", "relation.py",
        "np.array([(u - 1) * self._n + v - 1]))[0]) >= 0",
        "np.array([(u - 1) * self._n + v - 1]))[0]) > 0",
        (REL + "TestViews::test_matrix_and_arc_views_agree",),
    ),
    Mutant(
        "codes-not-distinct", "relation.py",
        "return cls._from_sorted_codes(n, _distinct(codes))",
        "return cls._from_sorted_codes(n, np.sort(codes))",
        (REL + "TestEdgeListParsing::test_duplicates_collapse_matching_matrix_build",),
    ),
    Mutant(
        "equality-on-one-matrix", "relation.py",
        "if self._codes is None and other._codes is None:",
        "if self._codes is None or other._codes is None:",
        (REL + "TestViews::test_views_tell_relations_apart",),
    ),
    Mutant(
        "containment-lookup-swapped", "relation.py",
        "_arc_index(b._codes, a._codes) >= 0",
        "_arc_index(a._codes, b._codes) >= 0",
        (REL + "TestSubrelation::test_every_view_matches_arc_set_inclusion",),
    ),
    Mutant(
        "containment-any-shared-arc", "relation.py",
        "np.count_nonzero(held._adj.ravel()[other._codes])) == a.m",
        "np.count_nonzero(held._adj.ravel()[other._codes])) > 0",
        (REL + "TestSubrelation::test_every_view_matches_arc_set_inclusion",),
    ),
    Mutant(
        "writer-first-column-mod", "relation.py",
        "(codes // r.n + 1).tolist()",
        "(codes % r.n + 1).tolist()",
        (REL + "TestSerialization::test_edge_list_layout",),
    ),
    # The walks and the routes that return arcs.
    Mutant(
        "walk-verdict-misses-arc-0", "relation.py",
        "np.all(req >= 0) for _, _, req in _forced_arcs(r)",
        "np.all(req > 0) for _, _, req in _forced_arcs(r)",
        (REL + "TestTransitivity::test_two_cycle_needs_loops",),
    ),
    Mutant(
        "set-run-row-starts-unscaled", "maximal.py",
        "np.repeat(np.arange(n) * n, counts) + kept",
        "np.repeat(np.arange(n), counts) + kept",
        (REL + "TestTransitivityByWalks::test_arc_held_relations_build_no_matrix",),
    ),
    Mutant(
        "quarter-fallback-without-loops", "maximum.py",
        "    if weighted:\n        keep |= src == dst\n",
        "",
        (MAX + "TestQuarterApprox::test_floor_with_loops_and_two_cycles",),
    ),
)


def _pytest(copy: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )


def main(names: list[str]) -> int:
    mutants = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        selected = sorted({t for m in mutants for t in m.tests})
        start = time.perf_counter()
        base = _pytest(copy, selected)
        print(f"unmutated: {len(selected)} tests, exit {base.returncode}, "
              f"{time.perf_counter() - start:.1f} s")
        if base.returncode != 0:
            print(base.stdout[-2000:])
            return 1
        for m in mutants:
            path = copy / "src" / "transub" / m.module
            original = path.read_text()
            found = original.count(m.old)
            if found != 1:
                print(f"{m.name}: text occurs {found} times in {m.module}")
                failures += 1
                continue
            path.write_text(original.replace(m.old, m.new))
            try:
                start = time.perf_counter()
                result = _pytest(copy, m.tests)
            finally:
                path.write_text(original)
            # Exit 1 is a test failure; any other status is not a kill.
            verdict = "killed" if result.returncode == 1 else f"SURVIVED (exit {result.returncode})"
            print(f"{m.name}: {verdict}, {time.perf_counter() - start:.1f} s")
            failures += result.returncode != 1
    print(f"{len(mutants) - failures} of {len(mutants)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
