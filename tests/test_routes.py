"""The route each benchmark input takes.

Each test builds a seeded input shaped like one input of
``perfbench/workloads.py`` (same n, m and held view; the benchmark itself is
not imported) and makes the route it must not take raise.  Outputs do not
depend on the route, so a change of route shows only in timings; these pins
make it fail a test as well.
"""

import numpy as np
import pytest

from transub import (
    Relation,
    is_subrelation,
    is_transitive,
    maximal,
    maximal_transitive_v2,
    maximum,
    quarter_approx,
    relation,
)
from transub.cli import EXIT_OK, main


def loop_free_cells(n, m, seed):
    """``m`` distinct loop-free arcs on ``n`` vertices, as 0-based index arrays."""
    cells = np.random.default_rng(seed).choice(n * (n - 1), size=m, replace=False)
    src, dst = np.divmod(cells, n - 1)
    return src, dst + (dst >= src)


def arc_held(n, m, seed):
    src, dst = loop_free_cells(n, m, seed)
    r = Relation.from_arcs(n, np.column_stack([src + 1, dst + 1]))
    assert r.m == m and r._adj is None
    return r


def matrix_held(n, m, seed):
    adj = np.zeros((n, n), dtype=bool)
    adj[loop_free_cells(n, m, seed)] = True
    return Relation(adj)


def forbid(monkeypatch, module, *names):
    def wrong_route(*args, **kwargs):
        raise AssertionError("wrong route")

    for name in names:
        monkeypatch.setattr(module, name, wrong_route)


def test_sparse_large_edge_list_runs_on_the_arcs(monkeypatch):
    # sparse-large: an n=8000, m=4n edge list
    r = arc_held(8000, 4 * 8000, seed=8000)
    forbid(monkeypatch, maximal, "_row_run", "_cell_scan")
    forbid(monkeypatch, relation, "_transitive_by_rows")
    forbid(monkeypatch, maximum, "_greedy_sides")
    maximal_transitive_v2(r, collect_trace=False)  # _set_run
    is_transitive(r)  # _transitive_by_walks
    quarter_approx(r)  # _quarter_by_arcs
    assert r._adj is None


def test_dense_matrix_runs_on_the_rows(monkeypatch):
    # dense-matrix: an n=2000, m=n^2/4 matrix
    r = matrix_held(2000, 2000 * 2000 // 4, seed=2000)
    forbid(monkeypatch, maximal, "_set_run")
    forbid(monkeypatch, relation, "_transitive_by_walks")
    forbid(monkeypatch, maximum, "_quarter_by_arcs")
    maximal_transitive_v2(r, collect_trace=False)  # _row_run
    is_transitive(r)  # _transitive_by_rows
    quarter_approx(r)  # _greedy_sides


@pytest.mark.parametrize("n", [300, 2000])
def test_small_exact_edge_lists_take_the_set_sweep(monkeypatch, n):
    # maximal-verify (n=300) and maximal-v2 (n=2000), m=4n.
    r = arc_held(n, 4 * n, seed=n)
    forbid(monkeypatch, maximal, "_row_run", "_cell_scan")
    maximal_transitive_v2(r, collect_trace=False)
    assert r._adj is None


def test_verify_containment_builds_no_matrix(monkeypatch, tmp_path):
    # maximal --verify on the n=300, m=4n edge list: the containment check of
    # the maximality check looks arcs up, and builds neither matrix.
    src, dst = loop_free_cells(300, 1200, seed=300)
    path = tmp_path / "verify.txt"
    path.write_text("300 1200\n" + "".join(f"{u} {v}\n" for u, v in zip(src + 1, dst + 1)))
    verdicts = []

    def on_arcs(a, b):
        assert a._adj is None and b._adj is None
        verdicts.append(is_subrelation(a, b))
        assert a._adj is None and b._adj is None
        return verdicts[-1]

    monkeypatch.setattr(maximal, "is_subrelation", on_arcs)
    out = tmp_path / "out.txt"
    assert main(["maximal", "--verify", "--input", str(path), "--output", str(out)]) == EXIT_OK
    assert verdicts == [True]
