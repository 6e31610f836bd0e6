"""Maximal transitive sub-relation extraction with visit/delete traces.

Two routes produce identical outputs and traces on every input:

* ``maximal_transitive_v1`` scans every matrix cell ``(i, j)`` in ascending
  order and, on finding a present arc, sweeps the inner index ``k`` to delete
  arcs that can no longer belong to a transitive result.
* ``maximal_transitive_v2`` first extracts the present arcs of row ``i`` into a
  set and then performs the same inner sweep only for those arcs, so its work
  is bounded by ``n + k_i * n`` per row (``k_i`` = ones in row ``i`` at the
  start of iteration ``i``).

A visited arc is one examined while still present; visited arcs are never
deleted afterwards, and the output is exactly the visited set.  Traced runs
use explicit loops.  With ``collect_trace=False`` the same deletions are
applied through in-place vectorized row/column masks with no per-event
allocation, which is the path the benchmark harness times; v2 on a sparse
relation applies them to successor and predecessor sets instead, in
O(n + nm) time and O(n + m) memory.

Each invocation owns a private copy of the matrix or of the arc sets, so
concurrent calls on distinct inputs are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import PreconditionError
from .relation import (
    Arc,
    Relation,
    _bool_product,
    _is_sparse,
    is_subrelation,
    is_transitive,
)


@dataclass(frozen=True)
class MaximalTrace:
    """Ordered visit and deletion events of one run.

    ``deleted`` pairs each removed arc with the outer iteration index (1-based
    source vertex being processed) at which the removal happened.
    """

    visited: tuple[Arc, ...]
    deleted: tuple[tuple[Arc, int], ...]

    def visited_set(self) -> set[Arc]:
        return set(self.visited)

    def deleted_arcs(self) -> set[Arc]:
        return {arc for arc, _ in self.deleted}


def _sweep(grid: list[list[bool]], i: int, j: int, n: int,
           deleted: list[tuple[Arc, int]]) -> None:
    # Inner sweep for the visited arc (i, j), 0-based: missing (i, k) kills
    # (j, k); missing (k, j) kills (k, i).  Deletion events record 1->0 flips.
    gi = grid[i]
    gj = grid[j]
    for k in range(n):
        if k != j and not gi[k]:
            if gj[k]:
                gj[k] = False
                deleted.append(((j + 1, k + 1), i + 1))
        if k != i and not grid[k][j]:
            if grid[k][i]:
                grid[k][i] = False
                deleted.append(((k + 1, i + 1), i + 1))


def _traced_run(r: Relation, row_extract: bool) -> tuple[Relation, MaximalTrace]:
    n = r.n
    grid: list[list[bool]] = r.adj.tolist()
    visited: list[Arc] = []
    deleted: list[tuple[Arc, int]] = []
    for i in range(n):
        gi = grid[i]
        if row_extract:
            # Present arcs of row i, extracted once at the start of iteration
            # i; no arc with source i is deleted during iteration i, so no
            # liveness re-check is needed inside the loop.
            for j in [j for j in range(n) if gi[j]]:
                visited.append((i + 1, j + 1))
                if j != i:
                    _sweep(grid, i, j, n, deleted)
        else:
            for j in range(n):
                if gi[j]:
                    visited.append((i + 1, j + 1))
                    if j != i:
                        _sweep(grid, i, j, n, deleted)
    return Relation(grid), MaximalTrace(tuple(visited), tuple(deleted))


def _fast_run(r: Relation, row_extract: bool) -> Relation:
    adj = r.adj.copy()
    n = adj.shape[0]
    for i in range(n):
        row = adj[i]
        if row_extract:
            targets = [int(j) for j in np.flatnonzero(row)]
        else:
            targets = range(n)
        for j in targets:
            if not row[j] or j == i:
                continue
            # row i is invariant during iteration i and adj[i, j] is set, so
            # these two in-place masks reproduce the k-sweep exactly.
            adj[j] &= row
            adj[:, i] &= adj[:, j]
    return Relation(adj)


def _set_run(r: Relation) -> Relation:
    # The fast v2 sweep on successor and predecessor sets: for the visited arc
    # (i, j), ``adj[j] &= adj[i]`` deletes succ(j) - succ(i) and
    # ``adj[:, i] &= adj[:, j]`` deletes pred(i) - pred(j); each deletion also
    # updates the other view, so the two stay one relation.  During iteration
    # i neither succ(i) nor pred(j) for j in succ(i) changes, so the sweeps of
    # one row may run in any order.
    n = r.n
    src, dst = r._arc_arrays()
    vertex = np.arange(n).astype(object)  # one int per vertex, shared by all sets
    succ: list[set[int]] = [set() for _ in range(n)]
    pred: list[set[int]] = [set() for _ in range(n)]
    for u, v in zip(vertex[src], vertex[dst]):
        succ[u].add(v)
        pred[v].add(u)
    for i in range(n):
        succ_i, pred_i = succ[i], pred[i]
        for j in succ_i:
            if j == i:
                continue
            gone = succ[j] - succ_i
            if gone:
                succ[j] -= gone
                for k in gone:
                    pred[k].discard(j)
            gone = pred_i - pred[j]
            if gone:
                pred_i -= gone
                for k in gone:
                    succ[k].discard(i)
    counts = [len(s) for s in succ]
    kept = np.fromiter(chain.from_iterable(map(sorted, succ)), dtype=np.intp, count=sum(counts))
    return Relation._from_arc_arrays(n, np.repeat(np.arange(n), counts), kept)


def maximal_transitive_v1(
    r: Relation, collect_trace: bool = True
) -> tuple[Relation, MaximalTrace | None]:
    """Cell-scan route: probe all n^2 cells, sweep on each present arc."""
    if not collect_trace:
        return _fast_run(r, row_extract=False), None
    return _traced_run(r, row_extract=False)


def maximal_transitive_v2(
    r: Relation, collect_trace: bool = True
) -> tuple[Relation, MaximalTrace | None]:
    """Row-extraction route: same sweeps, but only present arcs are touched.

    Untraced runs on sparse relations (``relation._is_sparse``) sweep
    successor and predecessor sets instead of matrix rows and columns.
    """
    if not collect_trace:
        if _is_sparse(r):
            return _set_run(r), None
        return _fast_run(r, row_extract=True), None
    return _traced_run(r, row_extract=True)


def _require_transitive_sub(host: Relation, t: Relation) -> None:
    if host.n != t.n:
        raise PreconditionError(f"vertex count mismatch: {t.n} != {host.n}")
    if not is_subrelation(t, host):
        raise PreconditionError("sub-relation is not contained in the host relation")
    if not is_transitive(t):
        raise PreconditionError("sub-relation is not transitive")


def is_maximal_transitive(host: Relation, t: Relation) -> bool:
    """True iff no arc of ``host`` outside ``t`` can join ``t`` transitively.

    Closing transitive ``t`` plus ``(u, v)`` adds the block ``A(u) x B(v)``,
    ``A(u) = {u} | pred(u)``, ``B(v) = {v} | succ(v)``; with ``P = t | I`` it
    leaves ``host`` iff ``(P^T . ~host . P^T)[u, v]`` is nonzero.
    """
    _require_transitive_sub(host, t)
    pt = (t.adj | np.eye(t.n, dtype=bool)).astype(np.float32).T
    inner = np.subtract(1, host.adj, dtype=np.float32) @ pt
    # Thresholded in place, so the second product takes it with no copy.
    np.greater(inner, 0.5, out=inner)
    escapes = _bool_product(pt, inner)
    return not bool(np.any(host.adj & ~t.adj & ~escapes))


def extend_to_maximal(host: Relation, t: Relation) -> Relation:
    """Grow ``t`` to a maximal transitive sub-relation of ``host``.

    Host arcs outside the current set are tried in row-major order.  Closing
    the current set plus ``(u, v)`` adds the block ``A(u) x B(v)``, as in
    ``is_maximal_transitive``; the arc is committed by setting that block
    whenever it lies inside ``host``, which keeps the running set transitive.
    """
    _require_transitive_sub(host, t)
    current = t.adj.copy()
    for u, v in np.argwhere(host.adj):
        if current[u, v]:
            continue
        a, b = current[:, u].copy(), current[v].copy()
        a[u] = b[v] = True
        block = np.ix_(a, b)
        if host.adj[block].all():
            current[block] = True
    return Relation(current)
