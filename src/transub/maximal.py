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
deleted afterwards, and the output is exactly the visited set.  v1 and traced
v2 apply the deletions of a visited arc as two in-place vectorized masks, one
on a row and one on a column; a traced run also records the set bits of those
masks, in sweep order, before applying them.  Untraced v2 applies the masks of
all arcs of row ``i`` at once, since they commute: with ``S`` the successors
of ``i`` other than ``i``, the rows ``S`` are cut to row ``i``, and a
predecessor ``k`` keeps ``(k, i)`` only if row ``k`` holds all of ``S``.  It
works through blocks of ``_ROW_BLOCK`` rows, so it allocates little beyond its
copy of the matrix.  On a sparse relation it applies the same deletions to
successor and predecessor sets instead, in O(n + nm) time and O(n + m) memory.

``is_maximal_transitive`` and ``extend_to_maximal`` share one join rule,
``_grow``, which tries the host arcs outside a transitive set on the packed
rows of ``relation._packed_rows``.

Each invocation owns a private copy of the matrix, of the arc sets or of the
packed rows, so concurrent calls on distinct inputs are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import PreconditionError
from .relation import (
    Arc,
    Relation,
    _column,
    _is_sparse,
    _packed_rows,
    _unpacked,
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


def _record(adj: np.ndarray, i: int, j: int, visited: list[Arc],
            deleted: list[tuple[Arc, int]]) -> None:
    # Events of the visited arc (i, j), 0-based, read before its masks apply:
    # missing (i, k) kills (j, k), missing (k, j) kills (k, i), merged by k
    # with the row rule first.  Only (j, i) can fall to both rules; it is
    # recorded once, at k = min(i, j).
    visited.append((i + 1, j + 1))
    if j == i:
        return
    rows = np.flatnonzero(adj[j] & ~adj[i]).tolist()
    cols = np.flatnonzero(adj[:, i] & ~adj[:, j]).tolist()
    events = sorted([(k, 0, (j + 1, k + 1)) for k in rows] + [(k, 1, (k + 1, i + 1)) for k in cols])
    deleted.extend((arc, i + 1) for arc in dict.fromkeys(arc for _, _, arc in events))


def _fast_run(r: Relation, row_extract: bool,
              sink: tuple[list[Arc], list[tuple[Arc, int]]] | None = None) -> Relation:
    adj = r.adj.copy()
    n = adj.shape[0]
    for i in range(n):
        row = adj[i]
        if row_extract:
            targets = [int(j) for j in np.flatnonzero(row)]
        else:
            targets = range(n)
        for j in targets:
            if not row[j]:
                continue
            if sink is not None:
                _record(adj, i, j, *sink)
            if j != i:
                # row i is invariant during iteration i and adj[i, j] is set,
                # so these two in-place masks reproduce the k-sweep exactly.
                adj[j] &= row
                adj[:, i] &= adj[:, j]
    return Relation._from_matrix(adj)


# Rows gathered at once by ``_row_run``: 128 KiB per temporary at n=2000.
_ROW_BLOCK = 64


def _row_run(r: Relation) -> Relation:
    # The untraced dense v2 sweep, all arcs (i, j) of row i in one step: during
    # iteration i neither row i nor pred(j) for j in succ(i) changes (see
    # ``_set_run``), so their masks commute.
    adj = r.adj.copy()
    for i in range(adj.shape[0]):
        row = adj[i]
        succ = row.nonzero()[0]
        succ = succ[succ != i]
        if not len(succ):
            continue
        for start in range(0, len(succ), _ROW_BLOCK):
            adj[succ[start : start + _ROW_BLOCK]] &= row
        pred = adj[:, i].nonzero()[0]
        for start in range(0, len(pred), _ROW_BLOCK):
            block = pred[start : start + _ROW_BLOCK]
            adj[block[~adj[block[:, None], succ].all(axis=1)], i] = False
    return Relation._from_matrix(adj)


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


def _matrix_run(r: Relation, row_extract: bool,
                collect_trace: bool) -> tuple[Relation, MaximalTrace | None]:
    if not collect_trace:
        return _fast_run(r, row_extract), None
    visited: list[Arc] = []
    deleted: list[tuple[Arc, int]] = []
    out = _fast_run(r, row_extract, (visited, deleted))
    return out, MaximalTrace(tuple(visited), tuple(deleted))


def maximal_transitive_v1(
    r: Relation, collect_trace: bool = True
) -> tuple[Relation, MaximalTrace | None]:
    """Cell-scan route: probe all n^2 cells, sweep on each present arc."""
    return _matrix_run(r, row_extract=False, collect_trace=collect_trace)


def maximal_transitive_v2(
    r: Relation, collect_trace: bool = True
) -> tuple[Relation, MaximalTrace | None]:
    """Row-extraction route: same sweeps, but only present arcs are touched.

    Untraced runs apply the sweeps of all arcs of a row at once, on blocks of
    matrix rows, or sweep successor and predecessor sets when the relation is
    sparse (``relation._is_sparse``).
    """
    if not collect_trace:
        return (_set_run(r) if _is_sparse(r) else _row_run(r)), None
    return _matrix_run(r, row_extract=True, collect_trace=collect_trace)


def _require_transitive_sub(host: Relation, t: Relation) -> None:
    if host.n != t.n:
        raise PreconditionError(f"vertex count mismatch: {t.n} != {host.n}")
    if not is_subrelation(t, host):
        raise PreconditionError("sub-relation is not contained in the host relation")
    if not is_transitive(t):
        raise PreconditionError("sub-relation is not transitive")


def _grow(host: Relation, t: Relation) -> np.ndarray:
    """Packed rows (``relation._packed_rows``) of ``t`` grown by the host arcs
    outside it, tried in row-major order.

    Closing a transitive set plus ``(u, v)`` adds the block ``A(u) x B(v)``,
    ``A(u) = {u} | pred(u)``, ``B(v) = {v} | succ(v)``, so the arc joins iff
    ``B(v)`` misses ``escape``, the union of the rows of ``~host`` over
    ``A(u)``; it is committed by setting that block, which keeps the set
    transitive.
    """
    n = host.n
    miss = ~_packed_rows(host.adj)
    rows = _packed_rows(t.adj)
    for u in range(n):
        # All fitting arcs of row u are committed at once.  During row u,
        # A(u) does not change, and neither does ``escape``; every committed
        # B(v) misses ``escape``, so no fit test of the row depends on an
        # earlier commit in it.
        a = np.flatnonzero(_column(rows, u) | (np.arange(n) == u))
        escape = np.bitwise_or.reduce(miss[a], axis=0)
        # ``escape`` holds ``miss[u]``, so its clear bits are host arcs; v lies
        # in B(v), and an arc already in the set would add nothing.
        cand = np.flatnonzero(~_unpacked((escape | rows[u])[None], n)[0])
        fit = cand[~(rows[cand] & escape).any(axis=1)]
        if len(fit):
            block = np.bitwise_or.reduce(rows[fit], axis=0)
            np.bitwise_or.at(block, fit >> 6, np.uint64(1) << (fit & 63).astype(np.uint64))
            rows[a] |= block
    return rows


def is_maximal_transitive(host: Relation, t: Relation) -> bool:
    """True iff no arc of ``host`` outside ``t`` can join ``t`` transitively,
    that is, iff ``_grow`` adds nothing to ``t``.

    This takes O(n^2 + sum over u of (|A(u)| + c(u)) * n / 64) time, ``c(u)``
    the host arcs ``(u, v)`` outside the set whose ``v`` is not in
    ``escape``, and about 3 n^2 / 8 bytes of packed rows beyond the matrices
    of ``host`` and ``t``.
    """
    _require_transitive_sub(host, t)
    return bool(np.array_equal(_grow(host, t), _packed_rows(t.adj)))


def extend_to_maximal(host: Relation, t: Relation) -> Relation:
    """Grow ``t`` to a maximal transitive sub-relation of ``host``.

    Host arcs outside the current set are tried in row-major order, and each
    arc whose closure with the current set stays inside ``host`` is committed,
    which keeps the running set transitive (``_grow``).
    """
    _require_transitive_sub(host, t)
    return Relation._from_matrix(_unpacked(_grow(host, t), host.n))
