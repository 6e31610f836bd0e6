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
deleted afterwards, and the output is exactly the visited set.  The sweep of
a visited arc ``(i, j)`` deletes two sets at once: ``succ(j) - succ(i)``
(the row rule) and ``pred(i) - pred(j)`` (the column rule).  v1 applies them
as two in-place masks on a copy of the matrix.  v2 extracts each row once;
traced, it sweeps successor and predecessor sets, in O(n + nm) time and
O(n + m) memory.  A traced run of either route records the two sets, in sweep
order, before applying them.  Untraced v2 runs that set sweep or, as
``relation._route`` picks, applies the masks of all arcs of row ``i`` at
once, since they commute: the rows of the successors of ``i`` are cut to
row ``i``, and a predecessor ``k`` keeps ``(k, i)`` only if row ``k`` holds
row ``i``.  It runs on the n^2 / 8 bytes of packed rows of
``relation._packed_rows``, in O(n^2 + (sum over i of |succ(i)| +
|pred(i)|) * n / 64) time.

``is_maximal_transitive`` and ``extend_to_maximal`` share one join rule,
``_joining``, which finds, row by row on the same packed rows, the host arcs
that can join a transitive set; the check stops at the first row with one,
and the extension commits them.  The paper's algorithm is that greedy join
from no arcs: ``maximal_transitive_v2(r)`` returns
``extend_to_maximal(r, Relation.empty(r.n))``.

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
    _members,
    _packed_rows,
    _route,
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


def _record(i: int, j: int, row_gone, col_gone, visited: list[Arc],
            deleted: list[tuple[Arc, int]]) -> None:
    # Events of the visited arc (i, j), 0-based: ``row_gone`` holds the k of
    # (j, k) whose (i, k) is missing, ``col_gone`` the k of (k, i) whose
    # (k, j) is missing, both read before either deletion applies.  They are
    # merged by k with the row rule first.  Only (j, i) can fall to both
    # rules; it is recorded once, at k = min(i, j).  A loop has neither.
    visited.append((i + 1, j + 1))
    events = sorted([(k, 0, (j + 1, k + 1)) for k in row_gone] + [(k, 1, (k + 1, i + 1)) for k in col_gone])
    deleted.extend((arc, i + 1) for arc in dict.fromkeys(arc for _, _, arc in events))


def _cell_scan(r: Relation,
               sink: tuple[list[Arc], list[tuple[Arc, int]]] | None = None) -> Relation:
    # v1: probe every cell of a copy of the matrix in row-major order.
    adj = r.adj.copy()
    n = adj.shape[0]
    for i in range(n):
        row = adj[i]
        cells = row.tolist()  # probed as Python bools; row i does not change below
        for j in range(n):
            if not cells[j]:
                continue
            if sink is not None:
                _record(i, j, np.flatnonzero(adj[j] & ~row).tolist(),
                        np.flatnonzero(adj[:, i] & ~adj[:, j]).tolist(), *sink)
            # row i is invariant during iteration i and adj[i, j] is set,
            # so these two in-place masks reproduce the k-sweep exactly; a
            # loop's masks change nothing.
            adj[j] &= row
            adj[:, i] &= adj[:, j]
    return Relation._from_matrix(adj)


def _row_run(r: Relation) -> Relation:
    # The untraced dense v2 sweep on packed rows (``relation._packed_rows``),
    # all arcs (i, j) of row i in one step: during iteration i neither row i
    # nor pred(j) for j in succ(i) changes (see ``_set_run``), so their masks
    # commute.  The rows of succ(i) are cut to row i, and a predecessor k keeps
    # (k, i) only if row k holds row i.  A loop (i, i) needs no special case:
    # row i cut to itself is unchanged, and every k in pred(i) already holds
    # bit i, so that bit changes no containment test.  A gather is at most
    # n^2 / 8 bytes.
    n = r.n
    rows = _packed_rows(r.adj)
    for i in range(n):
        row = rows[i]
        succ = _members(row, n)
        if not len(succ):
            continue
        rows[succ] &= row
        pred = _column(rows, i).nonzero()[0]
        rows[pred[(rows[pred] & row != row).any(axis=1)], i >> 6] &= ~np.uint64(1 << (i & 63))
    return Relation._from_matrix(_unpacked(rows, n))


def _set_run(r: Relation,
             sink: tuple[list[Arc], list[tuple[Arc, int]]] | None = None) -> Relation:
    # The v2 sweep on successor and predecessor sets: for the visited arc
    # (i, j), ``adj[j] &= adj[i]`` deletes succ(j) - succ(i) and
    # ``adj[:, i] &= adj[:, j]`` deletes pred(i) - pred(j); each deletion also
    # updates the other view, so the two stay one relation.  During iteration
    # i neither succ(i) nor pred(j) for j in succ(i) changes, so the sweeps of
    # one row may run in any order; a traced run takes them in ascending j,
    # the order of the cell scan.  Both differences are read before either
    # applies: the row rule can delete (j, i), which only takes j out of
    # pred(i), and the column rule then deletes it again.  A loop deletes
    # nothing.
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
        for j in succ_i if sink is None else sorted(succ_i):
            row_gone, col_gone = succ[j] - succ_i, pred_i - pred[j]
            if sink is not None:
                _record(i, j, row_gone, col_gone, *sink)
            if row_gone:
                succ[j] -= row_gone
                for k in row_gone:
                    pred[k].discard(j)
            if col_gone:
                # A new set, stored back so that the row rule's discards reach
                # it: one emptied in place by ``-=`` kept its large table, and
                # differencing it took ~10 us at n=2000.
                pred[i] = pred_i = pred_i - col_gone
                for k in col_gone:
                    succ[k].discard(i)
    counts = [len(s) for s in succ]
    kept = np.fromiter(chain.from_iterable(map(sorted, succ)), dtype=np.intp, count=sum(counts))
    return Relation._from_arc_arrays(n, np.repeat(np.arange(n), counts), kept)


def _traced(run, r: Relation) -> tuple[Relation, MaximalTrace]:
    visited: list[Arc] = []
    deleted: list[tuple[Arc, int]] = []
    out = run(r, (visited, deleted))
    return out, MaximalTrace(tuple(visited), tuple(deleted))


def maximal_transitive_v1(
    r: Relation, collect_trace: bool = True
) -> tuple[Relation, MaximalTrace | None]:
    """Cell-scan route: probe all n^2 cells, sweep on each present arc."""
    return _traced(_cell_scan, r) if collect_trace else (_cell_scan(r), None)


def maximal_transitive_v2(
    r: Relation, collect_trace: bool = True
) -> tuple[Relation, MaximalTrace | None]:
    """Row-extraction route: same sweeps, but only present arcs are touched.

    Traced runs sweep successor and predecessor sets at every density and
    build no matrix.  Untraced runs either sweep those sets or apply the
    sweeps of all arcs of a row at once, on packed matrix rows, as
    ``relation._route`` picks (``relation._ROUTE_COSTS``).
    """
    if collect_trace:
        return _traced(_set_run, r)
    return (_set_run(r) if _route("maximal", r) == "arcs" else _row_run(r)), None


def _require_transitive_sub(host: Relation, t: Relation) -> None:
    if host.n != t.n:
        raise PreconditionError(f"vertex count mismatch: {t.n} != {host.n}")
    if not is_subrelation(t, host):
        raise PreconditionError("sub-relation is not contained in the host relation")
    if not is_transitive(t):
        raise PreconditionError("sub-relation is not transitive")


def _joining(rows: np.ndarray, miss: np.ndarray, u: int) -> tuple[np.ndarray, np.ndarray]:
    """``A(u)`` and the heads ``v`` of the host arcs ``(u, v)`` outside a
    transitive set that can join it, as vertex arrays; ``rows`` are the set's
    packed rows (``relation._packed_rows``), ``miss`` those of the
    complemented host.

    Closing a transitive set plus ``(u, v)`` adds the block ``A(u) x B(v)``,
    ``A(u) = {u} | pred(u)``, ``B(v) = {v} | succ(v)``, so the arc joins iff
    ``B(v)`` misses ``escape``, the union of the rows of ``~host`` over
    ``A(u)``; it is committed by setting that block, which keeps the set
    transitive.
    """
    n = len(rows)
    a = np.flatnonzero(_column(rows, u) | (np.arange(n) == u))
    escape = np.bitwise_or.reduce(miss[a], axis=0)
    # ``escape`` holds ``miss[u]``, so its clear bits are host arcs; v lies
    # in B(v), and an arc already in the set would add nothing.  A row with
    # no candidate skips the fit test's numpy calls.
    cand = _members(~(escape | rows[u]), n)
    return a, cand[~(rows[cand] & escape).any(axis=1)] if len(cand) else cand


def is_maximal_transitive(host: Relation, t: Relation) -> bool:
    """True iff no arc of ``host`` outside ``t`` can join ``t`` transitively
    (``_joining``).  Rows are tried in order, each against ``t`` itself, as
    nothing is committed, and the answer is False at the first row with a
    joining arc.

    This takes O(n^2 + sum over u of (|A(u)| + c(u)) * n / 64) time, ``c(u)``
    the host arcs ``(u, v)`` outside the set whose ``v`` is not in
    ``escape``, and about 3 n^2 / 8 bytes of packed rows beyond the matrices
    of ``host`` and ``t``.
    """
    _require_transitive_sub(host, t)
    rows, miss = _packed_rows(t.adj), ~_packed_rows(host.adj)
    return not any(len(_joining(rows, miss, u)[1]) for u in range(host.n))


def extend_to_maximal(host: Relation, t: Relation) -> Relation:
    """Grow ``t`` to a maximal transitive sub-relation of ``host``.

    Host arcs outside the current set are tried in row-major order, and each
    arc whose closure with the current set stays inside ``host`` is committed,
    which keeps the running set transitive (``_joining``).
    """
    _require_transitive_sub(host, t)
    miss = ~_packed_rows(host.adj)
    rows = _packed_rows(t.adj)
    for u in range(host.n):
        # All joining arcs of row u are committed at once.  During row u,
        # A(u) does not change, and neither does ``escape``; every committed
        # B(v) misses ``escape``, so no fit test of the row depends on an
        # earlier commit in it.
        a, fit = _joining(rows, miss, u)
        if len(fit):
            block = np.bitwise_or.reduce(rows[fit], axis=0)
            np.bitwise_or.at(block, fit >> 6, np.uint64(1) << (fit & 63).astype(np.uint64))
            rows[a] |= block
    return Relation._from_matrix(_unpacked(rows, host.n))
