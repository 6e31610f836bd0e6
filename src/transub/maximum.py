"""Maximum transitive subgraphs, directed cuts, and the quarter approximation.

Exact routines are enumeration-based and budgeted so the worst case stays
around 10^7 candidate checks: ``brute_force_mts`` searches arc subsets (default
budget 22 arcs) and ``brute_force_max_dicut`` scores every vertex bipartition
through the forward cut table (at most 20 vertices), an int32 table built by
subset doubling, one vertex at a time, with no float array and no matrix product.
``quarter_approx`` keeps the heavier direction of a greedy cut, taken on the
adjacency matrix or on neighbour lists as ``relation._route`` picks, and
always returns a transitive arc set of size at least m/4.  The dicut counts
(``dicut_size``, ``forward_arcs``) and the local search run on the arcs and
build no matrix.  All tie-breaks are deterministic, so results repeat bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, TriangleFoundError
from .relation import (
    Relation,
    UndirectedGraph,
    _composition_walks,
    _distinct,
    _route,
    find_triangle,
    underlying_graph,
)

DEFAULT_ARC_BUDGET = 22
DEFAULT_VERTEX_BUDGET = 20

U_SIDE = "U"
V_SIDE = "V"


@dataclass(frozen=True)
class VertexPartition:
    """Ordered bipartition of ``{1..n}``: ``side[v-1]`` is ``"U"`` or ``"V"``."""

    side: tuple[str, ...]

    def __post_init__(self):
        if not self.side:
            raise ValueError("partition must cover at least one vertex")
        bad = set(self.side) - {U_SIDE, V_SIDE}
        if bad:
            raise ValueError(f"labels must be 'U' or 'V', got {sorted(bad)}")

    @property
    def n(self) -> int:
        return len(self.side)

    @classmethod
    def from_u_set(cls, n: int, u_vertices) -> "VertexPartition":
        u = set(u_vertices)
        return cls(tuple(U_SIDE if v in u else V_SIDE for v in range(1, n + 1)))

    def u_vertices(self) -> set[int]:
        return {v + 1 for v, s in enumerate(self.side) if s == U_SIDE}

    def v_vertices(self) -> set[int]:
        return {v + 1 for v, s in enumerate(self.side) if s == V_SIDE}


@dataclass(frozen=True)
class DicutResult:
    """A bipartition with its directed-cut sizes in both directions."""

    partition: VertexPartition
    forward: int
    backward: int

    @property
    def cut_total(self) -> int:
        return self.forward + self.backward


def _u_vector(p: VertexPartition) -> np.ndarray:
    return np.fromiter((s == U_SIDE for s in p.side), dtype=bool, count=p.n)


def dicut_size(r: Relation, p: VertexPartition) -> DicutResult:
    """Count arcs crossing the partition in each direction; loops and
    same-side arcs count in neither."""
    if p.n != r.n:
        raise ValueError(f"partition covers {p.n} vertices, relation has {r.n}")
    u = _u_vector(p)
    src, dst = r._arc_arrays()
    tail, head = u[src], u[dst]
    return DicutResult(p, int(np.count_nonzero(tail & ~head)), int(np.count_nonzero(head & ~tail)))


def forward_arcs(r: Relation, p: VertexPartition) -> Relation:
    """The arcs going from the U side to the V side, as a relation."""
    if p.n != r.n:
        raise ValueError(f"partition covers {p.n} vertices, relation has {r.n}")
    u = _u_vector(p)
    src, dst = r._arc_arrays()
    keep = u[src] & ~u[dst]
    return Relation._from_arc_arrays(r.n, src[keep], dst[keep])


def _greedy_sides(sym: np.ndarray) -> np.ndarray:
    # Side vector (True = U) of the greedy cut of a symmetric adjacency matrix;
    # only the entries below the diagonal are read.
    u = np.zeros(sym.shape[0], dtype=bool)
    for v in range(len(u)):
        placed = sym[v, :v]
        # U when placed neighbors in V (all placed minus those in U) are at
        # least those in U; ties go to U
        u[v] = np.count_nonzero(placed) >= 2 * np.count_nonzero(placed & u[:v])
    return u


def _greedy_sides_by_lists(n: int, edges: np.ndarray) -> list[bool]:
    # ``_greedy_sides`` over lists of lower neighbours instead of matrix rows;
    # ``edges`` holds the distinct codes ``v * n + w`` of the edges with w < v,
    # ascending.
    bounds = np.searchsorted(edges, np.arange(n + 1) * n).tolist()  # edges sort by v
    lower = (edges % n).tolist()
    side = [False] * n
    for v in range(n):
        placed = lower[bounds[v] : bounds[v + 1]]
        side[v] = len(placed) >= 2 * sum(map(side.__getitem__, placed))
    return side


def greedy_bipartition(g: UndirectedGraph) -> VertexPartition:
    """One-pass greedy cut of size at least m/2.

    Vertices are processed in ascending label order; each goes to the side
    that maximizes edges to the opposite side among already-placed neighbors,
    with ties resolved to U.  Runs on lists of lower neighbours, with no n^2
    matrix.
    """
    pairs = np.array(list(g.edges), dtype=np.int64).reshape(-1, 2) - 1  # u < v
    side = _greedy_sides_by_lists(g.n, np.sort(pairs[:, 1] * g.n + pairs[:, 0]))
    return VertexPartition(tuple(U_SIDE if s else V_SIDE for s in side))


def _quarter_by_arcs(r: Relation) -> Relation:
    # ``quarter_approx`` on the arcs: the greedy cut over lists of lower
    # neighbours, then the heavier direction kept by masking the arcs.
    n = r.n
    src, dst = r._arc_arrays()
    cross = src != dst
    edges = _distinct(np.maximum(src, dst)[cross] * n + np.minimum(src, dst)[cross])
    u = np.array(_greedy_sides_by_lists(n, edges))
    forward = u[src] & ~u[dst]
    backward = u[dst] & ~u[src]
    keep = forward if np.count_nonzero(forward) >= np.count_nonzero(backward) else backward
    return Relation._from_arc_arrays(n, src[keep], dst[keep])


def _quarter_by_matrix(r: Relation) -> Relation:
    # ``quarter_approx`` on the matrix: the greedy cut over the rows of the
    # symmetric matrix, then the heavier direction kept by masking the cells.
    u = _greedy_sides(r.adj | r.adj.T)
    forward = r.adj & np.outer(u, ~u)
    backward = r.adj & np.outer(~u, u)
    return Relation._from_matrix(forward if forward.sum() >= backward.sum() else backward)


def quarter_approx(r: Relation) -> Relation:
    """Transitive subgraph of size >= m/4: greedily bipartition the underlying
    graph, then keep every arc of the heavier direction across the cut (ties
    go to the forward, U-to-V, direction).  The result lies within one
    direction of a cut, so it contains no directed path of length two.

    The greedy runs over lower neighbour lists, keeping the heavier direction
    by masking the arcs, or on the matrix, as ``relation._route`` picks
    (``relation._ROUTE_COSTS``).
    """
    if _route("quarter", r) == "arcs":
        return _quarter_by_arcs(r)
    return _quarter_by_matrix(r)


# ---------------------------------------------------------------------------
# Exact maximum transitive subgraph
# ---------------------------------------------------------------------------


def brute_force_mts(r: Relation) -> Relation:
    """Exact maximum transitive sub-relation by branch-and-bound over arc
    subsets; among maximum-size answers, the lexicographically smallest arc
    set in row-major order is returned.

    The constraints are the two-arc walks of ``relation._composition_walks``,
    the same set the CNF encoder emits as clauses.  Each walk is checked once
    its highest arc index has been decided, as premise and required bitmasks
    (a required mask of 0 forbids the premise pair).
    """
    if r.m > DEFAULT_ARC_BUDGET:
        raise BudgetError(f"{r.m} arcs exceeds the enumeration budget of {DEFAULT_ARC_BUDGET}")
    arcs, walks = _composition_walks(r)
    m = len(arcs)
    by_last: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for i1, i2, req in walks:
        pre = (1 << i1) | (1 << i2)
        by_last[max(i1, i2, req)].append((pre, 1 << req if req >= 0 else 0))

    best_size = 0
    best_mask = 0

    def consistent(mask: int, checks) -> bool:
        for pre, req in checks:
            if mask & pre == pre and not mask & req:
                return False
        return True

    def dfs(p: int, mask: int, size: int) -> None:
        nonlocal best_size, best_mask
        # Equal-size candidates found later are lexicographically larger,
        # so pruning on <= keeps the first (smallest) maximum.
        if size + (m - p) <= best_size:
            return
        if p == m:
            best_size = size
            best_mask = mask
            return
        checks = by_last[p]
        included = mask | (1 << p)
        if consistent(included, checks):
            dfs(p + 1, included, size + 1)
        if consistent(mask, checks):
            dfs(p + 1, mask, size)

    if m:
        dfs(0, 0, 0)
    chosen = [arcs[i] for i in range(m) if (best_mask >> i) & 1]
    return Relation.from_arcs(r.n, chosen)


# ---------------------------------------------------------------------------
# Exact maximum directed cut
# ---------------------------------------------------------------------------


def forward_cut_table(adj: np.ndarray) -> np.ndarray:
    """Forward cut size for every vertex bipartition, as an int32 table.

    Entry ``mask`` (bit v set means vertex v+1 is in U) counts arcs from U to
    V; loops count in neither direction.  The table doubles one vertex at a
    time: with the vertices above v all in V, moving v into U gains its
    out-arcs ``out(v)`` and loses every arc between v and the U side, so

        T[mask | 1 << v] = T[mask] + out(v) - sum(w[v, u] for u in mask)

    for every mask over the vertices below v, where ``w = A + A^T`` without
    the diagonal.  The sum for all masks is itself built by doubling, in place
    in the half of the table it feeds.  About 2 * 2^n int32 additions, with no
    float array and no matrix product.  More than ``DEFAULT_VERTEX_BUDGET``
    vertices raise ``BudgetError`` before the table is allocated; the routines
    that build the matrix for it check the same limit before the matrix.
    """
    n = adj.shape[0]
    _require_cut_budget(n)
    a = adj.astype(np.int32)
    np.fill_diagonal(a, 0)
    w = a + a.T
    out = a.sum(axis=1)
    table = np.zeros(1 << n, dtype=np.int32)
    for v in range(n):
        size = 1 << v
        half = table[size : 2 * size]
        half[0] = -out[v]  # half[mask] becomes sum(w[v, u] for u in mask) - out(v)
        for k in range(v):
            np.add(half[: 1 << k], w[v, k], out=half[1 << k : 2 << k])
        np.subtract(table[:size], half, out=half)
    return table


def _require_cut_budget(n: int) -> None:
    if n > DEFAULT_VERTEX_BUDGET:
        raise BudgetError(
            f"{n} vertices exceeds the enumeration budget of {DEFAULT_VERTEX_BUDGET}"
        )


def _partition_from_mask(mask: int, n: int) -> VertexPartition:
    return VertexPartition(
        tuple(U_SIDE if (mask >> v) & 1 else V_SIDE for v in range(n))
    )


def _lexicographic_keys(masks: np.ndarray, n: int) -> np.ndarray:
    # Key orders side vectors with vertex 1 most significant and U < V, so the
    # smallest key is the lexicographically smallest side vector.
    keys = np.zeros(masks.shape, dtype=np.int64)
    for v in range(n):
        keys |= (1 - ((masks >> v) & 1)).astype(np.int64) << (n - 1 - v)
    return keys


def brute_force_max_dicut(r: Relation) -> DicutResult:
    """Exhaustive maximum directed cut; ties resolved to the lexicographically
    smallest side vector (U before V, vertex 1 first)."""
    _require_cut_budget(r.n)
    table = forward_cut_table(r.adj)
    best = int(table.max())
    candidates = np.flatnonzero(table == best)
    keys = _lexicographic_keys(candidates, r.n)
    mask = int(candidates[int(np.argmin(keys))])
    result = dicut_size(r, _partition_from_mask(mask, r.n))
    assert result.forward == best
    return result


def local_search_dicut(
    r: Relation, seed: int, max_rounds: int = 10_000
) -> DicutResult:
    """Seeded hill climb for a large directed cut.

    Starts from a uniform random side assignment drawn from ``seed`` (one fair
    bit per vertex, ascending order).  Each round flips the single vertex
    whose flip most increases the forward count, first index on ties.  When no
    single flip helps but the backward direction is strictly larger, the
    partition is swapped wholesale and the climb continues.  Every accepted
    move strictly increases the forward count, so the search terminates; the
    result never falls below the initial forward count and is deterministic
    given the seed.

    The flip gain of every vertex is held in one vector (Fiduccia-Mattheyses,
    DAC 1982): a round costs one argmax over the n gains plus O(deg v) updates
    for the flipped vertex v.  Only a wholesale swap recomputes all gains.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    n = r.n
    rng = random.Random(seed)
    side = np.array([1 if rng.getrandbits(1) else -1 for _ in range(n)])  # +1 is U
    src, dst = r._arc_arrays()
    cross = src != dst
    src, dst = src[cross], dst[cross]
    # Neighbour lists with one entry per arc end: a 2-cycle partner appears twice.
    ends = np.concatenate([src, dst])
    order = np.argsort(ends)
    nbrs = np.concatenate([dst, src])[order]
    bounds = np.searchsorted(ends[order], np.arange(n + 1)).tolist()

    def gains() -> np.ndarray:
        # Moving v out of U gains (in-arcs from U) - (out-arcs into V); into U, the negation.
        in_u = np.bincount(dst[side[src] > 0], minlength=n)
        out_v = np.bincount(src[side[dst] < 0], minlength=n)
        return side * (in_u - out_v)

    forward = int(np.count_nonzero((side[src] > 0) & (side[dst] < 0)))
    gain = gains()
    for _ in range(max_rounds):
        v = int(np.argmax(gain))  # the first index among equal gains
        best = int(gain[v])
        if best > 0:
            side[v] = -side[v]
            gain[v] = -best
            # The term of each arc at a neighbour w changes by side[v] * side[w].
            near = nbrs[bounds[v] : bounds[v + 1]]
            np.add.at(gain, near, side[v] * side[near])
            forward += best
            continue
        backward = int(np.count_nonzero((side[src] < 0) & (side[dst] > 0)))
        if backward <= forward:
            break
        side = -side
        gain = gains()
        forward = backward
    partition = VertexPartition(tuple(U_SIDE if s > 0 else V_SIDE for s in side.tolist()))
    return dicut_size(r, partition)


def dicut_as_transitive(r: Relation, p: VertexPartition) -> Relation:
    """Forward arc set of a directed cut, valid as a transitive subgraph when
    the underlying graph is triangle-free; reports one witness triangle
    otherwise.  The result has no directed path of length two."""
    triangle = find_triangle(underlying_graph(r))
    if triangle is not None:
        raise TriangleFoundError(triangle)
    return forward_arcs(r, p)
