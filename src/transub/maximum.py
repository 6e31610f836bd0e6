"""Maximum transitive subgraphs, directed cuts, and the quarter approximation.

Exact routines are enumeration-based and budgeted so the worst case stays
around 10^7 candidate checks: ``brute_force_mts`` searches arc subsets (default
budget 22 arcs) against the walk chunks of ``relation._composition_walks``,
checked by the clause rule of ``sat``, and ``brute_force_max_dicut`` scores
every vertex bipartition through the forward cut table (at most 20
vertices), an int32 table built by subset doubling, one vertex at a time,
with no float array and no matrix product.  ``quarter_approx`` keeps the
heavier direction of a greedy cut, taken on the adjacency matrix or on
neighbour lists as ``relation._route`` picks, and always returns a
transitive arc set of size at least m/4, loops and 2-cycles included: where
that cut keeps fewer, the same greedy on the lists, with each edge weighed
by its arcs, gives the heavier direction, and every loop is kept too.  On
loop-free input the result has no directed path of length two.  The dicut
counts (``dicut_size``, ``forward_arcs``) and the local search run on the arcs
and build no matrix.  All tie-breaks are deterministic, so results repeat bit
for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import _check_limit
from .relation import (
    Relation,
    UndirectedGraph,
    _composition_walks,
    _distinct,
    _low_bits_first,
    _require_triangle_free,
    _route,
    _row_starts,
    _subset_sums,
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


def _partition(u) -> VertexPartition:
    # The partition of a side vector: U where ``u`` is true.
    return VertexPartition(tuple(np.where(u, U_SIDE, V_SIDE).tolist()))


def _u_vector(r: Relation, p: VertexPartition) -> np.ndarray:
    # The side vector of ``p`` (True for U), checked against the vertices of ``r``.
    if p.n != r.n:
        raise ValueError(f"partition covers {p.n} vertices, relation has {r.n}")
    return np.fromiter((s == U_SIDE for s in p.side), dtype=bool, count=p.n)


def _crossing(u: np.ndarray, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Masks over the arcs (or, for broadcast index grids, the cells): U to V,
    # and V to U.  Loops and same-side arcs are in neither.
    tail, head = u[src], u[dst]
    return tail & ~head, head & ~tail


def _heavier(forward: np.ndarray, backward: np.ndarray) -> np.ndarray:
    # The crossing mask with more arcs; ties go to the forward, U-to-V, direction.
    return forward if np.count_nonzero(forward) >= np.count_nonzero(backward) else backward


def dicut_size(r: Relation, p: VertexPartition) -> DicutResult:
    """Count arcs crossing the partition in each direction; loops and
    same-side arcs count in neither."""
    forward, backward = _crossing(_u_vector(r, p), *r._arc_arrays())
    return DicutResult(p, int(np.count_nonzero(forward)), int(np.count_nonzero(backward)))


def forward_arcs(r: Relation, p: VertexPartition) -> Relation:
    """The arcs going from the U side to the V side, as a relation."""
    keep, _ = _crossing(_u_vector(r, p), *r._arc_arrays())
    return Relation._from_sorted_codes(r.n, r._arc_codes()[keep])


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


def _lower_codes(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # The codes ``v * n + w`` (w < v) of the pairs {a, b} that are not loops,
    # ascending; a pair given twice keeps both codes.
    cross = a != b
    a, b = a[cross], b[cross]
    return np.sort(np.maximum(a, b) * n + np.minimum(a, b))


def _greedy_sides_by_lists(n: int, edges: np.ndarray) -> list[bool]:
    # ``_greedy_sides`` over lists of lower neighbours instead of matrix rows;
    # ``edges`` holds the ``_lower_codes`` of the edges.  An edge listed twice
    # counts twice, so a greedy over the codes of the arcs weighs each edge
    # by the arcs it carries.
    bounds = _row_starts(edges, n).tolist()  # edges sort by v
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
    pairs = np.array(list(g.edges), dtype=np.int64).reshape(-1, 2) - 1
    return _partition(_greedy_sides_by_lists(g.n, _lower_codes(g.n, pairs[:, 0], pairs[:, 1])))


def _quarter_by_arcs(r: Relation, weighted: bool = False) -> Relation:
    # ``quarter_approx`` on the arcs: the greedy cut over lists of lower
    # neighbours, then the heavier direction kept by masking the arcs.  Each
    # edge counts once; weighted, as in ``quarter_approx``'s fallback, it
    # counts once per arc, and every loop is kept as well.  The index arrays
    # of the arcs are derived again after the greedy, not held through it.
    edges = _lower_codes(r.n, *r._arc_arrays())
    side = np.array(_greedy_sides_by_lists(r.n, edges if weighted else _distinct(edges)))
    src, dst = r._arc_arrays()
    keep = _heavier(*_crossing(side, src, dst))
    if weighted:
        keep |= src == dst
    return Relation._from_sorted_codes(r.n, r._arc_codes()[keep])


def _quarter_by_matrix(r: Relation) -> Relation:
    # ``quarter_approx`` on the matrix: the greedy cut over the rows of the
    # symmetric matrix, then the heavier direction kept by masking the cells.
    u = _greedy_sides(r.adj | r.adj.T)
    cells = _crossing(u, *np.ogrid[: r.n, : r.n])
    return Relation._from_matrix(_heavier(*(r.adj & mask for mask in cells)))


def quarter_approx(r: Relation) -> Relation:
    """Transitive subgraph of size >= m/4: greedily bipartition the underlying
    graph, then keep every arc of the heavier direction across the cut (ties
    go to the forward, U-to-V, direction).  On loop-free input the result lies
    within one direction of a cut, so it contains no directed path of length
    two.

    The greedy runs over lower neighbour lists, keeping the heavier direction
    by masking the arcs, or on the matrix, as ``relation._route`` picks
    (``relation._ROUTE_COSTS``).  That cut counts an edge carrying a 2-cycle
    once and keeps no loop, so it can keep fewer than m/4 arcs.  Only then
    does the greedy run again with each edge weighed by its arcs: that cut
    holds at least half of the m' non-loop arcs (Sahni and Gonzalez, JACM
    1976), so its heavier direction holds m'/4, and every loop is added.  The
    result stays transitive, as any two-arc path in it runs through a loop
    and its other arc is in the set.
    """
    out = _quarter_by_arcs(r) if _route("quarter", r) == "arcs" else _quarter_by_matrix(r)
    return out if 4 * out.m >= r.m else _quarter_by_arcs(r, weighted=True)


# ---------------------------------------------------------------------------
# Exact maximum transitive subgraph
# ---------------------------------------------------------------------------


def brute_force_mts(r: Relation) -> Relation:
    """Exact maximum transitive sub-relation by branch-and-bound over arc
    subsets; among maximum-size answers, the lexicographically smallest arc
    set in row-major order is returned.

    The constraints are the two-arc walks of ``relation._composition_walks``,
    the same set the CNF encoder emits as clauses.  Each walk is checked once
    its highest arc index has been decided, as the bit masks ``premises`` of
    its two premises and ``both`` of the premises and the forced arc: an arc
    mask violates it exactly when ``mask & both == premises``.  That is the
    clause rule ``mask & (pos | neg) == neg`` of ``sat._clause_masks``, with
    the forced arc as the positive literal (none when it is absent).
    """
    _check_limit(r.m, DEFAULT_ARC_BUDGET, "{} arcs exceeds the enumeration budget")
    m = r.m
    by_last: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for i1, i2, req in _composition_walks(r):
        for one, two, need in zip(i1.tolist(), i2.tolist(), req.tolist()):
            premises = (1 << one) | (1 << two)
            both = premises | (1 << need if need >= 0 else 0)
            by_last[max(one, two, need)].append((both, premises))

    best_size = 0
    best_mask = 0

    def consistent(mask: int, checks) -> bool:
        for both, premises in checks:
            if mask & both == premises:
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
    keep = (best_mask >> np.arange(m)) & 1 == 1
    return Relation._from_sorted_codes(r.n, r._arc_codes()[keep])


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
    the diagonal.  The sum for all masks is itself built by doubling
    (``relation._subset_sums``), in place in the half of the table it feeds.
    About 2 * 2^n int32 additions, with no float array and no matrix
    product.  More than ``DEFAULT_VERTEX_BUDGET`` vertices raise
    ``BudgetError`` before the table is allocated; the routines that build
    the matrix for it check the same limit before the matrix.
    """
    n = adj.shape[0]
    _require_cut_budget(n)
    a = adj.astype(np.int32) * ~np.eye(n, dtype=bool)  # no loop in w or out
    w = a + a.T
    out = a.sum(axis=1)
    table = np.empty(1 << n, dtype=np.int32)
    table[0] = 0  # the doubling writes every other entry
    for v in range(n):
        half = table[1 << v : 2 << v]
        half[0] = -out[v]  # half[mask] becomes sum(w[v, u] for u in mask) - out(v)
        _subset_sums(w[v, :v], half)
        np.subtract(table[: 1 << v], half, out=half)
    return table


def _require_cut_budget(n: int) -> None:
    _check_limit(n, DEFAULT_VERTEX_BUDGET, "{} vertices exceeds the enumeration budget")


def brute_force_max_dicut(r: Relation) -> DicutResult:
    """Exhaustive maximum directed cut; ties resolved to the lexicographically
    smallest side vector (U before V, vertex 1 first).  That is the rule of
    ``relation._low_bits_first`` over masks with bit v set for vertex v+1 in
    U, the one tie-break that ``sat.max_ones_brute_force`` uses too."""
    _require_cut_budget(r.n)
    table = forward_cut_table(r.adj)
    best = int(table.max())
    mask = _low_bits_first(np.flatnonzero(table == best), r.n)
    result = dicut_size(r, _partition((mask >> np.arange(r.n)) & 1))
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
    # Neighbour lists with one entry per arc end, as the codes of both
    # directions of each arc: a 2-cycle partner appears twice.
    ends = np.sort(np.concatenate([src * n + dst, dst * n + src]))
    nbrs, bounds = ends % n, _row_starts(ends, n).tolist()

    def gains() -> np.ndarray:
        # Moving v out of U gains (in-arcs from U) - (out-arcs into V); into U, the negation.
        in_u = np.bincount(dst[side[src] > 0], minlength=n)
        out_v = np.bincount(src[side[dst] < 0], minlength=n)
        return side * (in_u - out_v)

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
            continue
        forward, backward = map(np.count_nonzero, _crossing(side > 0, src, dst))
        if backward <= forward:
            break
        side = -side
        gain = gains()
    return dicut_size(r, _partition(side > 0))


def dicut_as_transitive(r: Relation, p: VertexPartition) -> Relation:
    """Forward arc set of a directed cut, valid as a transitive subgraph when
    the underlying graph is triangle-free; reports one witness triangle
    otherwise.  The result has no directed path of length two."""
    _require_triangle_free(underlying_graph(r))
    return forward_arcs(r, p)
