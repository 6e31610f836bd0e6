"""Independent oracles and generators shared across the test suite.

Oracles here deliberately avoid the library's code paths: transitivity by
triple loop, closure by iterated squaring over bitmask rows or by Warshall's loop on the
boolean matrix, maximality by one closure per candidate arc or by two float32
products, maximal extension by one closure or one matrix block per candidate
arc, the maximal sweep and its trace by cell scans over
nested lists, the matrix parser by a per-row character set, format detection
by splitting every line of the document, the triangle-free generator by
sampling a list of every cross pair, cuts by direct enumeration, by masking
the matrix or by float32 side-bit products, the balance scan by the direct
formula per bipartition, the underlying graph by the upper triangle of the
symmetrized matrix, the local search by a rescan of every vertex each round,
the greedy cut by neighbor sets, CNF clauses by a scan over every cell triple,
the matrix format by a per-cell join.  They are the second route of every
dual-route check.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
from hypothesis import strategies as st

from transub import (
    DENSE_VERTEX_BUDGET,
    BudgetError,
    DicutResult,
    MaximalTrace,
    ParseError,
    Relation,
    UndirectedGraph,
    VertexPartition,
)
from transub.relation import Arc


# ---------------------------------------------------------------------------
# Exhaustive generators
# ---------------------------------------------------------------------------


def ordered_pairs(n: int, loops: bool) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if loops or i != j
    ]


def relation_from_mask(n: int, pairs: list[tuple[int, int]], mask: int) -> Relation:
    return Relation.from_arcs(
        n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
    )


def all_relations(n: int, loops: bool) -> list[Relation]:
    pairs = ordered_pairs(n, loops)
    return [relation_from_mask(n, pairs, mask) for mask in range(1 << len(pairs))]


def random_digraph(rng: random.Random, n: int, p: float, loops: bool = False) -> Relation:
    arcs = [pair for pair in ordered_pairs(n, loops) if rng.random() < p]
    return Relation.from_arcs(n, arcs)


def wide_matrix(n: int, p: float, seed: int) -> np.ndarray:
    """A seeded random n-by-n boolean matrix of density p with loops and
    2-cycles, some of them in the last column, the end of the packed rows."""
    adj = np.random.default_rng(seed).random((n, n)) < p
    adj[[0, n - 1], [0, n - 1]] = True
    adj[1, n - 1] = adj[n - 1, 1] = True
    return adj


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def oracle_is_transitive(r: Relation) -> bool:
    adj = r.adj
    n = r.n
    for a in range(n):
        for b in range(n):
            if not adj[a, b]:
                continue
            for c in range(n):
                if adj[b, c] and not adj[a, c]:
                    return False
    return True


def oracle_closure_arcs(r: Relation) -> set[tuple[int, int]]:
    """Transitive closure by iterated squaring: R <- R | R.R until stable."""
    return closure_of_arcs(r.n, r.arcs())


def closure_of_arcs(n: int, arcs) -> set[tuple[int, int]]:
    rows = [0] * n
    for u, v in arcs:
        rows[u - 1] |= 1 << (v - 1)
    while True:
        squared = []
        for i in range(n):
            acc = rows[i]
            reach = rows[i]
            k = 0
            while reach:
                if reach & 1:
                    acc |= rows[k]
                reach >>= 1
                k += 1
            squared.append(acc)
        if squared == rows:
            return {
                (i + 1, j + 1)
                for i in range(n)
                for j in range(n)
                if (rows[i] >> j) & 1
            }
        rows = squared


def oracle_is_maximal_transitive(host: Relation, t: Relation) -> bool:
    """Maximality by closing ``t`` plus each host arc outside it: ``t`` is
    maximal iff every such closure leaves the host."""
    host_arcs = host.arcs()
    inside = set(host_arcs)
    base = set(t.arcs())
    return not any(
        closure_of_arcs(host.n, base | {arc}) <= inside
        for arc in host_arcs
        if arc not in base
    )


def oracle_extend_to_maximal(host: Relation, t: Relation) -> Relation:
    """Try host arcs outside the running set in row-major order; commit an
    arc by taking the closure of set-plus-arc when it stays inside the host."""
    host_arcs = host.arcs()
    inside = set(host_arcs)
    current = set(t.arcs())
    for arc in host_arcs:
        if arc not in current:
            closure = closure_of_arcs(host.n, current | {arc})
            if closure <= inside:
                current = closure
    return Relation.from_arcs(host.n, current)


def oracle_warshall_closure(r: Relation) -> Relation:
    """Transitive closure by Warshall's loop on the boolean matrix: for each
    pivot k, OR in the outer product of column k and row k."""
    adj = r.adj.copy()
    for k in range(r.n):
        adj |= adj[:, k : k + 1] & adj[k : k + 1, :]
    return Relation(adj)


def oracle_is_maximal_by_products(host: Relation, t: Relation) -> bool:
    """Maximality of transitive ``t`` by two float32 matrix products.  Closing
    ``t`` plus ``(u, v)`` adds ``A(u) x B(v)``, ``A(u) = {u} | pred(u)``,
    ``B(v) = {v} | succ(v)``; with ``P = t | I`` that block leaves ``host`` iff
    ``(P^T . ~host . P^T)[u, v]`` is nonzero.  float32 is exact: every inner
    sum is at most n < 2**24."""
    pt = (t.adj | np.eye(t.n, dtype=bool)).astype(np.float32).T
    inner = ((1 - host.adj.astype(np.float32)) @ pt > 0.5).astype(np.float32)
    escapes = pt @ inner > 0.5
    return not bool(np.any(host.adj & ~t.adj & ~escapes))


def oracle_extend_by_blocks(host: Relation, t: Relation) -> Relation:
    """Try host arcs outside the running set in row-major order, one at a
    time; commit ``(u, v)`` by setting the matrix block ``A(u) x B(v)`` when
    that block lies inside the host."""
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


def oracle_maximal_cell_scan(r: Relation) -> Relation:
    """The maximal sweep as a cell scan over nested lists: for each present
    arc (i, j) with i != j, in row-major order, every absent (i, k) deletes
    (j, k) for k != j, and every absent (k, j) deletes (k, i) for k != i."""
    n = r.n
    grid = [[False] * n for _ in range(n)]
    for u, v in r.arcs():
        grid[u - 1][v - 1] = True
    for i in range(n):
        for j in range(n):
            if j == i or not grid[i][j]:
                continue
            for k in range(n):
                if k != j and not grid[i][k]:
                    grid[j][k] = False
                if k != i and not grid[k][j]:
                    grid[k][i] = False
    return Relation.from_arcs(n, [(i + 1, j + 1) for i in range(n) for j in range(n) if grid[i][j]])


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


def oracle_traced_run(r: Relation, row_extract: bool) -> tuple[Relation, MaximalTrace]:
    """The traced maximal sweep by explicit loops over a nested-list copy of
    the matrix: one event per 1->0 flip, in k order within each sweep."""
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


def oracle_serialize_matrix(r: Relation) -> str:
    rows = ["".join("1" if r.has_arc(i, j) else "0" for j in range(1, r.n + 1))
            for i in range(1, r.n + 1)]
    return "\n".join(rows) + "\n"


def oracle_parse_matrix(text: str) -> Relation:
    """The 0/1 matrix document row by row: the row limit first, then for each
    row its length before its alphabet, checked with a set of characters."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError("empty document")
    n = len(lines)
    if n > DENSE_VERTEX_BUDGET:
        raise BudgetError(f"{n} vertices exceeds the dense limit of {DENSE_VERTEX_BUDGET}")
    adj = np.zeros((n, n), dtype=bool)
    for i, line in enumerate(lines):
        if len(line) != n:
            raise ParseError(f"row has {len(line)} characters, expected {n}", i + 1)
        if set(line) - {"0", "1"}:
            raise ParseError(f"characters outside {{0, 1}}: {line!r}", i + 1)
        adj[i] = [c == "1" for c in line]
    return Relation(adj)


def oracle_detect_format(text: str) -> str:
    """The format of the first non-blank line, found by splitting the whole
    document into lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            return "edge-list"
        tokens = line.split()
        if len(tokens) == 2:
            try:
                int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError(f"unrecognized input format: {line!r}", lineno) from None
            return "edge-list"
        if len(tokens) == 1 and not (set(line) - {"0", "1"}):
            return "matrix"
        raise ParseError(f"unrecognized input format: {line!r}", lineno)
    raise ParseError("empty document")


def oracle_forward_counts(r: Relation) -> list[int]:
    """Forward cut size for every side mask (bit v set = vertex v+1 in U)."""
    arcs = r.arcs()
    n = r.n
    return [
        sum(
            1
            for u, v in arcs
            if (mask >> (u - 1)) & 1 and not (mask >> (v - 1)) & 1
        )
        for mask in range(1 << n)
    ]


def _side_bits(h: int) -> np.ndarray:
    # Row ``mask`` holds the 0/1 side bits of a half-mask: column v is 1 when
    # vertex v of the half is in U.
    return ((np.arange(1 << h)[:, None] >> np.arange(h)) & 1).astype(np.float32)


def oracle_forward_cut_table_products(adj: np.ndarray) -> np.ndarray:
    """Forward cut size for every vertex bipartition.

    Entry ``mask`` (bit v set means vertex v+1 is in U) counts arcs from U to
    V.  Vertices split into a low half ``a`` (``h`` bits) and a high half
    ``b``, with side-bit matrices ``X_a`` and ``X_b``.  Arcs within a half
    count as the row sums of ``(X . A) * (1 - X)``, and the arcs between the
    halves as ``[X_b . A_ba, (1 - X_b) . A_ab^T] . [1 - X_a, X_a]^T``, laid out
    ``[mask_b, mask_a]`` so that the C-order ravel is indexed by
    ``mask_a | mask_b << h``.  Loops fall on the diagonal, where
    ``X * (1 - X)`` is zero.  float32 is exact: every count is at most
    n^2 < 2^24.
    """
    n = adj.shape[0]
    h = (n + 1) // 2
    a = adj.astype(np.float32)
    xa, xb = _side_bits(h), _side_bits(n - h)
    same_a = ((xa @ a[:h, :h]) * (1 - xa)).sum(axis=1)
    same_b = ((xb @ a[h:, h:]) * (1 - xb)).sum(axis=1)
    cross = np.hstack([xb @ a[h:, :h], (1 - xb) @ a[:h, h:].T]) @ np.hstack([1 - xa, xa]).T
    return (cross + same_a + same_b[:, None]).astype(np.int32).ravel()


def oracle_balanced_fraction(r: Relation, k: int, delta: float) -> float:
    """Fraction of the cuts of total size >= k with |forward - backward| <=
    delta * total / 2, 1.0 when there is none, over the side masks with vertex
    1 in U; the backward counts are the forward counts of the reversed
    relation.  A cut with no imbalance is balanced for every delta, infinite
    included, so the formula is never evaluated as inf * 0."""
    forward = oracle_forward_counts(r)
    backward = oracle_forward_counts(Relation.from_arcs(r.n, [(v, u) for u, v in r.arcs()]))
    large = balanced = 0
    for mask in range(1, 1 << r.n, 2):
        total, imbalance = forward[mask] + backward[mask], abs(forward[mask] - backward[mask])
        if total >= k:
            large += 1
            balanced += imbalance == 0 or imbalance <= delta * total / 2
    return balanced / large if large else 1.0


def oracle_random_triangle_free_graph(n: int, m: int, seed: int) -> UndirectedGraph:
    """m cross pairs of the {1..ceil(n/2)} / rest split, sampled without
    replacement from the list of every cross pair in row-major order."""
    left = (n + 1) // 2
    pairs = [(u, v) for u in range(1, left + 1) for v in range(left + 1, n + 1)]
    return UndirectedGraph.from_edges(n, random.Random(seed).sample(pairs, m))


def oracle_underlying_graph(r: Relation) -> UndirectedGraph:
    """Arc directions forgotten and loops dropped, from the upper triangle of
    the symmetrized matrix."""
    sym = r.adj | r.adj.T
    edges = frozenset((int(u) + 1, int(v) + 1) for u, v in np.argwhere(np.triu(sym, k=1)))
    return UndirectedGraph(r.n, edges)


def oracle_dicut_size(r: Relation, p: VertexPartition) -> DicutResult:
    """Arcs crossing the partition in each direction, by masking the matrix
    with the outer products of the side vector."""
    if p.n != r.n:
        raise ValueError(f"partition covers {p.n} vertices, relation has {r.n}")
    u = np.array([s == "U" for s in p.side])
    forward = int((r.adj & np.outer(u, ~u)).sum())
    backward = int((r.adj & np.outer(~u, u)).sum())
    return DicutResult(p, forward, backward)


def oracle_forward_arcs(r: Relation, p: VertexPartition) -> Relation:
    """The U-to-V arcs, by masking the matrix."""
    if p.n != r.n:
        raise ValueError(f"partition covers {p.n} vertices, relation has {r.n}")
    u = np.array([s == "U" for s in p.side])
    return Relation(r.adj & np.outer(u, ~u))


def oracle_local_search_dicut(
    r: Relation, seed: int, max_rounds: int = 10_000
) -> DicutResult:
    """The seeded hill climb of ``local_search_dicut``, rescanning every
    vertex and every arc each round: flip the first vertex of largest positive
    gain, else swap the sides wholesale when the backward count is larger."""
    if max_rounds < 1:
        raise ValueError("max_rounds must be at least 1")
    n = r.n
    rng = random.Random(seed)
    in_u = [bool(rng.getrandbits(1)) for _ in range(n)]

    cross = [(u - 1, v - 1) for u, v in r.arcs() if u != v]
    out_of: list[list[int]] = [[] for _ in range(n)]
    in_of: list[list[int]] = [[] for _ in range(n)]
    for u, v in cross:
        out_of[u].append(v)
        in_of[v].append(u)

    def forward_count() -> int:
        return sum(1 for u, v in cross if in_u[u] and not in_u[v])

    def backward_count() -> int:
        return sum(1 for u, v in cross if not in_u[u] and in_u[v])

    forward = forward_count()
    rounds = 0
    while rounds < max_rounds:
        best_delta = 0
        best_vertex = -1
        for v in range(n):
            delta = 0
            if in_u[v]:
                for w in out_of[v]:
                    delta -= not in_u[w]
                for w in in_of[v]:
                    delta += in_u[w]
            else:
                for w in out_of[v]:
                    delta += not in_u[w]
                for w in in_of[v]:
                    delta -= in_u[w]
            if delta > best_delta:
                best_delta = delta
                best_vertex = v
        if best_vertex >= 0:
            in_u[best_vertex] = not in_u[best_vertex]
            forward += best_delta
            rounds += 1
            continue
        backward = backward_count()
        if backward > forward:
            in_u = [not s for s in in_u]
            forward = backward
            rounds += 1
            continue
        break
    partition = VertexPartition(tuple("U" if s else "V" for s in in_u))
    return oracle_dicut_size(r, partition)


def oracle_greedy_bipartition(g: UndirectedGraph) -> tuple[str, ...]:
    """Greedy cut by neighbor sets: vertices in ascending order, each to the
    side opposite most of its placed neighbors, ties to U; returns the labels."""
    nbrs: list[set[int]] = [set() for _ in range(g.n + 1)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    side: list[str] = []
    for v in range(1, g.n + 1):
        placed_u = sum(1 for w in nbrs[v] if w < v and side[w - 1] == "U")
        placed_v = sum(1 for w in nbrs[v] if w < v and side[w - 1] == "V")
        side.append("U" if placed_v >= placed_u else "V")
    return tuple(side)


def oracle_quarter_approx(r: Relation) -> Relation:
    """Greedy cut of the underlying graph, then the arcs of the heavier
    direction across it, ties to U-to-V."""
    graph = UndirectedGraph.from_edges(r.n, [(a, b) for a, b in r.arcs() if a != b])
    side = oracle_greedy_bipartition(graph)
    forward = [(a, b) for a, b in r.arcs() if side[a - 1] == "U" and side[b - 1] == "V"]
    backward = [(a, b) for a, b in r.arcs() if side[a - 1] == "V" and side[b - 1] == "U"]
    return Relation.from_arcs(r.n, forward if len(forward) >= len(backward) else backward)


def oracle_max_transitive_size(r: Relation) -> int:
    """Maximum transitive subset size by direct subset enumeration."""
    arcs = r.arcs()
    best = 0
    for size in range(len(arcs), 0, -1):
        if size <= best:
            break
        for subset in itertools.combinations(arcs, size):
            if oracle_is_transitive(Relation.from_arcs(r.n, subset)):
                return size
    return best


def oracle_mts_clauses(r: Relation) -> list[list[int]]:
    """Max-ones transitivity clauses by a scan over every matrix cell triple
    ``(i, k, j)``, in the encoder's clause and literal order."""
    var_of = {arc: v for v, arc in enumerate(r.arcs(), start=1)}
    adj = r.adj
    n = r.n
    clauses: list[list[int]] = []
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            if k == i or not adj[i - 1, k - 1]:
                continue  # k == i forces (i, j) == (k, j): auto-satisfied
            for j in range(1, n + 1):
                if j == k or not adj[k - 1, j - 1]:
                    continue  # j == k forces (i, j) == (i, k): auto-satisfied
                premise = [-var_of[(i, k)], -var_of[(k, j)]]
                if adj[i - 1, j - 1]:
                    clauses.append([var_of[(i, j)]] + premise)
                else:
                    clauses.append(premise)
    return clauses


def cut_edge_count(g: UndirectedGraph, u_vertices: set[int]) -> int:
    return sum(1 for a, b in g.edges if (a in u_vertices) != (b in u_vertices))


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------


@st.composite
def relations(draw, max_n: int = 6, loops: bool = True) -> Relation:
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = ordered_pairs(n, loops)
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return Relation.from_arcs(n, chosen)


@st.composite
def undirected_graphs(draw, max_n: int = 8) -> UndirectedGraph:
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return UndirectedGraph.from_edges(n, chosen)
