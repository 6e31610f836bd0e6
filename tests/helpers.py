"""Independent oracles and generators shared across the test suite.

Oracles here deliberately avoid the library's code paths: transitivity by
triple loop, closure by iterated squaring over bitmask rows, maximality by one
closure per candidate arc, cuts by direct enumeration, the greedy cut by
neighbor sets, CNF clauses by a scan over every cell triple, the matrix format
by a per-cell join.  They are the second route of every dual-route check.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import strategies as st

from transub import Relation, UndirectedGraph


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


def oracle_serialize_matrix(r: Relation) -> str:
    rows = ["".join("1" if r.has_arc(i, j) else "0" for j in range(1, r.n + 1))
            for i in range(1, r.n + 1)]
    return "\n".join(rows) + "\n"


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
