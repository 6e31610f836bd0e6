"""Binary relations as dense boolean matrices, plus digraph predicates and file formats.

A relation on ``{1..n}`` is stored as an n-by-n boolean adjacency matrix;
``adj[i][j]`` (0-based internally) records whether the arc ``(i+1, j+1)`` is
present.  Loops are permitted and count toward the arc total ``m``.  All values
are immutable once constructed and safe to share across threads.

Transitivity is checked by the cheaper of two routes, picked from the input:
walking all W two-arc walks ``a->b->c`` (W = sum over b of indeg * outdeg,
at most nm) in O(n^2 + W) time, or squaring the matrix as one float32 product
in O(n^3); the walks are taken when ``_WALK_COST * W < n^3``.  The same walk
enumeration, ``_two_arc_walks``, yields the CNF and branch-and-bound
constraints of ``_composition_walks``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ParseError

Arc = tuple[int, int]
ArcList = list[Arc]

EDGE_LIST_FORMAT = "edge-list"
MATRIX_FORMAT = "matrix"

# Largest vertex count of an edge-list header.  Relations are dense matrices and
# the float32 products of ``is_maximal_transitive`` peak near 17 bytes per cell
# (``transub check --sub`` at n=4000, m=4n: 286 MiB, 30 MiB of it interpreter).
DENSE_VERTEX_BUDGET = 10000


class Relation:
    """A binary relation on ``{1..n}``; arcs are 1-based ``(source, target)`` pairs."""

    __slots__ = ("_adj", "_m")

    def __init__(self, adj) -> None:
        arr = np.array(adj, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("vertex count must be at least 1")
        arr.setflags(write=False)
        self._adj = arr
        self._m = int(arr.sum())

    @property
    def adj(self) -> np.ndarray:
        """Read-only n-by-n boolean adjacency matrix."""
        return self._adj

    @property
    def n(self) -> int:
        return self._adj.shape[0]

    @property
    def m(self) -> int:
        """Arc count: the number of true matrix entries, loops included."""
        return self._m

    @classmethod
    def empty(cls, n: int) -> "Relation":
        return cls(np.zeros((n, n), dtype=bool))

    @classmethod
    def from_arcs(cls, n: int, arcs) -> "Relation":
        """Build a relation from 1-based arc pairs; duplicates collapse."""
        adj = np.zeros((n, n), dtype=bool)
        for u, v in arcs:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"arc ({u}, {v}) out of range 1..{n}")
            adj[u - 1, v - 1] = True
        return cls(adj)

    def arcs(self) -> ArcList:
        """All arcs in row-major order, 1-based."""
        return [(int(u) + 1, int(v) + 1) for u, v in np.argwhere(self._adj)]

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self._adj[u - 1, v - 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._adj, other._adj))

    def __hash__(self) -> int:
        return hash((self.n, self._adj.tobytes()))

    def __repr__(self) -> str:
        return f"Relation(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph: no loops, each edge stored once as ``(u, v)`` with u < v."""

    n: int
    edges: frozenset[Arc]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be at least 1")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u}, {v}) must satisfy 1 <= u < v <= n")

    @classmethod
    def from_edges(cls, n: int, edges) -> "UndirectedGraph":
        """Build from arbitrary unordered pairs; orientation and duplicates are normalized away."""
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            normalized.add((min(u, v), max(u, v)))
        return cls(n, frozenset(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[Arc]:
        return sorted(self.edges)


# ---------------------------------------------------------------------------
# Parsing and serialization
#
# Edge-list format: optional '#' comment lines; first content line "n m"; then
# one "u v" line per arc (1-based).  Matrix format: n lines of exactly n
# characters from {0, 1}.  Serializers emit arcs in row-major order without
# comments.
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Relation:
    n = None
    arcs: list[Arc] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2:
                raise ParseError("header must be two integers 'n m'", lineno)
            try:
                n, m_declared = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError(f"non-integer token in header: {line!r}", lineno) from None
            if n < 1:
                raise ParseError(f"vertex count must be at least 1, got {n}", lineno)
            if m_declared < 0:
                raise ParseError(f"arc count must be non-negative, got {m_declared}", lineno)
            if n > DENSE_VERTEX_BUDGET:
                raise BudgetError(f"{n} vertices exceeds the dense limit of {DENSE_VERTEX_BUDGET}")
            continue
        if len(tokens) != 2:
            raise ParseError(f"arc line must be two integers 'u v': {line!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer token in arc line: {line!r}", lineno) from None
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise ParseError(f"vertex index out of range [1, {n}]: ({u}, {v})", lineno)
        arcs.append((u, v))
    if n is None:
        raise ParseError("empty document: missing 'n m' header")
    return Relation.from_arcs(n, arcs)


def parse_matrix(text: str) -> Relation:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError("empty document")
    n = len(lines)
    adj = np.zeros((n, n), dtype=bool)
    for i, line in enumerate(lines):
        if len(line) != n:
            raise ParseError(f"row has {len(line)} characters, expected {n}", i + 1)
        if set(line) - {"0", "1"}:
            raise ParseError(f"characters outside {{0, 1}}: {line!r}", i + 1)
        adj[i] = np.frombuffer(line.encode("ascii"), dtype=np.uint8) == ord("1")
    return Relation(adj)


def serialize_edge_list(r: Relation) -> str:
    lines = [f"{r.n} {r.m}"]
    lines.extend(f"{u} {v}" for u, v in r.arcs())
    return "\n".join(lines) + "\n"


def serialize_matrix(r: Relation) -> str:
    text = np.full((r.n, r.n + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = r.adj.view(np.uint8) + ord("0")
    return text.tobytes().decode("ascii")


def detect_format(text: str) -> str:
    """Classify a document: a two-integer first content line means edge list, a
    pure 0/1 line means matrix.  Comment lines only occur in edge lists."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            return EDGE_LIST_FORMAT
        tokens = line.split()
        if len(tokens) == 2:
            try:
                int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError(f"unrecognized input format: {line!r}", lineno) from None
            return EDGE_LIST_FORMAT
        if len(tokens) == 1 and not (set(line) - {"0", "1"}):
            return MATRIX_FORMAT
        raise ParseError(f"unrecognized input format: {line!r}", lineno)
    raise ParseError("empty document")


def parse_relation(text: str) -> tuple[Relation, str]:
    """Parse either supported format, auto-detected; returns (relation, format name)."""
    fmt = detect_format(text)
    if fmt == EDGE_LIST_FORMAT:
        return parse_edge_list(text), fmt
    return parse_matrix(text), fmt


def serialize_relation(r: Relation, fmt: str) -> str:
    if fmt == EDGE_LIST_FORMAT:
        return serialize_edge_list(r)
    if fmt == MATRIX_FORMAT:
        return serialize_matrix(r)
    raise ValueError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Predicates and closure
# ---------------------------------------------------------------------------


def _bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Boolean matrix product via float32 BLAS; exact since every inner sum is
    # at most n < 2**24.  A float32 operand is used as is, and a shared
    # operand is converted once.
    fa = a.astype(np.float32, copy=False)
    fb = fa if b is a else b.astype(np.float32, copy=False)
    return (fa @ fb) > 0.5


# Walks per chunk of ``_two_arc_walks``: keeps each index array of a chunk at 8 MiB.
_WALK_CHUNK = 1 << 20

# The walk route of ``is_transitive`` runs when _WALK_COST * W < n**3, W the
# number of two-arc walks.  On a 2-vCPU Xeon VM (2.1 GHz, numpy 2.4.6, 2
# OpenBLAS threads) a walk cost 19 ns (full scan of the transitive total order
# at n=1000: 3.2 s for 1.7e8 walks, against 32 ms for the product), and the
# float32 product 3.2e-11 / 2.5e-11 / 1.4e-11 s per n^3 at n=1000 / 2000 /
# 4000: the routes break even near 600-1400.
_WALK_COST = 1024


def _two_arc_walks(src: np.ndarray, dst: np.ndarray, n: int):
    """Yield every two-arc walk ``(a, b), (b, c)`` as arc-index arrays ``(i1, i2)``.

    ``src``/``dst`` are the row-major arcs of ``np.nonzero(adj)``.  ``i1``
    runs in row-major order and ``i2`` over the successors of ``b`` in
    ascending order.  Each chunk holds whole runs of first arcs and at most
    ``_WALK_CHUNK`` walks, unless one first arc alone has more.
    """
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    counts = offsets[dst + 1] - offsets[dst]  # out-degree of b, per arc
    ends = np.cumsum(counts)
    start, done = 0, 0
    while start < len(src):
        stop = max(int(np.searchsorted(ends, done + _WALK_CHUNK, side="right")), start + 1)
        cnt = counts[start:stop]
        lead = ends[start:stop] - cnt - done  # first walk of each arc in the chunk
        i1 = np.repeat(np.arange(start, stop), cnt)
        i2 = np.arange(len(i1)) + np.repeat(offsets[dst[start:stop]] - lead, cnt)
        yield i1, i2
        start, done = stop, int(ends[stop - 1])


def _transitive_by_walks(adj: np.ndarray) -> bool:
    # Every two-arc walk a->b->c needs the arc a->c; stop at the first missing.
    src, dst = np.nonzero(adj)
    for i1, i2 in _two_arc_walks(src, dst, adj.shape[0]):
        if not adj[src[i1], dst[i2]].all():
            return False
    return True


def is_transitive(r: Relation) -> bool:
    """True iff for all a, b, c (repeats allowed): a->b and b->c imply a->c.

    With W = sum over b of indeg(b) * outdeg(b) two-arc walks, a sparse
    relation checks ``adj[a, c]`` walk by walk, in O(n^2 + W) time and O(n + m)
    extra memory, stopping at the first missing arc; when ``_WALK_COST * W``
    reaches n^3 the relation is squared as one float32 product instead.
    """
    adj = r.adj
    walks = int(np.count_nonzero(adj, axis=0) @ np.count_nonzero(adj, axis=1))
    if _WALK_COST * walks < r.n ** 3:
        return _transitive_by_walks(adj)
    return not bool(np.any(_bool_product(adj, adj) & ~adj))


def transitive_closure(r: Relation) -> Relation:
    """Smallest transitive relation containing ``r``, by Warshall's algorithm.

    Reachability by nonempty paths: ``(i, i)`` appears only when ``i`` lies on
    a directed cycle; no reflexive padding is added.
    """
    adj = r.adj.copy()
    for k in range(r.n):  # pivot outermost; the inner loops are one outer product
        adj |= adj[:, k : k + 1] & adj[k : k + 1, :]
    return Relation(adj)


def is_subrelation(a: Relation, b: Relation) -> bool:
    """True iff every arc of ``a`` is an arc of ``b``."""
    if a.n != b.n:
        raise ValueError(f"vertex count mismatch: {a.n} != {b.n}")
    return not bool(np.any(a.adj & ~b.adj))


def underlying_graph(r: Relation) -> UndirectedGraph:
    """Forget arc directions and drop loops."""
    sym = r.adj | r.adj.T
    edges = frozenset(
        (int(u) + 1, int(v) + 1) for u, v in np.argwhere(np.triu(sym, k=1))
    )
    return UndirectedGraph(r.n, edges)


def find_triangle(g: UndirectedGraph) -> tuple[int, int, int] | None:
    """Return one triangle as a sorted vertex triple, or None."""
    masks = [0] * (g.n + 1)
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    for u, v in g.sorted_edges():
        common = masks[u] & masks[v]
        if common:
            w = (common & -common).bit_length() - 1  # lowest common neighbor
            return tuple(sorted((u, v, w)))  # type: ignore[return-value]
    return None


def is_triangle_free(g: UndirectedGraph) -> bool:
    """True iff no three vertices are pairwise adjacent."""
    return find_triangle(g) is None


def _composition_walks(r: Relation) -> tuple[ArcList, list[tuple[int, int, int]]]:
    """Row-major arcs and the transitivity constraint of every two-arc walk.

    Each walk ``(a, b), (b, c)`` of ``_two_arc_walks`` is an arc-index triple
    ``(i1, i2, req)``: choosing both premises ``arcs[i1]`` and ``arcs[i2]``
    requires the forced arc ``(a, c)`` at index ``req``, or is forbidden when
    ``req == -1`` (the forced arc is absent).  Walks whose forced arc is one
    of the premises (``a == b`` or ``b == c``) are skipped: they hold
    whenever the premises do.
    """
    adj = r.adj
    src, dst = np.nonzero(adj)
    codes = src * r.n + dst  # ascending, as the arcs are row-major
    walks: list[tuple[int, int, int]] = []
    for i1, i2 in _two_arc_walks(src, dst, r.n):
        a, b, c = src[i1], dst[i1], dst[i2]
        keep = (a != b) & (b != c)
        i1, i2, a, c = i1[keep], i2[keep], a[keep], c[keep]
        req = np.searchsorted(codes, a * r.n + c)
        req[~adj[a, c]] = -1
        walks.extend(zip(i1.tolist(), i2.tolist(), req.tolist()))
    arcs = list(zip((src + 1).tolist(), (dst + 1).tolist()))
    return arcs, walks


def has_path_length_two(r: Relation) -> bool:
    """True iff some vertex has both an incoming and an outgoing arc
    (endpoints of the two-step walk may coincide)."""
    adj = r.adj
    return bool(np.any(adj.any(axis=0) & adj.any(axis=1)))
