"""Binary relations in two views, plus digraph predicates and file formats.

A relation on ``{1..n}`` has two views: the n-by-n boolean adjacency matrix
``adj`` (``adj[i][j]``, 0-based, records the arc ``(i+1, j+1)``), and the
row-major 0-based ``src``/``dst`` index arrays of its distinct arcs.  A
relation holds the view it was built from, so parsing an edge list allocates
no n^2 cells, and builds the other view on first use.  Loops are permitted
and count toward the arc total ``m``.  All values are immutable once
constructed; two threads that build the same missing view at once store equal
arrays, so relations are safe to share across threads.

Every operation with an arc route and a row route (``is_transitive``, the
untraced maximal v2 sweep and ``quarter_approx``) takes the one that
``_route`` prices lower in the cost table ``_ROUTE_COSTS``, from n, m, the
number W of two-arc walks and the views held; outputs do not depend on the
route.  ``is_subrelation`` has no table entry: it reads the views that its
two relations hold, and builds none.
Transitivity walks all W two-arc walks ``a->b->c`` (W = sum
over b of indeg * outdeg, at most nm) in O(n + m + W log m) time, or tests
that each matrix row, packed into 64-bit words, contains the rows of its
successors, in O(n^2 + m * n / 64).  The same walk enumeration,
``_two_arc_walks``, yields the CNF and branch-and-bound constraints of
``_composition_walks``.  The closure, and the dense v2 sweep,
maximality check and extension of ``maximal``, run on the same packed rows
(``_packed_rows``), whose set bits ``_members`` lists.
"""

from __future__ import annotations

import math
import operator
import re
import time
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, TriangleFoundError, _check_limit

Arc = tuple[int, int]
ArcList = list[Arc]

EDGE_LIST_FORMAT = "edge-list"
MATRIX_FORMAT = "matrix"

# Largest vertex count of an edge-list header or a matrix input.  Routes that
# need the matrix build it from the arcs at one byte per cell, 95 MiB at this
# limit.  The maximality check holds two matrices and their packed rows:
# ``transub check --sub`` on an edge list with m=4n peaked at 66 MiB RSS at
# n=4000 and 176 MiB at n=8000, about 31 MiB of it interpreter.
DENSE_VERTEX_BUDGET = 10000

# Largest n whose 0-based cell codes ``u * n + v``, up to n^2 - 1, fit int64.
_CODED_VERTEX_LIMIT = 3037000499


class Relation:
    """A binary relation on ``{1..n}``; arcs are 1-based ``(source, target)`` pairs."""

    __slots__ = ("_n", "_m", "_adj", "_src", "_dst", "_deg")

    def __init__(self, adj) -> None:
        arr = np.array(adj, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("vertex count must be at least 1")
        self._n, self._m, self._adj = arr.shape[0], int(np.count_nonzero(arr)), _frozen(arr)
        self._src = self._dst = self._deg = None

    @classmethod
    def _from_matrix(cls, adj: np.ndarray) -> "Relation":
        """Freeze a square boolean matrix that only its caller built; no copy."""
        r = cls.__new__(cls)
        r._n, r._m, r._adj = adj.shape[0], int(np.count_nonzero(adj)), _frozen(adj)
        r._src = r._dst = r._deg = None
        return r

    @classmethod
    def _from_arc_arrays(cls, n: int, src: np.ndarray, dst: np.ndarray) -> "Relation":
        """Wrap the row-major 0-based index arrays of distinct arcs; no matrix is built."""
        if n < 1:
            raise ValueError("vertex count must be at least 1")
        r = cls.__new__(cls)
        r._n, r._m, r._adj = n, len(src), None
        r._src, r._dst, r._deg = _frozen(src), _frozen(dst), None
        return r

    @classmethod
    def _from_codes(cls, n: int, codes: np.ndarray) -> "Relation":
        """The relation of 0-based cell codes ``u * n + v``, in any order, repeats allowed."""
        src, dst = np.divmod(_distinct(codes), n)
        return cls._from_arc_arrays(n, src, dst)

    @property
    def adj(self) -> np.ndarray:
        """Read-only n-by-n boolean adjacency matrix."""
        if self._adj is None:
            adj = np.zeros((self._n, self._n), dtype=bool)
            adj[self._src, self._dst] = True
            self._adj = _frozen(adj)
        return self._adj

    def _arc_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only row-major 0-based ``(src, dst)`` index arrays of the arcs."""
        if self._src is None:
            # 2-D ``np.nonzero`` took 18 ms at n=2000, m=8000, against 1.5 ms for this.
            src, dst = np.divmod(np.flatnonzero(self._adj), self._n)
            self._src, self._dst = _frozen(src), _frozen(dst)
        return self._src, self._dst

    def _degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (out-degree, in-degree) of every vertex, counted once.
        They are counted on the arc view, built if missing, when it is held
        or no larger than the matrix, as counting on it is cheaper; otherwise
        on the matrix."""
        # The view is two int64 arrays, 16 bytes per arc; the matrix one byte
        # per cell.  Summing its uint8 view into int32 took half the time of
        # ``count_nonzero(axis=...)`` at n=2000, m=n^2/4.
        if self._deg is None:
            if self._src is None and 16 * self._m > self._n * self._n:
                cells = self._adj.view(np.uint8)
                deg = cells.sum(axis=1, dtype=np.int32), cells.sum(axis=0, dtype=np.int32)
            else:
                src, dst = self._arc_arrays()
                deg = np.bincount(src, minlength=self._n), np.bincount(dst, minlength=self._n)
            self._deg = tuple(map(_frozen, deg))
        return self._deg

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        """Arc count, loops included."""
        return self._m

    @classmethod
    def empty(cls, n: int) -> "Relation":
        return cls.from_arcs(n, ())

    @classmethod
    def from_arcs(cls, n: int, arcs) -> "Relation":
        """Build a relation from 1-based arc pairs of integers; duplicates
        collapse.  ValueError for an item that is not a pair or an endpoint
        that is not an integer: floats and strings are not converted.
        ValueError for a vertex count that is not an integer or exceeds
        ``_CODED_VERTEX_LIMIT``."""
        n = _integer(n, "vertex count")
        if n > _CODED_VERTEX_LIMIT:
            raise ValueError(
                f"{n} vertices exceeds {_CODED_VERTEX_LIMIT}, the most whose cell codes fit int64"
            )
        items = list(arcs)
        pairs = np.array(items) if items else np.zeros((0, 2), dtype=np.int64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"arcs must be (u, v) pairs, got an array of shape {pairs.shape}")
        if pairs.dtype.kind not in "biu":
            raise ValueError(f"arc endpoints must be 64-bit integers, got {pairs.dtype}")
        bad = np.flatnonzero(((pairs < 1) | (pairs > n)).any(axis=1))
        if len(bad):
            u, v = pairs[bad[0]].tolist()
            raise ValueError(f"arc ({u}, {v}) out of range 1..{n}")
        pairs = pairs.astype(np.int64, copy=False)
        return cls._from_codes(n, (pairs[:, 0] - 1) * n + (pairs[:, 1] - 1))

    def arcs(self) -> ArcList:
        """All arcs in row-major order, 1-based."""
        src, dst = self._arc_arrays()
        return list(zip((src + 1).tolist(), (dst + 1).tolist()))

    def has_arc(self, u: int, v: int) -> bool:
        u, v = _endpoints(u, v)
        if not (1 <= u <= self._n and 1 <= v <= self._n):
            raise ValueError(f"arc ({u}, {v}) out of range 1..{self._n}")
        if self._adj is not None:
            return bool(self._adj[u - 1, v - 1])
        lo, hi = np.searchsorted(self._src, [u - 1, u])
        return bool(np.any(self._dst[lo:hi] == v - 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if (self.n, self.m) != (other.n, other.m):
            return False
        if self._src is None and other._src is None:
            return bool(np.array_equal(self._adj, other._adj))
        return all(map(np.array_equal, self._arc_arrays(), other._arc_arrays()))

    def __hash__(self) -> int:
        src, dst = self._arc_arrays()
        return hash((self.n, src.tobytes(), dst.tobytes()))

    def __repr__(self) -> str:
        return f"Relation(n={self.n}, m={self.m})"


def _integer(value, name: str) -> int:
    """``value`` as an int; ValueError naming it unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _endpoints(u, v) -> tuple[int, int]:
    """``(u, v)`` as ints; ValueError unless both are integers."""
    try:
        return operator.index(u), operator.index(v)
    except TypeError:
        raise ValueError(f"arc endpoints must be integers, got ({u!r}, {v!r})") from None


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values, ascending.  ``np.unique`` would import ``numpy.ma``
    on first use, about 10 ms of every process that parses an edge list."""
    codes = np.sort(codes)
    first = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    return codes[first]


def _timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), wall time in ns)``, by the monotonic clock.  The
    one clock probe of the package: the bench and every CLI run report use it."""
    start = time.perf_counter_ns()
    value = fn(*args, **kwargs)
    return value, time.perf_counter_ns() - start


def _subset_sums(weights, sums: np.ndarray) -> np.ndarray:
    """Fill ``sums[mask]`` with ``sums[0]`` plus ``weights[k]`` for each bit k
    set in ``mask``, by doubling: the masks with top bit k are those below it
    plus ``weights[k]``.  ``len(sums)`` is ``1 << len(weights)``; one addition
    per entry.  The subset-sum rule of both exhaustive searches: per-vertex
    sums of the cut table and true counts of the max-ones search."""
    for k, weight in enumerate(weights):
        np.add(sums[: 1 << k], weight, out=sums[1 << k : 2 << k])
    return sums


def _low_bits_first(masks: np.ndarray, n: int) -> int:
    """The one of the distinct ``masks`` that has bit 0 set if any of them
    has, then bit 1 among those left, and so on through bit n - 1: the
    tie-break of both exhaustive searches.  Read as the side vector of a cut
    (bit v set for vertex v+1 in U) it keeps the lexicographically smallest
    vector with U before V, and read as truth values the lexicographically
    largest, variable 1 first."""
    for bit in range(n):
        kept = masks[(masks >> bit) & 1 == 1]
        if len(kept):
            masks = kept
    return int(masks[0])


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph: no loops, each edge stored once as ``(u, v)`` with u < v."""

    n: int
    edges: frozenset[Arc]

    def __post_init__(self):
        if _integer(self.n, "vertex count") < 1:
            raise ValueError("vertex count must be at least 1")
        for u, v in self.edges:
            _endpoints(u, v)
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u}, {v}) must satisfy 1 <= u < v <= n")

    @classmethod
    def from_edges(cls, n: int, edges) -> "UndirectedGraph":
        """Build from arbitrary unordered pairs; orientation and duplicates are
        normalized away.  ValueError for an item that is not a pair or an
        endpoint that is not an integer."""
        normalized = set()
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValueError(f"edges must be (u, v) pairs, got {edge!r}") from None
            u, v = _endpoints(u, v)
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
    r = _parse_edge_list_fast(text)
    return r if r is not None else _parse_edge_list_lines(text)


def _parse_edge_list_fast(text: str) -> Relation | None:
    """The relation of a plain edge list, tokenized with numpy; None for any
    other text, which ``_parse_edge_list_lines`` then parses or rejects.

    Plain means digits, spaces, tabs and newlines only, two tokens of at most
    18 digits on every non-blank line, a header ``n`` within the budget and
    every arc endpoint in ``1..n``: exactly the texts the line loop accepts
    without a comment, a sign, an underscore, a non-ASCII digit, any other line
    break or a token of more than 18 digits.  Such a text is
    whitespace-separated integers only, so ``np.fromstring`` reads every byte
    of it, and every token fits int64.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    if data.translate(None, b"0123456789 \t\n"):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    # Past the alphabet test, the bytes at or above "0" are the digits.
    edges = np.diff((buf >= ord("0")).view(np.int8), prepend=np.int8(0), append=np.int8(0))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    del edges
    # 18 digits fit int64, and Python's int() takes them.
    if len(starts) < 2 or len(starts) % 2 or np.any(ends - starts > 18):
        return None
    # Tokens 2i and 2i+1 share a line and token 2i+2 is on a later one: with
    # an even token count, exactly when every line holds 0 or 2 tokens.
    line = np.searchsorted(np.flatnonzero(buf == ord("\n")), starts)
    if np.any(line[0::2] != line[1::2]) or np.any(line[2::2] <= line[1:-1:2]):
        return None
    n = int(text[starts[0] : ends[0]])  # the header's arc count is never read
    del data, buf, starts, ends, line  # about 60 B per arc, freed before the integers are read
    if not 1 <= n <= DENSE_VERTEX_BUDGET:
        return None
    values = np.fromstring(text, dtype=np.int64, sep=" ")[2:]
    if np.any((values < 1) | (values > n)):
        return None
    return Relation._from_codes(n, (values[0::2] - 1) * n + (values[1::2] - 1))


def _parse_edge_list_lines(text: str) -> Relation:
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
            _require_dense_budget(n)
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


def _require_dense_budget(n: int) -> None:
    _check_limit(n, DENSE_VERTEX_BUDGET, "{} vertices exceeds the dense limit")


def parse_matrix(text: str) -> Relation:
    """The 0/1 matrix document; blank lines before the first row and after
    the last are dropped, and row errors carry document line numbers."""
    r = _parse_matrix_fast(text)
    return r if r is not None else _parse_matrix_lines(text)


def _parse_matrix_fast(text: str) -> Relation | None:
    """The relation of a canonical matrix document, read from one buffer;
    None for any other text, which ``_parse_matrix_lines`` then parses or
    rejects.

    Canonical means n rows of n characters from {0, 1} within the budget,
    each ending in ``\\n``, and nothing else: the length is n * (n + 1), and
    the text viewed as n rows of n + 1 bytes has ``\\n`` in its last column
    and 0s and 1s in every other.
    """
    n = (math.isqrt(4 * len(text) + 1) - 1) // 2
    if not 1 <= n <= DENSE_VERTEX_BUDGET or n * (n + 1) != len(text) or not text.isascii():
        return None
    grid = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(n, n + 1)
    cells = grid[:, :n]
    # The two reductions allocate nothing, unlike an elementwise test.
    if not (np.all(grid[:, n] == ord("\n")) and cells.min() >= ord("0") and cells.max() <= ord("1")):
        return None
    return Relation._from_matrix(cells == ord("1"))


def _parse_matrix_lines(text: str) -> Relation:
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    skipped = 0
    while skipped < len(lines) and not lines[skipped].strip():
        skipped += 1
    rows = lines[skipped:]
    if not rows:
        raise ParseError("empty document")
    n = len(rows)
    _require_dense_budget(n)
    adj = np.zeros((n, n), dtype=bool)
    for i, line in enumerate(rows):
        lineno = skipped + i + 1
        if len(line) != n:
            raise ParseError(f"row has {len(line)} characters, expected {n}", lineno)
        # Any character outside {0, 1}, a non-ASCII one included (as "?"),
        # survives the C-speed deletion of the 0s and 1s.
        row = line.encode("ascii", "replace")
        if row.translate(None, b"01"):
            raise ParseError(f"characters outside {{0, 1}}: {line!r}", lineno)
        adj[i] = np.frombuffer(row, dtype=np.uint8) == ord("1")
    return Relation._from_matrix(adj)


def serialize_edge_list(r: Relation) -> str:
    src, dst = r._arc_arrays()
    lines = [f"{r.n} {r.m}"]
    lines.extend(map("{} {}".format, (src + 1).tolist(), (dst + 1).tolist()))
    return "\n".join(lines) + "\n"


def serialize_matrix(r: Relation) -> str:
    text = np.full((r.n, r.n + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = r.adj.view(np.uint8) + ord("0")
    return text.tobytes().decode("ascii")


def detect_format(text: str) -> str:
    """Classify a document: a two-integer first content line means edge list, a
    pure 0/1 line means matrix.  Comment lines only occur in edge lists.

    Only the first content line is split off: it holds the first character
    that is not whitespace, and its number counts the ``str.splitlines``
    breaks before that character."""
    first = _NON_SPACE.search(text)
    if first is None:
        raise ParseError("empty document")
    start = first.start()
    lineno = len((text[:start] + "#").splitlines())
    line = _LINE.match(text, start).group().rstrip()
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


# The same whitespace as ``str.isspace``, every line break included.
_NON_SPACE = re.compile(r"\S")
# A line up to the first of the ``str.splitlines`` breaks.
_LINE = re.compile("[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*")


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


# Walks per chunk of ``_two_arc_walks``: keeps each index array of a chunk at 8 MiB.
_WALK_CHUNK = 1 << 20

# The cost in ns of each route of the operations that have two, from n, m
# (the arcs), W (the two-arc walks) and the views held; ``_route`` takes the
# cheaper.
# Per term: "arc" and "walk" price the arc route, "row", "word" (m * ceil(n /
# 64) packed words) and "cell" the row route, and an op omits a term that
# does not decide its choice; each missing view adds _VIEW_COST per cell.
# Measured once on a 2-vCPU Xeon VM (2.1 GHz, Python 3.11, numpy 2.4.6), in
# process, medians of 3, both views held:
# - transitive, fitted to 28 transitive inputs (orders, one-way complete
#   bipartite relations, cliques, closed DAGs; n = 500-8000), on which
#   neither route stops early: 36 ms at n=2000, m=10^6, W=0 by walks;
#   1.19 s for W = 2.1e7; 437 ms by rows for 2.5e8 words.
# - maximal, fitted to 23 inputs with n >= 1000: 518 ms by sets at n=2000,
#   m=10^6, W=0; 4-20 ns per walk on random inputs, 8 their median.  W
#   overstates the sweep where sets empty early, as on a star with 2-cycles.
# - quarter, at n = 1000 and 2000: lists 130-185 ns per arc; the matrix
#   3.85 ns per cell, but 12.5 at n=4000.  ROADMAP.md lists the misroutes.
# - view: the arcs of a matrix 0.37-0.42 ns per cell, at m = 4n.
_ROUTE_COSTS = {
    "transitive": ({"arc": 40, "walk": 42}, {"row": 1300, "word": 2.3, "cell": 0.45}),
    "maximal": ({"arc": 490, "walk": 8}, {"row": 10_000, "word": 1.25, "cell": 1.4}),
    "quarter": ({"arc": 170}, {"row": 3000, "cell": 3.85}),
}
_VIEW_COST = 0.4


def _route(op: str, r: Relation) -> str:
    """``"arcs"`` or ``"rows"``: the route of ``op`` that ``_ROUTE_COSTS``
    prices lower for ``r``.  W is counted only when it can change the choice,
    from the degrees of ``Relation._degrees``.  No matrix is built."""
    arc_cost, row_cost = _ROUTE_COSTS[op]
    n, m = r.n, r.m
    arcs = arc_cost["arc"] * m + _VIEW_COST * n * n * (r._src is None)
    rows = row_cost["row"] * n + row_cost.get("word", 0) * m * -(-n // 64)
    rows += (row_cost["cell"] + _VIEW_COST * (r._adj is None)) * n * n
    if "walk" in arc_cost and arcs < rows:
        arcs += arc_cost["walk"] * _walk_count(r)
    return "arcs" if arcs < rows else "rows"


def _walk_count(r: Relation) -> int:
    """W, the number of two-arc walks ``a->b->c``: the sum over b of
    indeg(b) * outdeg(b), from the degrees alone.  The dot runs in int64:
    W reaches n^3, past the int32 range from n = 1291."""
    out_deg, in_deg = r._degrees()
    return int(in_deg.astype(np.int64) @ out_deg)


def _two_arc_walks(src: np.ndarray, dst: np.ndarray, n: int):
    """Yield every two-arc walk ``(a, b), (b, c)`` as arc-index arrays ``(i1, i2)``.

    ``src``/``dst`` are the row-major arcs of ``Relation._arc_arrays``.  ``i1``
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


def _arc_index(codes: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Index of each wanted cell code among the ascending arc codes, -1 where absent."""
    if not len(codes):
        return np.full(len(wanted), -1)
    at = np.minimum(np.searchsorted(codes, wanted), len(codes) - 1)
    return np.where(codes[at] == wanted, at, -1)


def _transitive_by_walks(r: Relation) -> bool:
    # Every two-arc walk a->b->c needs the arc a->c; stop at the first missing.
    src, dst = r._arc_arrays()
    codes = src * r.n + dst  # ascending, as the arcs are row-major
    for i1, i2 in _two_arc_walks(src, dst, r.n):
        if np.any(_arc_index(codes, src[i1] * r.n + dst[i2]) < 0):
            return False
    return True


def _packed_rows(adj: np.ndarray) -> np.ndarray:
    """The rows of a boolean matrix as bit sets, ``ceil(n / 64)`` uint64 words
    each: column ``j`` is bit ``j % 64`` of word ``j // 64``, and the bits past
    column ``n - 1`` are clear.  The result is a fresh, writable array."""
    n = adj.shape[0]
    packed = np.zeros((n, -(-n // 64) * 8), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(adj, axis=1, bitorder="little")
    return packed.view("<u8")


def _unpacked(rows: np.ndarray, n: int) -> np.ndarray:
    """The n-by-n boolean matrix of the packed rows of ``_packed_rows``."""
    return np.unpackbits(rows.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)


def _column(rows: np.ndarray, j: int) -> np.ndarray:
    """Column ``j`` of the packed rows of ``_packed_rows``, as bool."""
    return rows[:, j >> 6] & np.uint64(1 << (j & 63)) != 0


def _members(row: np.ndarray, n: int) -> np.ndarray:
    """The indices of the set bits below ``n`` of one packed row, ascending."""
    return np.unpackbits(row.view(np.uint8), count=n, bitorder="little").view(bool).nonzero()[0]


def _transitive_by_rows(adj: np.ndarray) -> bool:
    # Row a must contain the row of every successor of a; stop at the first
    # row that does not.  A gather is at most n^2 / 8 bytes.  The successors
    # are read from the matrix, which costs less than ``_members``.
    rows = _packed_rows(adj)
    for a in range(adj.shape[0]):
        succ = adj[a].nonzero()[0]
        if len(succ) and np.count_nonzero(np.bitwise_or.reduce(rows[succ], axis=0) & ~rows[a]):
            return False
    return True


def is_transitive(r: Relation) -> bool:
    """True iff for all a, b, c (repeats allowed): a->b and b->c imply a->c.

    The walk route looks up the arc ``(a, c)`` of every two-arc walk among
    the arcs, in O(n + m + W log m) time and O(n + m) extra memory.  The row
    route packs the matrix rows into 64-bit words and checks that each row
    contains the union of the rows of its successors, in O(n^2 + m * n / 64)
    time and n^2 / 8 bytes.  ``_route`` picks one (``_ROUTE_COSTS``), and
    either stops at the first violation.
    """
    if _route("transitive", r) == "arcs":
        return _transitive_by_walks(r)
    return _transitive_by_rows(r.adj)


def transitive_closure(r: Relation) -> Relation:
    """Smallest transitive relation containing ``r``, by Warshall's algorithm
    on the packed rows of ``_packed_rows``: for each pivot ``k``, every row
    that reaches ``k`` takes row ``k``, in O(n^2 + n^3 / 64) time and
    n^2 / 8 bytes beyond the input and output matrices.

    Reachability by nonempty paths: ``(i, i)`` appears only when ``i`` lies on
    a directed cycle; no reflexive padding is added.
    """
    rows = _packed_rows(r.adj)
    for k in range(r.n):
        rows[_column(rows, k)] |= rows[k]
    return Relation._from_matrix(_unpacked(rows, r.n))


def is_subrelation(a: Relation, b: Relation) -> bool:
    """True iff every arc of ``a`` is an arc of ``b``, read from the views
    the two hold; no view is built.  A relation with more arcs is no
    subrelation.  A matrix-only ``a`` and a matrix-held ``b`` are compared
    cell by cell, in O(n^2), and two arc-only relations look the arcs of
    ``a`` up among those of ``b``, in O(m log m).  Otherwise the matrix of
    one side is read at the arcs of the other, in O(m)."""
    if a.n != b.n:
        raise ValueError(f"vertex count mismatch: {a.n} != {b.n}")
    if a.m > b.m:
        return False
    if a._src is None and b._adj is not None:
        return not np.any(a.adj > b.adj)
    if a._adj is None and b._adj is None:
        (a_src, a_dst), (b_src, b_dst) = a._arc_arrays(), b._arc_arrays()
        return bool(np.all(_arc_index(b_src * b.n + b_dst, a_src * a.n + a_dst) >= 0))
    # One side's matrix read at the other's arcs: the arcs of each are
    # distinct, so a lies in b iff the two share a.m arcs.
    held, other = (b, a) if b._adj is not None else (a, b)
    src, dst = other._arc_arrays()
    return int(np.count_nonzero(held._adj.ravel()[src * a.n + dst])) == a.m


def underlying_graph(r: Relation) -> UndirectedGraph:
    """Forget arc directions and drop loops; reads the arcs and builds no matrix."""
    src, dst = r._arc_arrays()
    cross = src != dst
    low, high = np.minimum(src, dst)[cross] + 1, np.maximum(src, dst)[cross] + 1
    return UndirectedGraph(r.n, frozenset(zip(low.tolist(), high.tolist())))


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


def _require_triangle_free(g: UndirectedGraph) -> None:
    """Raise ``TriangleFoundError`` with ``find_triangle``'s witness unless
    ``g`` is triangle-free."""
    triangle = find_triangle(g)
    if triangle is not None:
        raise TriangleFoundError(triangle)


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
    src, dst = r._arc_arrays()
    codes = src * r.n + dst  # ascending, as the arcs are row-major
    walks: list[tuple[int, int, int]] = []
    for i1, i2 in _two_arc_walks(src, dst, r.n):
        a, b, c = src[i1], dst[i1], dst[i2]
        keep = (a != b) & (b != c)
        req = _arc_index(codes, a[keep] * r.n + c[keep])
        walks.extend(zip(i1[keep].tolist(), i2[keep].tolist(), req.tolist()))
    return r.arcs(), walks


def has_path_length_two(r: Relation) -> bool:
    """True iff some vertex has both an incoming and an outgoing arc
    (endpoints of the two-step walk may coincide): at least one two-arc walk."""
    return _walk_count(r) > 0
