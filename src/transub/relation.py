"""Binary relations in two views, plus digraph predicates and file formats.

A relation on ``{1..n}`` has two views: the n-by-n boolean adjacency matrix
``adj`` (``adj[i][j]``, 0-based, records the arc ``(i+1, j+1)``), and the
ascending 0-based cell codes ``i * n + j`` of its distinct arcs, 8 bytes per
arc.  The out-arcs of vertex ``i`` are one run of the codes, which
``_row_starts`` finds, and ``Relation._arc_arrays`` derives the row-major
``src``/``dst`` index arrays on each call for the code that needs both
endpoints of every arc.  A relation holds the view it was built from, so
parsing an edge list allocates no n^2 cells, and builds the other view on
first use.  Loops are permitted and count toward the arc total ``m``.  All
values are immutable once constructed; two threads that build the same
missing view at once store equal arrays, so relations are safe to share
across threads.

Every operation with an arc route and a row route (``is_transitive``, the
untraced maximal v2 sweep and ``quarter_approx``) takes the one that
``_route`` prices lower in the cost table ``_ROUTE_COSTS``, from n, m, the
number W of two-arc walks and the views held; outputs do not depend on the
route.  ``is_subrelation`` has no table entry: it reads the views that its
two relations hold, and builds none.
Transitivity walks all W two-arc walks ``a->b->c`` (W = sum
over b of indeg * outdeg, at most nm) in O(n + m + W log m) time, or tests
that each matrix row, packed into 64-bit words, contains the rows of its
successors, in O(n^2 + m * n / 64).  The walks leave this module as chunks
of arc-index arrays from ``_forced_arcs``, the one place they are
enumerated: each first arc ``a->b`` pairs with the run of ``b``'s arcs, and
the forced arc ``a->c`` is looked up by its code.  The walk route reads
those chunks, and ``_composition_walks`` yields them, walks through a loop
dropped, as the constraints of the CNF encoder and the branch-and-bound.
The closure, and the dense v2 sweep, maximality check and extension of
``maximal``, run on the same packed rows (``_packed_rows``), whose set bits
``_members`` lists.
"""

from __future__ import annotations

import math
import operator
import re
import time
from array import array
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

    __slots__ = ("_n", "_m", "_adj", "_codes", "_deg")

    def __init__(self, adj) -> None:
        arr = np.array(adj, dtype=bool)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("vertex count must be at least 1")
        self._n, self._m, self._adj = arr.shape[0], int(np.count_nonzero(arr)), _frozen(arr)
        self._codes = self._deg = None

    @classmethod
    def _from_matrix(cls, adj: np.ndarray) -> "Relation":
        """Freeze a square boolean matrix that only its caller built; no copy."""
        r = cls.__new__(cls)
        r._n, r._m, r._adj = adj.shape[0], int(np.count_nonzero(adj)), _frozen(adj)
        r._codes = r._deg = None
        return r

    @classmethod
    def _from_sorted_codes(cls, n: int, codes: np.ndarray) -> "Relation":
        """Wrap ascending distinct 0-based cell codes ``u * n + v``; no copy, and
        no matrix is built."""
        if n < 1:
            raise ValueError("vertex count must be at least 1")
        r = cls.__new__(cls)
        r._n, r._m, r._adj, r._codes, r._deg = n, len(codes), None, _frozen(codes), None
        return r

    @classmethod
    def _from_codes(cls, n: int, codes: np.ndarray) -> "Relation":
        """The relation of 0-based cell codes ``u * n + v``, in any order, repeats allowed."""
        return cls._from_sorted_codes(n, _distinct(codes))

    @property
    def adj(self) -> np.ndarray:
        """Read-only n-by-n boolean adjacency matrix."""
        if self._adj is None:
            adj = np.zeros((self._n, self._n), dtype=bool)
            adj.ravel()[self._codes] = True
            self._adj = _frozen(adj)
        return self._adj

    def _arc_codes(self) -> np.ndarray:
        """Read-only ascending 0-based cell codes ``u * n + v`` of the arcs: the
        arc view, built from the matrix if missing."""
        if self._codes is None:
            # 2-D ``np.nonzero`` took 18 ms at n=2000, m=8000, against 1.5 ms for
            # this and a ``divmod``.
            self._codes = _frozen(np.flatnonzero(self._adj))
        return self._codes

    def _arc_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only row-major 0-based ``(src, dst)`` index arrays of the arcs,
        derived from the codes on each call and not kept."""
        src, dst = np.divmod(self._arc_codes(), self._n)
        return _frozen(src), _frozen(dst)

    def _degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (out-degree, in-degree) of every vertex, counted once.
        They are counted on the arc view, built if missing, when it is held
        or no larger than the matrix, as counting on it is cheaper; otherwise
        on the matrix."""
        # Counting on the arcs reads the row runs of the codes and one int64
        # column of heads: with the codes, 16 bytes per arc, against one byte
        # per cell for the matrix.  Summing its uint8 view into int32 took
        # half the time of ``count_nonzero(axis=...)`` at n=2000, m=n^2/4.
        if self._deg is None:
            if self._codes is None and 16 * self._m > self._n * self._n:
                cells = self._adj.view(np.uint8)
                deg = cells.sum(axis=1, dtype=np.int32), cells.sum(axis=0, dtype=np.int32)
            else:
                codes, n = self._arc_codes(), self._n
                deg = np.diff(_row_starts(codes, n)), np.bincount(codes % n, minlength=n)
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
        return int(_arc_index(self._codes, np.array([(u - 1) * self._n + v - 1]))[0]) >= 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if (self.n, self.m) != (other.n, other.m):
            return False
        if self._codes is None and other._codes is None:
            return bool(np.array_equal(self._adj, other._adj))
        return bool(np.array_equal(self._arc_codes(), other._arc_codes()))

    def __hash__(self) -> int:
        return hash((self.n, self._arc_codes().tobytes()))

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


def _row_starts(codes: np.ndarray, n: int) -> np.ndarray:
    """Where the run of each row begins in ascending cell codes ``u * n + v``:
    row u is ``codes[starts[u] : starts[u + 1]]``, and ``starts[n]`` is
    ``len(codes)``."""
    return np.searchsorted(codes, np.arange(n + 1) * n)


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


# The byte classes of a plain edge list: each digit reads "1", space, tab,
# "\r" and "\n" read as themselves, and every other byte reads "x".
_PLAIN_BYTES = bytes(
    ord("1") if chr(b) in "0123456789" else b if chr(b) in " \t\r\n" else ord("x")
    for b in range(256)
)


def _parse_edge_list_fast(text: str) -> Relation | None:
    """The relation of a plain edge list, read with numpy; None for any other
    text, which ``_parse_edge_list_lines`` then parses or rejects.

    Plain means digits, spaces, tabs and line ends (``\\n`` or ``\\r\\n``) only,
    two tokens of at most 18 digits on every non-blank line, a header ``n``
    within the budget and every arc endpoint in ``1..n``: exactly the texts
    the line loop accepts without a comment, a sign, an underscore, a
    non-ASCII digit, any other line break or a token of more than 18 digits.
    Such a text is whitespace-separated integers only, so ``np.fromstring``
    reads every byte of it, and every token fits int64.
    """
    if not text.isascii():
        return None
    classes = text.encode("ascii").translate(_PLAIN_BYTES)
    # 18 digits fit int64, and Python's int() takes them; "\r" only ends a line.
    if b"x" in classes or b"1" * 19 in classes or classes.count(b"\r") != classes.count(b"\r\n"):
        return None
    del classes  # one byte per byte of text, freed before the integers are read
    # Each line end reads as -1 and each token as an integer of at least 0, so
    # the tokens of a line are the integers between two -1s.
    values = np.fromstring(text.replace("\n", " -1 "), dtype=np.int64, sep=" ")
    gaps = np.diff(np.flatnonzero(values < 0), prepend=-1, append=len(values)) - 1
    values = values[values >= 0]
    if len(values) < 2 or np.any((gaps != 0) & (gaps != 2)):
        return None
    n = int(values[0])  # the header's arc count is never read
    values = values[2:]
    if not 1 <= n <= DENSE_VERTEX_BUDGET or np.any((values < 1) | (values > n)):
        return None
    return Relation._from_codes(n, (values[0::2] - 1) * n + (values[1::2] - 1))


def _parse_edge_list_lines(text: str) -> Relation:
    n = None
    codes = array("q")  # the cell codes of the arcs, 8 bytes each
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
        codes.append((u - 1) * n + v - 1)
    if n is None:
        raise ParseError("empty document: missing 'n m' header")
    return Relation._from_codes(n, np.frombuffer(codes, dtype=np.int64))


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
    # Each column is derived from the codes just before its list is built,
    # so the two are never held at once.
    codes = r._arc_codes()
    lines = [f"{r.n} {r.m}"]
    lines.extend(map("{} {}".format, (codes // r.n + 1).tolist(), (codes % r.n + 1).tolist()))
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


# Walks per chunk of ``_forced_arcs``: keeps each index array of a chunk at 8 MiB.
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
    arcs = arc_cost["arc"] * m + _VIEW_COST * n * n * (r._codes is None)
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


def _arc_index(codes: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Index of each wanted cell code among the ascending arc codes, -1 where absent."""
    if not len(codes):
        return np.full(len(wanted), -1)
    at = np.minimum(np.searchsorted(codes, wanted), len(codes) - 1)
    return np.where(codes[at] == wanted, at, -1)


def _forced_arcs(r: Relation):
    """Yield every two-arc walk ``(a, b), (b, c)`` in chunks of arc-index
    arrays ``(i1, i2, req)``: the walk runs over arcs ``i1`` and ``i2``, and
    ``req`` is the index of its forced arc ``(a, c)``, -1 where that arc is
    absent.

    ``i1`` runs in row-major order and ``i2`` over the run of ``b``'s arcs,
    ascending.  Each chunk holds whole runs of first arcs and at most
    ``_WALK_CHUNK`` walks, unless one first arc alone has more.  The chunks
    are yielded unfiltered, so the walk route holds no filtered copies of
    them.  Only the codes and their heads are read.
    """
    codes, n = r._arc_codes(), r.n
    head = codes % n
    starts = _row_starts(codes, n)
    counts = starts[head + 1] - starts[head]  # out-degree of b, per arc
    ends = np.cumsum(counts)
    start, done = 0, 0
    while start < len(codes):
        stop = max(int(np.searchsorted(ends, done + _WALK_CHUNK, side="right")), start + 1)
        cnt = counts[start:stop]
        lead = ends[start:stop] - cnt - done  # first walk of each arc in the chunk
        i1 = np.repeat(np.arange(start, stop), cnt)
        i2 = np.arange(len(i1)) + np.repeat(starts[head[start:stop]] - lead, cnt)
        # a * n + b - b + c: the code of the forced arc (a, c)
        yield i1, i2, _arc_index(codes, codes[i1] - head[i1] + head[i2])
        start, done = stop, int(ends[stop - 1])


def _transitive_by_walks(r: Relation) -> bool:
    # Every two-arc walk a->b->c needs the arc a->c; stop at the first chunk
    # that misses one.
    return all(np.all(req >= 0) for _, _, req in _forced_arcs(r))


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
    if a._codes is None and b._adj is not None:
        return not np.any(a.adj > b.adj)
    if a._adj is None and b._adj is None:
        return bool(np.all(_arc_index(b._codes, a._codes) >= 0))
    # One side's matrix read at the other's arc codes: the arcs of each are
    # distinct, so a lies in b iff the two share a.m arcs.
    held, other = (b, a) if b._adj is not None else (a, b)
    return int(np.count_nonzero(held._adj.ravel()[other._codes])) == a.m


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


def _composition_walks(r: Relation):
    """Yield the transitivity constraints of the two-arc walks, chunk by chunk,
    as the arrays ``(i1, i2, req)`` of ``_forced_arcs``: choosing both
    premises, the row-major arcs ``i1`` and ``i2``, requires the forced arc
    at ``req``, or is forbidden when ``req == -1``.  Walks through a loop
    (``a == b`` or ``b == c``) are skipped: their forced arc is one of the
    premises, so they hold whenever the premises do.
    """
    # u * n + u is u * (n + 1), and no other code below n^2 is a multiple of n + 1.
    loop = r._arc_codes() % (r.n + 1) == 0
    for i1, i2, req in _forced_arcs(r):
        keep = ~(loop[i1] | loop[i2])
        yield i1[keep], i2[keep], req[keep]


def has_path_length_two(r: Relation) -> bool:
    """True iff some vertex has both an incoming and an outgoing arc
    (endpoints of the two-step walk may coincide): at least one two-arc walk."""
    return _walk_count(r) > 0
