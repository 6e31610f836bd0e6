import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    all_relations,
    oracle_closure_arcs,
    oracle_detect_format,
    oracle_is_transitive,
    oracle_largest_value_vector,
    oracle_parse_matrix,
    oracle_serialize_matrix,
    oracle_smallest_side_vector,
    oracle_underlying_graph,
    oracle_warshall_closure,
    ordered_pairs,
    relations,
    wide_matrix,
)
from transub import relation
from transub.cli import _check_verdicts
from transub import (
    DENSE_VERTEX_BUDGET,
    BudgetError,
    ParseError,
    Relation,
    UndirectedGraph,
    detect_format,
    find_triangle,
    has_path_length_two,
    is_subrelation,
    is_transitive,
    is_triangle_free,
    maximal_transitive_v2,
    parse_edge_list,
    parse_matrix,
    parse_relation,
    quarter_approx,
    serialize_edge_list,
    serialize_matrix,
    serialize_relation,
    transitive_closure,
    underlying_graph,
)


def rel(n, arcs):
    return Relation.from_arcs(n, arcs)


def random_edge_list(n: int, m: int, seed: int) -> str:
    """The edge list of m distinct seeded random arcs on n vertices, in row-major order."""
    codes = np.random.default_rng(seed).choice(n * n, size=m, replace=False)
    src, dst = np.divmod(np.sort(codes), n)
    return f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in zip((src + 1).tolist(), (dst + 1).tolist()))


@st.composite
def relation_pairs(draw):
    """Two relations on one vertex set; ``b`` keeps some arcs of ``a`` and adds
    others, so both containment verdicts are common."""
    a = draw(relations(max_n=9))
    kept = draw(st.lists(st.sampled_from(a.arcs()), max_size=a.m)) if a.m else []
    pairs = ordered_pairs(a.n, loops=True)
    extra = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs) // 4))
    return a, rel(a.n, kept + extra)


@st.composite
def nested_pairs(draw):
    """Two relations on one vertex set, up to 12 vertices; in half of them
    ``a`` is drawn as a subset of ``b``."""
    a = draw(relations(max_n=12))
    pairs = ordered_pairs(a.n, loops=True)
    extra = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return a, rel(a.n, (a.arcs() if draw(st.booleans()) else []) + extra)


class TestRelationType:
    def test_counts_and_arcs(self):
        r = rel(3, [(1, 2), (2, 3), (1, 2)])
        assert (r.n, r.m) == (3, 2)
        assert r.arcs() == [(1, 2), (2, 3)]

    def test_m_counts_loops(self):
        assert rel(2, [(1, 1), (2, 2), (1, 2)]).m == 3

    def test_adjacency_is_immutable(self):
        r = rel(2, [(1, 2)])
        with pytest.raises(ValueError):
            r.adj[0, 0] = True

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            Relation(np.zeros((0, 0), dtype=bool))

    def test_rejects_out_of_range_arcs(self):
        with pytest.raises(ValueError):
            rel(2, [(1, 3)])

    @pytest.mark.parametrize("arcs", [[(1.5, 2)], [(1, 2.0)], [("1", "3")], [(1, "x")], [(None, 1)]])
    def test_rejects_non_integer_endpoints(self, arcs):
        with pytest.raises(ValueError, match="^arc endpoints must be 64-bit integers, got "):
            rel(3, arcs)

    @pytest.mark.parametrize("n", [3.0, 2.5, "3", None])
    def test_rejects_non_integer_vertex_counts(self, n):
        with pytest.raises(ValueError, match="^vertex count must be an integer, got "):
            Relation.from_arcs(n, [(1, 2)])
        with pytest.raises(ValueError, match="^vertex count must be an integer, got "):
            Relation.empty(n)

    def test_takes_numpy_integer_vertex_counts(self):
        r = Relation.from_arcs(np.int64(3), [(1, 2)])
        assert type(r.n) is int and r.adj.shape == (3, 3)

    @pytest.mark.parametrize("arcs", [[(1, 2, 3), (1, 2, 3)], [1, 2, 2, 3], [(1,)], [[]],
                                      [[(1, 2)]]])
    def test_rejects_items_that_are_not_pairs(self, arcs):
        with pytest.raises(ValueError, match=r"^arcs must be \(u, v\) pairs, got an array of shape "):
            rel(3, arcs)

    def test_rejects_ragged_items(self):
        with pytest.raises(ValueError):
            rel(3, [(1, 2), (1, 2, 3)])

    def test_accepts_integer_arrays_of_any_width(self):
        for dtype in (np.int8, np.int32, np.uint16, np.uint64):
            r = rel(300, np.array([[1, 2], [100, 1]], dtype=dtype))
            assert r.arcs() == [(1, 2), (100, 1)]
            assert r._arc_arrays()[0].dtype == np.int64
        assert rel(3, iter([])).m == 0 and rel(3, {(2, 3)}).arcs() == [(2, 3)]

    def test_cell_codes_fit_int64(self):
        big = 3037000499  # the largest n with n^2 <= 2^63 - 1
        r = rel(big, [(big, big), (big, 1)])
        assert r.arcs() == [(big, 1), (big, big)] and r.has_arc(big, 1)
        for n in (big + 1, 2**32):
            with pytest.raises(ValueError, match=f"^{n} vertices exceeds {big}, "):
                rel(n, [(n, 1)])
            with pytest.raises(ValueError, match=f"^{n} vertices exceeds {big}, "):
                Relation.empty(n)

    @given(relations())
    def test_arc_round_trip(self, r):
        assert Relation.from_arcs(r.n, r.arcs()) == r


class TestViews:
    @settings(max_examples=80)
    @given(relations(max_n=8))
    def test_matrix_and_arc_views_agree(self, r):
        matrix = np.zeros((r.n, r.n), dtype=bool)
        for u, v in r.arcs():
            matrix[u - 1, v - 1] = True
        by_arcs, by_matrix = Relation.from_arcs(r.n, r.arcs()), Relation(matrix)
        assert by_arcs._adj is None and by_matrix._codes is None
        assert (by_arcs.n, by_arcs.m) == (by_matrix.n, by_matrix.m)
        assert by_arcs.arcs() == by_matrix.arcs()
        cells = [(u, v) for u in range(1, r.n + 1) for v in range(1, r.n + 1)]
        present = [bool(matrix[u - 1, v - 1]) for u, v in cells]
        assert [by_arcs.has_arc(u, v) for u, v in cells] == present
        assert [by_matrix.has_arc(u, v) for u, v in cells] == present
        assert by_arcs == by_matrix and hash(by_arcs) == hash(by_matrix)
        assert serialize_edge_list(by_arcs) == serialize_edge_list(by_matrix)
        assert by_arcs._adj is None  # none of the above needs the matrix
        assert serialize_matrix(by_arcs) == serialize_matrix(by_matrix)
        assert np.array_equal(by_arcs.adj, matrix) and not by_arcs.adj.flags.writeable
        src, dst = by_matrix._arc_arrays()
        assert not src.flags.writeable and not dst.flags.writeable

    @settings(max_examples=80)
    @given(relations())
    def test_one_arc_view_of_cell_codes(self, r):
        # The arc view is one read-only array of cell codes u * n + v equal to
        # the flat cells of the matrix, so ascending, distinct and below n^2;
        # the index pair is derived from it.  ``has_arc``, ``==`` and ``hash``
        # across views are tested above.
        for view in (Relation.from_arcs(r.n, r.arcs()), Relation(r.adj)):
            codes = view._arc_codes()
            assert not codes.flags.writeable and np.array_equal(codes, np.flatnonzero(r.adj))
            src, dst = view._arc_arrays()
            assert not src.flags.writeable and not dst.flags.writeable
            assert [src.tolist(), dst.tolist()] == [a.tolist() for a in np.divmod(codes, r.n)]

    @settings(max_examples=80)
    @given(relations())
    def test_row_runs_of_the_codes(self, r):
        # Each run of ``_row_starts`` holds exactly the codes of its row, so
        # the run lengths are the row sums of the matrix.
        for view in (Relation.from_arcs(r.n, r.arcs()), Relation(r.adj)):
            codes = view._arc_codes()
            starts = relation._row_starts(codes, r.n)
            assert starts[0] == 0 and starts[-1] == len(codes)
            for u in range(r.n):
                row = np.flatnonzero(r.adj[u]) + u * r.n
                assert np.array_equal(codes[starts[u] : starts[u + 1]], row)
            assert np.diff(starts).tolist() == r.adj.sum(axis=1).tolist()

    @pytest.mark.parametrize("u, v", [(0, 0), (0, 1), (-1, 2), (3, 1), (1, 3)])
    def test_has_arc_rejects_vertices_out_of_range(self, u, v):
        full = rel(2, [(1, 1), (1, 2), (2, 1), (2, 2)])
        for r in (full, Relation(full.adj)):
            with pytest.raises(ValueError, match=rf"^arc \({u}, {v}\) out of range 1\.\.2$"):
                r.has_arc(u, v)

    @pytest.mark.parametrize("u, v", [(1.5, 2), (1, 2.0), ("1", 2), (None, 1)])
    def test_has_arc_rejects_non_integer_endpoints(self, u, v):
        r = rel(2, [(1, 2)])
        for view in (r, Relation(r.adj)):
            with pytest.raises(ValueError, match=r"^arc endpoints must be integers, got \("):
                view.has_arc(u, v)

    def test_has_arc_takes_numpy_integers(self):
        r = rel(2, [(1, 2)])
        for view in (r, Relation(r.adj)):
            assert view.has_arc(np.int64(1), np.uint8(2)) and not view.has_arc(np.int32(2), 1)

    def test_public_constructor_copies_its_matrix(self):
        adj = np.eye(3, dtype=bool)
        r = Relation(adj)
        adj[0, 1] = True
        assert adj.flags.writeable and r.arcs() == [(1, 1), (2, 2), (3, 3)]

    def test_views_tell_relations_apart(self):
        for a, b in [([(1, 2)], [(2, 1)]), ([(1, 1)], [(1, 2)]), ([], [(1, 2)])]:
            for x in (rel(2, a), Relation(rel(2, a).adj)):
                for y in (rel(2, b), Relation(rel(2, b).adj)):
                    assert x != y
        assert Relation.empty(3) == Relation(np.zeros((3, 3), dtype=bool))
        assert rel(2, []) != rel(3, [])

    def test_sparse_pipeline_builds_no_matrix(self):
        # One n-by-n matrix at n=8000 is 64 MiB; parsing, the maximal sweep,
        # the transitivity check, the quarter approximation and writing the
        # results stay under 8 MiB of allocations on an edge list with m=4n.
        n = 8000
        pairs = np.random.default_rng(8000).integers(1, n + 1, size=(4 * n, 2))
        text = f"{n} {4 * n}\n" + "".join(f"{u} {v}\n" for u, v in pairs.tolist())
        small = parse_edge_list("3 2\n1 2\n2 3\n")  # first-use costs outside the window
        maximal_transitive_v2(small, collect_trace=False)
        is_transitive(small), quarter_approx(small)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            r = parse_edge_list(text)
            kept, _ = maximal_transitive_v2(r, collect_trace=False)
            transitive = is_transitive(r)
            quarter = quarter_approx(r)
            serialize_edge_list(kept), serialize_edge_list(quarter)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert not transitive and 0 < quarter.m and 0 < kept.m < r.m
        assert r._adj is None and kept._adj is None and quarter._adj is None
        assert peak < 8 * 2**20, f"{peak / 2**20:.1f} MiB"


class TestEdgeListParsing:
    def test_basic(self):
        r = parse_edge_list("3 2\n1 2\n2 3\n")
        assert r.arcs() == [(1, 2), (2, 3)] and r.n == 3

    def test_empty_relation(self):
        r = parse_edge_list("1 0\n")
        assert (r.n, r.m) == (1, 0)

    def test_duplicates_collapse_matching_matrix_build(self):
        r = parse_edge_list("2 1\n1 2\n1 2\n")
        assert (r.n, r.m) == (2, 1)
        assert r == parse_matrix("01\n00\n")

    def test_comments_and_blanks(self):
        r = parse_edge_list("# header comment\n\n2 1\n# mid\n1 2\n")
        assert r.arcs() == [(1, 2)]

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_edge_list("3\n")

    def test_non_integer_token_reports_line(self):
        with pytest.raises(ParseError, match="line 2") as exc:
            parse_edge_list("2 1\n1 x\n")
        assert exc.value.line == 2

    def test_vertex_out_of_range_reports_line(self):
        with pytest.raises(ParseError, match=r"out of range \[1, 2\]") as exc:
            parse_edge_list("2 1\n1 3\n")
        assert exc.value.line == 2

    def test_empty_document(self):
        with pytest.raises(ParseError, match="header"):
            parse_edge_list("# nothing\n")

    def test_header_over_dense_budget(self):
        # the benchmark's largest input has 8000 vertices
        assert DENSE_VERTEX_BUDGET >= 8000
        with pytest.raises(BudgetError, match=str(DENSE_VERTEX_BUDGET)):
            parse_edge_list(f"{DENSE_VERTEX_BUDGET + 1} 0\n")

    @pytest.mark.parametrize("text, error, message, line", [
        ("# c\n3\n", ParseError, "line 2: header must be two integers 'n m'", 2),
        ("\n3 x\n", ParseError, "line 2: non-integer token in header: '3 x'", 2),
        ("0 1\n", ParseError, "line 1: vertex count must be at least 1, got 0", 1),
        ("3 -1\n", ParseError, "line 1: arc count must be non-negative, got -1", 1),
        (f"{DENSE_VERTEX_BUDGET + 1} 0\n", BudgetError,
         f"{DENSE_VERTEX_BUDGET + 1} vertices exceeds the dense limit of {DENSE_VERTEX_BUDGET}",
         None),
        ("3 1\n# c\n1 2 3\n", ParseError,
         "line 3: arc line must be two integers 'u v': '1 2 3'", 3),
        ("3 1\n\n 1 x \n", ParseError, "line 3: non-integer token in arc line: '1 x'", 3),
        ("3 1\n1 2\n1 4\n", ParseError, "line 3: vertex index out of range [1, 3]: (1, 4)", 3),
        ("# c\n\n", ParseError, "empty document: missing 'n m' header", None),
    ], ids=["header-shape", "header-token", "vertex-count", "arc-count", "dense-limit",
            "arc-shape", "arc-token", "range", "empty"])
    def test_line_loop_messages(self, text, error, message, line):
        # Each message of the line loop, byte for byte, with its line number.
        assert parse_outcome(relation._parse_edge_list_lines, text) == (error, message, line)


def parse_outcome(parse, text):
    """The relation a parser builds, or the type, message and line of its error."""
    try:
        r = parse(text)
    except (ParseError, BudgetError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return r.n, r.arcs()


# Plain tokens in and out of range, mixed with tokens the line loop reads in
# its own way: underscores, signs, non-ASCII digits, comments, huge numbers.
EDGE_TOKENS = st.one_of(
    st.integers(0, 13).map(str),
    st.sampled_from(
        ["007", "1_0", "+3", "-1", "\u0663", "\uff13", "x", "#", "99999999999999999999"]
    ),
)
LINE_BREAKS = st.sampled_from(["\n", "\n", "\n", "\t\n", "\r\n", "\r", "\x0c", "\x1c", "\u2028"])


@st.composite
def edge_list_texts(draw):
    lines = draw(st.lists(st.one_of(
        st.lists(EDGE_TOKENS, min_size=2, max_size=2).map(" ".join),
        st.lists(EDGE_TOKENS, max_size=4).map("\t ".join),
        st.sampled_from(["# note", "", "  \t"]),
    ), max_size=8))
    if draw(st.booleans()):
        n, m = draw(st.integers(1, 12)), draw(st.integers(0, 30))
        lines.insert(0, f"{n} {m}")
    breaks = draw(st.lists(LINE_BREAKS, min_size=len(lines), max_size=len(lines)))
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    return text[:-1] if text and draw(st.booleans()) else text


class TestEdgeListFastPath:
    @settings(max_examples=400)
    @given(edge_list_texts())
    def test_matches_line_loop(self, text):
        assert parse_outcome(parse_edge_list, text) == parse_outcome(
            relation._parse_edge_list_lines, text
        )

    @pytest.mark.parametrize("text, fast", [
        ("3 2\n1 2\n2 3\n", True),
        ("3 2\n1 2\n2 3", True),
        ("3 0\n", True),  # a header alone
        ("3 0", True),
        ("3 3\n1 2\n1 2\n2 3\n", True),  # duplicates collapse
        ("\n3 1\n\n  \n1\t2\n\n", True),  # blank lines and tabs
        ("3 1\n01 002\n", True),
        ("3 1\n1_0 2\n", False),
        ("3 1\n+3 2\n", False),
        ("3 1\n\u0663 2\n", False),
        ("3 1\n\uff13 2\n", False),
        ("3 1\r\n1 2\r\n", True),
        ("3 1\r1 2\n", False),  # a lone "\r" breaks the line
        ("3 1\n1\r2\n", False),
        ("3 1\n1 2\x0c\n", False),
        ("# c\n3 1\n1 2\n", False),
        ("3 1\n1 2 # c\n", False),
        ("3 1\n1 4\n", False),
        ("3 1\n0 1\n", False),
        ("3 1\n1\n", False),
        ("3 1\n1 2 3\n", False),
        ("3 2\n1 2 2 3\n", False),  # two arcs on one line
        ("3 1 1 2\n", False),
        ("3 1 7\n1 2\n", False),  # a header of three tokens
        ("3 1\n" + "0" * 18 + "1 2\n", False),  # a zero-padded 19-digit endpoint
        ("3 1\n1 2\n2\n", False),
        ("", False),
        ("3\n", False),
        ("0 0\n", False),
        (f"{DENSE_VERTEX_BUDGET + 1} 0\n", False),
        ("3 " + "9" * 5000 + "\n", False),  # beyond int()'s digit limit
    ])
    def test_explicit_cases(self, text, fast):
        assert (relation._parse_edge_list_fast(text) is not None) == fast
        assert parse_outcome(parse_edge_list, text) == parse_outcome(
            relation._parse_edge_list_lines, text
        )

    @pytest.mark.parametrize("text", ["3 1\n1\n2\n", "3 2\n1 2\n3\n1\n", "3\n1\n1 2\n"])
    def test_one_token_lines_in_pairs(self, text):
        # An even token count, and every pair of tokens begins on a new line,
        # but some pair spans two lines.
        assert relation._parse_edge_list_fast(text) is None
        assert parse_outcome(parse_edge_list, text) == parse_outcome(
            relation._parse_edge_list_lines, text
        )

    def test_peak_per_arc(self):
        # Each arc line reads as three int64 values, its two tokens and the
        # -1 of its line end (24 B); the positions of the -1s, the gaps
        # between them and the arc codes take about 8 B per arc each.  The
        # peak, 51 B per arc here, stays under 80 B per arc.
        n, m = 8000, 32000
        text = random_edge_list(n, m, seed=8001)
        parse_edge_list("3 1\n1 2\n")
        tracemalloc.start()
        try:
            r = parse_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.n == n and r._adj is None
        assert peak <= 80 * m, f"{peak / m:.1f} B per arc"

    def test_line_loop_peak_per_arc(self):
        # A comment sends the text to the line loop, which holds one 8-byte
        # code per arc and no tuple.
        n, m = 8000, 32000
        text = "# a comment\n" + random_edge_list(n, m, seed=8003)
        parse_edge_list("# c\n3 1\n1 2\n")
        tracemalloc.start()
        try:
            r = parse_edge_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.n == n and r.m == m and r._adj is None
        assert peak <= 100 * m, f"{peak / m:.1f} B per arc"


# Rows of the right length and alphabet, with some rows cut, padded or
# holding a character outside {0, 1}, ASCII or not.
MATRIX_CHARS = st.sampled_from("0000111112 x\t\u00e9\u0661")


@st.composite
def matrix_texts(draw):
    n = draw(st.integers(1, 6))
    rows = [draw(st.text(alphabet="01", min_size=n, max_size=n)) for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        rows[i] = draw(st.text(alphabet=MATRIX_CHARS, min_size=n - 1, max_size=n + 1))
    blank = st.lists(st.sampled_from(["", "  "]), max_size=2)
    rows = draw(blank) + rows + draw(blank)
    breaks = draw(st.lists(LINE_BREAKS, min_size=len(rows), max_size=len(rows)))
    text = "".join(row + brk for row, brk in zip(rows, breaks))
    return text[:-1] if draw(st.booleans()) else text


class TestMatrixParsing:
    @settings(max_examples=400)
    @given(matrix_texts())
    @example("01\n0\n")
    @example("02\n0\n")  # the alphabet of row 1 before the length of row 2
    @example("0\n02\n")  # the length of row 1 before the alphabet of row 2
    @example("0\u00e9\n00\n")
    @example("")
    @example("\n \n")
    @example("\n\n01\n00\n")
    @example(" \n01\n0\n")
    def test_matches_row_loop(self, text):
        assert parse_outcome(parse_matrix, text) == parse_outcome(oracle_parse_matrix, text)

    @settings(max_examples=200)
    @given(matrix_texts())
    @example("0\n")
    @example("01\n00\n")
    @example("01\n00")
    @example("0\n0\n")
    def test_one_buffer_reader_takes_the_canonical_texts(self, text):
        # n rows of n 0s and 1s, each ending in "\n", and nothing else
        *rows, last = text.split("\n")
        canonical = last == "" and all(len(row) == len(rows) and set(row) <= {"0", "1"} for row in rows)
        fast = relation._parse_matrix_fast(text)
        assert (fast is not None) == (canonical and len(rows) > 0)
        if fast is not None:
            assert fast == oracle_parse_matrix(text) and not fast.adj.flags.writeable

    def test_row_limit_before_rows(self):
        text = "0x\n" * (DENSE_VERTEX_BUDGET + 1)
        assert parse_outcome(parse_matrix, text) == parse_outcome(oracle_parse_matrix, text)
        assert parse_outcome(parse_matrix, text)[0] is BudgetError

    def test_peak_within_one_extra_matrix(self):
        # The rows plus the matrix come to 7.7 MiB here; at most one more n^2
        # buffer is allowed on top.
        n = 2000
        text = serialize_matrix(Relation(np.random.default_rng(3).random((n, n)) < 0.25))
        parse_matrix("01\n00\n")
        tracemalloc.start()
        try:
            r = parse_matrix(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.n == n and not r.adj.flags.writeable
        assert peak < 7.7 * 2**20 + n * n, f"{peak / 2**20:.1f} MiB"

    def test_basic(self):
        assert parse_matrix("010\n001\n000\n").arcs() == [(1, 2), (2, 3)]

    def test_single_vertex(self):
        r = parse_matrix("0\n")
        assert (r.n, r.m) == (1, 0)

    def test_full_with_loops(self):
        assert parse_matrix("11\n11\n").m == 4

    def test_ragged_row(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix("01\n0\n")

    def test_bad_character(self):
        with pytest.raises(ParseError, match="characters"):
            parse_matrix("02\n00\n")

    def test_leading_blank_lines(self):
        assert parse_relation("\n \n01\n00\n") == (parse_matrix("01\n00\n"), "matrix")
        with pytest.raises(ParseError, match="line 4: row has 1 characters"):
            parse_matrix("\n \n01\n0\n")


class TestSerialization:
    def test_edge_list_layout(self):
        assert serialize_edge_list(rel(3, [(2, 3), (1, 2)])) == "3 2\n1 2\n2 3\n"

    def test_matrix_layout(self):
        assert serialize_matrix(rel(2, [(1, 2)])) == "01\n00\n"

    def test_edge_list_peak_per_arc(self):
        # One string per line, and the endpoints as two lists of ints: no
        # tuple per arc on top.
        n, m = 8000, 32000
        text = random_edge_list(n, m, seed=8002)
        r = parse_edge_list(text)
        serialize_edge_list(rel(3, [(1, 2)]))
        tracemalloc.start()
        try:
            out = serialize_edge_list(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out == text
        assert peak <= 160 * m, f"{peak / m:.1f} B per arc"

    @settings(max_examples=60)
    @given(relations())
    @example(rel(1, []))
    @example(rel(1, [(1, 1)]))
    def test_matrix_matches_per_cell_join(self, r):
        # the transposed copy keeps column-major storage
        for s in (r, Relation(r.adj.T)):
            assert serialize_matrix(s) == oracle_serialize_matrix(s)

    @settings(max_examples=60)
    @given(relations())
    def test_round_trip_both_formats(self, r):
        assert parse_edge_list(serialize_edge_list(r)) == r
        assert parse_matrix(serialize_matrix(r)) == r

    def test_detection(self):
        assert detect_format("3 2\n1 2\n2 3\n") == "edge-list"
        assert detect_format("# c\n1 0\n") == "edge-list"
        assert detect_format("010\n001\n000\n") == "matrix"
        assert detect_format("0\n") == "matrix"
        with pytest.raises(ParseError):
            detect_format("")
        with pytest.raises(ParseError):
            detect_format("hello world extra\n")

    # Line breaks of every kind str.splitlines knows, and other whitespace,
    # around and between the first content line and the rest.
    @settings(max_examples=300)
    @given(st.one_of(
        st.text(max_size=40),
        st.text(alphabet="01 2#x\t\n\r\v\f\x1c\x1f\x85\u2028\xa0", max_size=40),
    ))
    @example("\r\n \n  01\r\n10\n")
    @example("\n\x1c\n  1 x\n")
    @example("\x85\u2028 # c\n")
    @example(" \x1f\n")
    @example("\n" * 5 + "0" * 300 + "2\n")
    def test_detection_matches_whole_document_split(self, text):
        try:
            expected = oracle_detect_format(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                detect_format(text)
            assert (str(got.value), got.value.line) == (str(exc), exc.line)
            return
        assert detect_format(text) == expected

    def test_parse_relation_reports_format(self):
        r, fmt = parse_relation("10\n01\n")
        assert fmt == "matrix" and r.m == 2

    # Arbitrary text, and text from the alphabet of both formats so that
    # some documents parse.
    @settings(max_examples=150)
    @given(st.one_of(st.text(max_size=40), st.text(alphabet="0123 \t\r\n#", max_size=40)))
    @example("1 0\n")
    @example("01\n10\n")
    def test_fuzz_parses_or_raises_input_error(self, text):
        try:
            r, fmt = parse_relation(text)
        except (ParseError, BudgetError):
            return
        assert parse_relation(serialize_relation(r, fmt)) == (r, fmt)


class TestTransitivity:
    def test_examples(self):
        assert is_transitive(rel(3, []))
        assert not is_transitive(rel(3, [(1, 2), (2, 3)]))
        assert is_transitive(rel(3, [(1, 2), (2, 3), (1, 3)]))

    def test_two_cycle_needs_loops(self):
        assert not is_transitive(rel(2, [(1, 2), (2, 1)]))
        assert is_transitive(rel(2, [(1, 2), (2, 1), (1, 1), (2, 2)]))

    @given(relations())
    def test_matches_triple_loop_oracle(self, r):
        assert is_transitive(r) == oracle_is_transitive(r)


# Chunk sizes of the walk enumeration: one first arc per chunk, a few first
# arcs (boundaries inside and between rows), and the default.
WALK_CHUNKS = [1, 3, relation._WALK_CHUNK]


def walk_routes(r):
    """Verdicts of the walk route, called directly, under each chunk size;
    each must not depend on whether the relation holds its arcs or its matrix."""
    verdicts = []
    for chunk in WALK_CHUNKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relation, "_WALK_CHUNK", chunk)
            verdict = relation._transitive_by_walks(r)
            assert relation._transitive_by_walks(Relation(r.adj)) == verdict
            verdicts.append(verdict)
    return verdicts


def walk_count(r):
    adj = r.adj.astype(np.int64)
    return int(adj.sum(axis=0) @ adj.sum(axis=1))


class TestTransitivityByWalks:
    def test_all_relations_on_three_vertices(self, suite_n3_loops):
        for r in suite_n3_loops:
            assert walk_routes(r) == [oracle_is_transitive(r)] * len(WALK_CHUNKS), r.arcs()

    @given(relations(max_n=9))
    def test_matches_triple_loop_oracle(self, r):
        assert walk_routes(r) == [oracle_is_transitive(r)] * len(WALK_CHUNKS)

    @pytest.mark.parametrize("chunk", WALK_CHUNKS)
    @given(relations(max_n=7))
    def test_walk_order(self, chunk, r):
        # row-major first arc, then the successors of its head in ascending order
        arcs = r.arcs()
        expected = [(i1, i2) for i1, (_, b) in enumerate(arcs)
                    for i2, (b2, _) in enumerate(arcs) if b2 == b]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(relation, "_WALK_CHUNK", chunk)
            chunks = list(relation._forced_arcs(r))
        walks = [(int(i1), int(i2)) for c1, c2, _ in chunks for i1, i2 in zip(c1, c2)]
        assert walks == expected

    @pytest.mark.parametrize("loops", [False, True])
    def test_cut_forward_arcs_scan_every_walk(self, loops):
        # no arc enters the source side; with loops, every walk passes a loop
        side = np.arange(12) % 3 == 0
        r = Relation(np.outer(side, ~side) | np.eye(12, dtype=bool) * loops)
        assert (walk_count(r) > r.m) == loops
        assert walk_routes(r) == [True] * len(WALK_CHUNKS)

    @pytest.mark.parametrize("loops", [False, True])
    def test_dag_closure_scans_every_walk(self, loops):
        dag = rel(9, [(1, 2), (2, 3), (2, 4), (3, 5), (4, 5), (5, 6), (6, 7), (6, 8), (8, 9)]
                  + [(v, v) for v in range(1, 10) if loops])
        closed = transitive_closure(dag)
        assert walk_count(closed) > closed.m
        assert walk_routes(closed) == [True] * len(WALK_CHUNKS)
        # only the walk 6->8->9, late in row-major order, forces (6, 9)
        adj = closed.adj.copy()
        adj[5, 8] = False
        assert walk_routes(Relation(adj)) == [False] * len(WALK_CHUNKS)

    def test_sparse_input_takes_the_walk_route(self, monkeypatch):
        def no_rows(adj):
            raise AssertionError("packed-row route on a sparse input")

        monkeypatch.setattr(relation, "_transitive_by_rows", no_rows)
        n = 2000
        rng = np.random.default_rng(2000)
        adj = np.zeros((n, n), dtype=bool)
        adj[rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n)] = True
        assert not is_transitive(Relation(adj))
        side = np.arange(n) < 3
        assert is_transitive(Relation(np.outer(side, ~side)))

    def test_arc_held_relations_build_no_matrix(self):
        rng = np.random.default_rng(300)
        r = Relation.from_arcs(300, rng.integers(1, 301, size=(1200, 2)).tolist())
        kept, _ = maximal_transitive_v2(r, collect_trace=False)
        for s in (r, kept, quarter_approx(r)):
            verdict = is_transitive(s)
            assert s._adj is None  # the walks read the arcs
            assert verdict == oracle_is_transitive(s)
        assert not is_transitive(r) and is_transitive(kept)

    def test_walk_route_peak_per_arc(self):
        # A fresh arc-held one-way bipartite relation (n=3000, m=2*10^6, W=0)
        # costs the walk route only its setup: the heads of the codes, the
        # walk counts and their sums, the degrees included, under 44 B per arc.
        side = np.arange(3000) < 1000
        r = Relation._from_sorted_codes(3000, np.flatnonzero(np.outer(side, ~side)))
        is_transitive(rel(3, [(1, 2)]))
        tracemalloc.start()
        try:
            transitive = is_transitive(r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert transitive and r._adj is None and r.m == 2 * 10**6
        assert peak <= 44 * r.m, f"{peak / r.m:.1f} B per arc"

    def test_dense_input_takes_the_row_route(self, monkeypatch):
        calls = []
        by_rows = relation._transitive_by_rows

        def counted(adj):
            calls.append(adj.shape)
            return by_rows(adj)

        monkeypatch.setattr(relation, "_transitive_by_rows", counted)
        rng = np.random.default_rng(200)
        r = Relation(rng.random((200, 200)) < 0.5)
        assert not is_transitive(r)
        closed = transitive_closure(r)
        assert is_transitive(closed)
        assert calls == [(200, 200)] * 2


@st.composite
def near_transitive(draw, n):
    """A closure of a seeded random relation with loops, as drawn or with one
    cell flipped, so that about half are not transitive."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = rng.random((n, n)) < draw(st.sampled_from([0.5, 1.0, 1.5])) / n
    adj = transitive_closure(Relation(adj)).adj.copy()
    if draw(st.booleans()):
        cell = draw(st.integers(0, n * n - 1))
        adj.flat[cell] = not adj.flat[cell]
    return Relation(adj)


class TestTransitivityByRows:
    # Row widths around one and two 64-bit words.
    @pytest.mark.parametrize("n", [63, 64, 65, 127, 129])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_matches_triple_loop_oracle(self, n, data):
        r = data.draw(near_transitive(n))
        expected = oracle_is_transitive(r)
        assert relation._transitive_by_rows(r.adj) == expected
        assert is_transitive(r) == expected

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 129])
    @pytest.mark.parametrize("last", ["row", "column"])
    def test_only_a_last_cell_fails(self, n, last):
        # In a closure holding (u, w) and (w, v), dropping (u, v) leaves the
        # walks u -> b -> v as the only violations, in the last row or the
        # last column (the last bits of each packed row).
        u, w, v = (n - 1, 0, 1) if last == "row" else (0, 1, n - 1)
        rng = np.random.default_rng(n)
        adj = rng.random((n, n)) < 1 / n
        adj[u, w] = adj[w, v] = True
        adj = transitive_closure(Relation(adj)).adj.copy()
        adj[u, v] = False
        r = Relation(adj)
        square = adj.astype(np.int64) @ adj.astype(np.int64)
        assert np.argwhere((square > 0) & ~adj).tolist() == [[u, v]]
        assert not relation._transitive_by_rows(r.adj)
        assert not oracle_is_transitive(r)
        full = transitive_closure(r)
        assert relation._transitive_by_rows(full.adj) and oracle_is_transitive(full)

    def test_chunks_of_successor_rows(self):
        # All successor rows of a vertex are gathered at once.
        rng = np.random.default_rng(65)
        closed = transitive_closure(Relation(rng.random((65, 65)) < 0.03)).adj
        broken = closed.copy()
        broken[np.argmax(closed.sum(axis=1)), np.argmax(closed.sum(axis=0))] ^= True
        # Only the second successor of vertex 1 leaves its row.
        late = rel(65, [(1, 2), (1, 3), (3, 4)]).adj
        cases = (closed, broken, late)
        expected = [oracle_is_transitive(Relation(a)) for a in cases]
        assert expected == [True, False, False]
        assert [relation._transitive_by_rows(a) for a in cases] == expected


class TestRouteTable:
    """``relation._route`` near the crossovers of the route-cost table: each
    input is pinned to the route measured faster on it, in process, medians
    of 5, with a fresh relation per run so that building a missing view
    counts.  Times are v2 sets / rows and quarter lists / matrix, in ms.
    Containment has no entry in the table: its pins check the views that
    ``is_subrelation`` reads, and that it builds none."""

    @staticmethod
    def random(n, m, seed):
        cells = np.random.default_rng(seed).choice(n * (n - 1), size=m, replace=False)
        src, dst = np.divmod(cells, n - 1)
        return Relation.from_arcs(n, np.column_stack([src + 1, dst + 1 + (dst >= src)]))

    @staticmethod
    def both_views(r):
        r.adj, r._arc_arrays()
        return r

    @staticmethod
    def routes(r):
        held = r._adj is not None
        picked = relation._route("maximal", r), relation._route("quarter", r)
        assert (r._adj is not None) == held  # no matrix was built
        return picked

    def test_random_arc_held_with_many_walks(self):
        # n=4000, m=n^2/128, W=3.9e6: 99-140 / 41-42 and 15-17 / 180-200
        r = self.random(4000, 4000 * 4000 // 128, seed=1)
        assert r._adj is None and self.routes(r) == ("rows", "arcs")

    def test_star_with_two_cycles(self):
        # n=2000, m=3998, W=4.0e6, both views held: 2.5 / 12.7-13.4 and 1.9-2.0 /
        # 20-23.  The sets were 12.7 until ``_set_run`` stopped differencing
        # an emptied set; the table still picks the rows (ROADMAP item 10).
        leaves = np.arange(2, 2001)
        hub = np.ones_like(leaves)
        r = self.both_views(Relation.from_arcs(2000, np.column_stack([
            np.concatenate([hub, leaves]), np.concatenate([leaves, hub])])))
        assert self.routes(r) == ("rows", "arcs")

    def test_one_way_complete_bipartite(self):
        # 1000 -> 1000, m=10^6, W=0, both views held: 346-465 / 86-118 and
        # 94-126 / 15-22; is_transitive by walks 26-33, by rows 62-72
        side = np.arange(2000) < 1000
        r = self.both_views(Relation(np.outer(side, ~side)))
        assert self.routes(r) == ("rows", "rows")
        assert relation._route("transitive", r) == "arcs"

    def test_random_matrix_held_dense(self):
        # n=2000, m=n^2/32: 75-113 / 16-27 and 19-25 / 15-21
        r = Relation(self.random(2000, 2000 * 2000 // 32, seed=4).adj)
        assert r._codes is None and self.routes(r) == ("rows", "rows")

    def test_random_matrix_held_sparse(self):
        # n=4000, m=4n: 20-27 / 83-90 and 11-12 / 194-195
        r = Relation(self.random(4000, 4 * 4000, seed=5).adj)
        assert r._codes is None and self.routes(r) == ("arcs", "arcs")
        assert r._codes is not None  # W was counted on the arc view, which the sets read

    @staticmethod
    def nested(n, m, seed):
        """An arc-held b of m random arcs and the arc-held a of every other arc of b."""
        b = TestRouteTable.random(n, m, seed)
        src, dst = b._arc_arrays()
        return Relation._from_sorted_codes(n, src[::2] * n + dst[::2]), b

    @staticmethod
    def views_held(*rels):
        return [(r._adj is not None, r._codes is not None) for r in rels]

    def test_arc_held_pair_inside_a_matrix(self):
        # n=8000, m_a=2n, m_b=4n, b matrix-held: the matrix of b is read at
        # the arcs of a, and neither relation builds a view.
        a, b = self.nested(8000, 4 * 8000, seed=7)
        b = Relation(b.adj)
        assert is_subrelation(a, b) and a._adj is None
        assert self.views_held(a, b) == [(False, True), (True, False)]

    def test_matrix_held_dense_pair(self):
        # n=2000, m_b=n^2/4, m_a=m_b/2, both matrix-held: the cell-by-cell
        # test, with no arc view.
        a, b = self.nested(2000, 2000 * 2000 // 4, seed=8)
        a, b = Relation(a.adj), Relation(b.adj)
        assert is_subrelation(a, b)
        assert not is_subrelation(b, a)  # more arcs
        assert self.views_held(a, b) == [(True, False), (True, False)]

    def test_arc_held_sparse_pair(self):
        # n=8000, m_a=2n, m_b=4n, both arc-held: the lookup among the arc
        # codes of b.
        a, b = self.nested(8000, 4 * 8000, seed=9)
        assert is_subrelation(a, b)
        assert a._adj is None and b._adj is None

    def test_walks_of_a_dense_matrix_are_counted_without_an_arc_view(self):
        # The benchmark's n=2000, m=n^2/4 matrix: is_transitive's arc route is
        # priced lower before its walks are counted, and counting on the arc
        # codes and their heads would take 16 bytes per arc against the
        # matrix's one byte per cell.
        r = Relation(self.random(2000, 2000 * 2000 // 4, seed=6).adj)
        assert relation._route("transitive", r) == "rows"
        assert r._codes is None


class TestPackedRows:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    def test_column_j_is_bit_j_mod_64_of_word_j_div_64(self, n):
        for i, j in {(0, 0), (0, n - 1), (n - 1, 0), (n // 2, 63 % n), (n - 1, n - 1)}:
            adj = np.zeros((n, n), dtype=bool)
            adj[i, j] = True
            rows = relation._packed_rows(adj)
            expected = np.zeros((n, -(-n // 64)), dtype=np.uint64)
            expected[i, j // 64] = np.uint64(1) << np.uint64(j % 64)
            assert rows.dtype == np.dtype("<u8") and rows.flags.writeable
            assert np.array_equal(rows, expected), (i, j)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    def test_unpacked_inverts_packed(self, n):
        adj = np.random.default_rng(n).random((n, n)) < 0.5
        rows = relation._packed_rows(adj)
        assert np.array_equal(relation._unpacked(rows, n), adj)
        # No bit past the last column is set.
        assert np.array_equal(relation._packed_rows(relation._unpacked(rows, n)), rows)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    def test_members_are_the_set_bits_below_n(self, n):
        adj = np.random.default_rng(n).random((n, n)) < 0.5
        rows = relation._packed_rows(adj)
        for i in range(n):
            assert relation._members(rows[i], n).tolist() == np.flatnonzero(adj[i]).tolist()
            # Complemented rows set the bits past column n - 1 too.
            assert relation._members(~rows[i], n).tolist() == np.flatnonzero(~adj[i]).tolist()


class TestTransitiveClosure:
    # Rows of one and two 64-bit words, with loops and 2-cycles, from a mean
    # out-degree near 1/2 (short paths) to one strong component.
    @pytest.mark.parametrize("n", [63, 64, 65, 127, 129])
    @pytest.mark.parametrize("p", [0.004, 0.008, 0.016, 0.02, 0.3, 0.9])
    def test_wide_rows_match_oracles(self, n, p):
        r = Relation(wide_matrix(n, p, seed=n))
        closed = transitive_closure(r)
        assert closed == oracle_warshall_closure(r)
        assert set(closed.arcs()) == oracle_closure_arcs(r)
        assert transitive_closure(rel(n, r.arcs())) == closed

    def test_path(self):
        assert transitive_closure(rel(3, [(1, 2), (2, 3)])).arcs() == [
            (1, 2), (1, 3), (2, 3),
        ]

    def test_empty(self):
        assert transitive_closure(rel(2, [])).m == 0

    def test_cycle_closes_to_full_with_loops(self):
        closed = transitive_closure(rel(3, [(1, 2), (2, 3), (3, 1)]))
        assert closed.m == 9

    @given(relations())
    def test_matches_iterated_squaring_oracle(self, r):
        assert set(transitive_closure(r).arcs()) == oracle_closure_arcs(r)

    @given(relations())
    def test_extensive_transitive_idempotent(self, r):
        closed = transitive_closure(r)
        assert is_subrelation(r, closed)
        assert is_transitive(closed)
        assert transitive_closure(closed) == closed

    @given(relations())
    def test_fixed_point_iff_transitive(self, r):
        assert (transitive_closure(r) == r) == is_transitive(r)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_minimality_by_superset_intersection(self, n):
        # closure(r) must equal the intersection of all transitive supersets
        pairs = ordered_pairs(n, loops=True)
        bits = len(pairs)
        transitive_masks = [
            mask
            for mask in range(1 << bits)
            if oracle_is_transitive(
                Relation.from_arcs(n, [pairs[i] for i in range(bits) if (mask >> i) & 1])
            )
        ]
        for r in all_relations(n, loops=True):
            rmask = 0
            for i, pair in enumerate(pairs):
                if pair in set(r.arcs()):
                    rmask |= 1 << i
            meet = (1 << bits) - 1
            for tmask in transitive_masks:
                if tmask & rmask == rmask:
                    meet &= tmask
            expected = {pairs[i] for i in range(bits) if (meet >> i) & 1}
            assert set(transitive_closure(r).arcs()) == expected


class TestSubrelation:
    def test_examples(self):
        assert is_subrelation(rel(3, []), rel(3, [(1, 2)]))
        assert is_subrelation(rel(3, [(1, 2)]), rel(3, [(1, 2), (2, 3)]))
        assert not is_subrelation(rel(2, [(2, 1)]), rel(2, [(1, 2)]))

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError, match="mismatch"):
            is_subrelation(rel(2, []), rel(3, []))

    # The views a relation can hold: arcs only, matrix only, both.
    VIEWS = (
        lambda r: rel(r.n, r.arcs()),
        lambda r: Relation(r.adj),
        lambda r: TestRouteTable.both_views(rel(r.n, r.arcs())),
    )

    @classmethod
    def check_nine_view_pairs(cls, a, b):
        """``is_subrelation`` matches arc-set inclusion on fresh relations of
        every pair of held views, and builds no view."""
        expected = set(a.arcs()) <= set(b.arcs())
        for x_view in cls.VIEWS:
            for y_view in cls.VIEWS:
                x, y = x_view(a), y_view(b)
                held = TestRouteTable.views_held(x, y)
                assert is_subrelation(x, y) is expected  # a Python bool, as JSON reports need
                assert TestRouteTable.views_held(x, y) == held

    @settings(max_examples=150)
    @given(relation_pairs())
    @example((rel(3, [(1, 2)]), rel(3, [])))
    @example((rel(1, []), rel(1, [])))
    def test_every_view_matches_arc_set_inclusion(self, pair):
        self.check_nine_view_pairs(*pair)

    @settings(max_examples=150)
    @given(nested_pairs())
    @example((rel(1, []), rel(1, [])))
    @example((rel(3, []), rel(3, [(1, 2)])))
    @example((rel(3, [(1, 2)]), rel(3, [])))  # b.m == 0
    @example((rel(3, [(1, 2), (2, 3)]), rel(3, [(1, 2), (3, 1)])))  # equal m, not contained
    def test_both_routes_match_arc_set_inclusion(self, pair):
        # In half of the nested pairs a lies inside b, so each rule reads
        # every arc or cell to the end.
        self.check_nine_view_pairs(*pair)

    def test_lookup_among_no_arcs_finds_none(self):
        no_codes = np.array([], dtype=np.int64)
        assert relation._arc_index(no_codes, np.array([0, 5])).tolist() == [-1, -1]


class TestUnderlyingGraph:
    def test_two_cycle_merges(self):
        g = underlying_graph(rel(2, [(1, 2), (2, 1)]))
        assert g.edges == frozenset({(1, 2)})

    def test_loops_dropped(self):
        assert underlying_graph(rel(1, [(1, 1)])).m == 0

    def test_cycle_becomes_triangle(self):
        g = underlying_graph(rel(3, [(1, 2), (2, 3), (3, 1)]))
        assert g.edges == frozenset({(1, 2), (2, 3), (1, 3)})

    @staticmethod
    def check(r):
        arcs_only = rel(r.n, r.arcs())  # a shared fixture may have built its matrix
        g = underlying_graph(arcs_only)
        assert arcs_only._adj is None
        assert g == underlying_graph(Relation(r.adj)) == oracle_underlying_graph(r)

    def test_matches_matrix_exhaustive_n3(self, suite_n3_loops):
        for r in suite_n3_loops:
            self.check(r)

    @settings(max_examples=100)
    @given(relations(max_n=12))
    def test_matches_matrix(self, r):
        self.check(r)


class TestTriangleFree:
    def test_triangle(self):
        g = UndirectedGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
        assert not is_triangle_free(g)
        assert find_triangle(g) == (1, 2, 3)

    def test_four_cycle(self):
        g = UndirectedGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert is_triangle_free(g)

    def test_empty(self):
        assert is_triangle_free(UndirectedGraph.from_edges(3, []))

    def test_only_the_helper_raises_triangle_errors(self):
        package = Path(relation.__file__).parent
        raisers = [
            f"{path.name}:{func.name}"
            for path in sorted(package.glob("*.py"))
            for func in ast.walk(ast.parse(path.read_text()))
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == "TriangleFoundError"
        ]
        assert raisers == ["relation.py:_require_triangle_free"]

    @pytest.mark.parametrize("edge", [(1.5, 2), (1, 3.0), ("1", "2"), (1, "2"), (1, None), (1, 2j)])
    def test_rejects_non_integer_endpoints(self, edge):
        with pytest.raises(ValueError, match="^arc endpoints must be integers, got "):
            UndirectedGraph.from_edges(3, [edge])
        with pytest.raises(ValueError, match="^arc endpoints must be integers, got "):
            UndirectedGraph(3, frozenset([edge]))

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match=r"^self-loop \(2, 2\) not allowed$"):
            UndirectedGraph.from_edges(3, [(2, 2)])
        with pytest.raises(ValueError, match=r"^self-loop \(2, 2\) not allowed$"):
            UndirectedGraph(3, frozenset({(2, 2)}))

    @pytest.mark.parametrize("edges", [[1, 2], [(1, 2, 3)], [(1,)]])
    def test_rejects_items_that_are_not_pairs(self, edges):
        with pytest.raises(ValueError, match=r"^edges must be \(u, v\) pairs, got "):
            UndirectedGraph.from_edges(3, edges)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3"])
    def test_rejects_non_integer_vertex_counts(self, n):
        with pytest.raises(ValueError, match="^vertex count must be an integer, got "):
            UndirectedGraph(n, frozenset())
        with pytest.raises(ValueError, match="^vertex count must be an integer, got "):
            UndirectedGraph.from_edges(n, [(1, 2)])


class TestWalkCount:
    """W against a Python sum of indeg(b) * outdeg(b), on a matrix-held and
    an arc-held copy; a dense matrix is counted in int32."""

    @staticmethod
    def counts(adj):
        copies = (Relation(adj), Relation._from_sorted_codes(adj.shape[0], np.flatnonzero(adj)))
        return [relation._walk_count(r) for r in copies]

    @staticmethod
    def python_sum(adj):
        return sum(i * o for i, o in zip(adj.sum(axis=0).tolist(), adj.sum(axis=1).tolist()))

    @given(relations())
    def test_matches_a_python_sum(self, r):
        assert self.counts(r.adj) == [self.python_sum(r.adj)] * 2

    def test_all_ones_past_the_int32_range(self):
        n = 2000  # W = n^3 = 8e9; an int32 dot gives -589934592
        adj = np.ones((n, n), dtype=bool)
        assert self.counts(adj) == [self.python_sum(adj)] * 2 == [n**3] * 2


class TestDegrees:
    """``Relation._degrees`` counts once and keeps read-only arrays, whether
    the relation holds its matrix or its arcs."""

    @staticmethod
    def views(r):
        return Relation(r.adj), Relation._from_sorted_codes(r.n, np.flatnonzero(r.adj))

    @given(relations())
    def test_second_call_returns_the_same_read_only_arrays(self, r):
        for copy in self.views(r):
            first = copy._degrees()
            assert all(a is b for a, b in zip(copy._degrees(), first))
            assert not any(a.flags.writeable for a in first)
            assert [a.tolist() for a in first] == \
                [r.adj.sum(axis=1).tolist(), r.adj.sum(axis=0).tolist()]

    @given(relations())
    def test_check_verdicts_on_both_views(self, r):
        arcs = r.arcs()
        expected = [
            ("transitive", oracle_is_transitive(r)),
            ("path_length_two", any(b == c for _, b in arcs for c, _ in arcs)),
        ]
        for copy in self.views(r):
            # the second call finds the degrees of the first
            assert _check_verdicts(copy, None) == _check_verdicts(copy, None) == (expected, r.m)


class TestPathLengthTwo:
    def test_examples(self):
        assert has_path_length_two(rel(3, [(1, 2), (2, 3)]))
        assert not has_path_length_two(rel(4, [(1, 2), (3, 4)]))
        # repeated endpoints count: 1 -> 2 -> 1
        assert has_path_length_two(rel(2, [(1, 2), (2, 1)]))

    def test_loop_composes_with_itself(self):
        assert has_path_length_two(rel(1, [(1, 1)]))

    @given(relations())
    def test_matches_a_scan_of_arc_pairs(self, r):
        arcs = r.arcs()
        expected = any(b == c for _, b in arcs for c, _ in arcs)
        assert has_path_length_two(r) == has_path_length_two(Relation(r.adj)) == expected

    def test_counts_on_an_arc_view_no_larger_than_the_matrix(self, monkeypatch):
        # 16 * m == n^2: the view's two int64 arrays match the matrix's bytes.
        r = Relation(rel(8, [(1, 2), (2, 3), (5, 5), (7, 8)]).adj)

        def no_matrix_count(*args, **kwargs):
            raise AssertionError("degrees counted on the matrix")

        monkeypatch.setattr(relation.np, "count_nonzero", no_matrix_count)
        assert has_path_length_two(r) and r._codes is not None

    def test_counts_on_a_smaller_matrix(self):
        # 16 * m > n^2: the matrix is counted, and no arc view is built.
        r = Relation(rel(8, [(1, 2), (3, 4), (5, 6), (7, 8), (1, 4)]).adj)
        assert not has_path_length_two(r) and r._codes is None


@st.composite
def distinct_masks(draw, max_n: int):
    """A bit count n and a nonempty list of distinct n-bit masks, in any order."""
    n = draw(st.integers(1, max_n))
    return n, draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=64, unique=True))


class TestLowBitsFirst:
    # The one tie-break of both exhaustive searches, against the key oracle
    # of each search.

    @given(distinct_masks(max_n=20))
    @example((3, [0b110, 0b101, 0b011]))
    def test_smallest_side_vector_of_the_cut_search(self, case):
        n, masks = case
        masks = np.array(masks, dtype=np.int64)  # as ``np.flatnonzero`` gives them
        assert relation._low_bits_first(masks, n) == oracle_smallest_side_vector(masks, n)

    @given(distinct_masks(max_n=24))
    @example((24, [0, (1 << 24) - 1]))
    @example((3, [0b001, 0b110]))
    def test_largest_value_vector_of_the_max_ones_search(self, case):
        v, masks = case
        masks = np.array(masks, dtype=np.uint32)  # as ``sat.max_ones_brute_force`` holds them
        assert relation._low_bits_first(masks, v) == oracle_largest_value_vector(masks, v)

    def test_every_mask_tied(self):
        # The empty 20-vertex graph: every cut ties at 0, and all of them go to U.
        masks = np.flatnonzero(np.zeros(1 << 20, dtype=np.int32) == 0)
        expected = oracle_smallest_side_vector(masks, 20)
        assert relation._low_bits_first(masks, 20) == expected == (1 << 20) - 1
