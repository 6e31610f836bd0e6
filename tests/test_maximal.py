import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_relations,
    oracle_extend_by_blocks,
    oracle_extend_to_maximal,
    oracle_is_maximal_by_products,
    oracle_is_maximal_transitive,
    oracle_is_transitive,
    oracle_maximal_cell_scan,
    oracle_traced_run,
    random_digraph,
    relations,
    wide_matrix,
)
from transub import maximal
from transub import (
    PreconditionError,
    Relation,
    extend_to_maximal,
    is_maximal_transitive,
    is_subrelation,
    is_transitive,
    maximal_transitive_v1,
    maximal_transitive_v2,
    transitive_closure,
)


def rel(n, arcs):
    return Relation.from_arcs(n, arcs)


PATH = rel(3, [(1, 2), (2, 3)])
CYCLE = rel(3, [(1, 2), (2, 3), (3, 1)])


class TestAlgorithmExamples:
    def test_transitive_input_untouched(self):
        r = rel(3, [(1, 2), (2, 3), (1, 3)])
        out, trace = maximal_transitive_v1(r)
        assert out == r
        assert trace.deleted == ()
        assert list(trace.visited) == r.arcs()

    def test_path_hand_trace(self):
        out, trace = maximal_transitive_v1(PATH)
        assert out.arcs() == [(1, 2)]
        # visiting (1,2) at i=1 finds (1,3) absent, deleting (2,3)
        assert trace.visited == ((1, 2),)
        assert trace.deleted == (((2, 3), 1),)

    def test_cycle_hand_trace(self):
        out, trace = maximal_transitive_v1(CYCLE)
        assert out.arcs() == [(1, 2)]
        assert trace.visited == ((1, 2),)
        assert trace.deleted == (((2, 3), 1), ((3, 1), 1))

    def test_v2_matches_on_examples(self):
        for r in (PATH, CYCLE, rel(2, []), rel(2, [(1, 1), (1, 2), (2, 1)])):
            assert maximal_transitive_v1(r) == maximal_transitive_v2(r)

    def test_empty_relation(self):
        out, trace = maximal_transitive_v2(rel(4, []))
        assert out.m == 0 and trace.visited == () and trace.deleted == ()

    def test_loops_are_visited_and_kept(self):
        out, trace = maximal_transitive_v2(rel(2, [(1, 1), (2, 2)]))
        assert out.m == 2
        assert trace.visited == ((1, 1), (2, 2))


class TestTraceInvariants:
    @given(relations())
    def test_visited_equals_output_and_never_deleted(self, r):
        for algorithm in (maximal_transitive_v1, maximal_transitive_v2):
            out, trace = algorithm(r)
            assert set(trace.visited) == set(out.arcs())
            assert not trace.visited_set() & trace.deleted_arcs()

    @given(relations())
    def test_no_deletion_from_current_source_row(self, r):
        _, trace = maximal_transitive_v1(r)
        assert all(arc[0] != iteration for arc, iteration in trace.deleted)

    @given(relations())
    def test_deterministic(self, r):
        assert maximal_transitive_v1(r) == maximal_transitive_v1(r)
        assert maximal_transitive_v2(r) == maximal_transitive_v2(r)

    @given(relations())
    def test_fast_path_matches_traced_path(self, r):
        for algorithm in (maximal_transitive_v1, maximal_transitive_v2):
            traced, _ = algorithm(r)
            fast, trace = algorithm(r, collect_trace=False)
            assert trace is None
            assert fast == traced


def assert_traces_match_oracle(r):
    """Output, visits and deletions of both routes equal the loop oracle's."""
    for algorithm, row_extract in ((maximal_transitive_v1, False), (maximal_transitive_v2, True)):
        out, trace = algorithm(r)
        expected, oracle = oracle_traced_run(r, row_extract)
        assert out == expected, r.arcs()
        assert trace.visited == oracle.visited, r.arcs()
        assert trace.deleted == oracle.deleted, r.arcs()


class TestTraceOracle:
    def test_exhaustive_and_random_suites(self, suite_n3_loops, suite_n4_loopfree,
                                          random_digraphs_1000):
        for r in (*suite_n3_loops, *suite_n4_loopfree, *random_digraphs_1000):
            assert_traces_match_oracle(r)

    @settings(max_examples=150)
    @given(relations(max_n=12))
    def test_random_relations(self, r):
        assert_traces_match_oracle(r)

    @pytest.mark.parametrize("a, b", [(1, 2), (1, 4), (2, 3), (3, 4)])
    def test_two_cycles(self, a, b):
        # Visiting (i, j) = (a, b) with (b, a) present and neither loop lets
        # both rules delete (b, a); it is recorded once, at k = i.  With both
        # loops the reverse arc survives and is visited too, with i > j.
        for loops in ([], [(a, a)], [(b, b)], [(a, a), (b, b)]):
            for arcs in ([(a, b), (b, a)], [(b, a), (a, b)]):
                r = rel(4, arcs + loops)
                assert_traces_match_oracle(r)
                if not loops:
                    assert maximal_transitive_v1(r)[1].deleted == (((b, a), a),)

    def test_two_cycle_inside_a_longer_sweep(self):
        # Visiting (1, 3) deletes (3, 1), hit by both rules, at k = 1; then at
        # k = 2 the row rule's (3, 2) before the column rule's (2, 1).
        r = rel(4, [(1, 3), (3, 1), (2, 1), (3, 4), (4, 3), (3, 2)])
        assert_traces_match_oracle(r)
        assert maximal_transitive_v1(r)[1].deleted[:3] == (((3, 1), 1), ((3, 2), 1), ((2, 1), 1))


class TestOutputContract:
    @given(relations())
    def test_output_is_maximal_transitive_subrelation(self, r):
        out, _ = maximal_transitive_v2(r)
        assert is_subrelation(out, r)
        assert is_transitive(out)
        assert is_maximal_transitive(r, out)

    def test_equivalence_exhaustive_n3_with_loops(self):
        for r in all_relations(3, loops=True):
            assert maximal_transitive_v1(r) == maximal_transitive_v2(r)

    def test_equivalence_random_n30(self):
        rng = random.Random(77)
        for _ in range(60):
            r = random_digraph(rng, rng.randint(1, 30), 0.2)
            assert maximal_transitive_v1(r) == maximal_transitive_v2(r)


def sweep_routes(r):
    """Arcs of the v2 set route and of the dense v2 sweep, each called
    directly; the set route reads the arcs, the dense sweep packed matrix rows."""
    by_sets = maximal._set_run(Relation.from_arcs(r.n, r.arcs()))
    by_matrix = maximal._row_run(Relation(r.adj))
    return by_sets.arcs(), by_matrix.arcs()


class TestSetRoute:
    def test_all_relations_on_three_vertices(self, suite_n3_loops):
        for r in suite_n3_loops:
            expected = oracle_maximal_cell_scan(r).arcs()
            assert sweep_routes(r) == (expected, expected), r.arcs()

    @settings(max_examples=150)
    @given(relations(max_n=12))
    def test_matches_cell_scan_oracle(self, r):
        expected = oracle_maximal_cell_scan(r).arcs()
        assert sweep_routes(r) == (expected, expected)

    def test_seeded_sparse_matches_dense_sweep(self):
        n = 2000
        rng = np.random.default_rng(2000)
        r = Relation.from_arcs(n, rng.integers(1, n + 1, size=(4 * n, 2)).tolist())
        by_sets, by_matrix = sweep_routes(r)
        assert by_sets == by_matrix
        assert 0 < len(by_sets) < r.m

    def test_sparse_input_takes_the_set_route(self, monkeypatch):
        def no_matrix(r, sink=None):
            raise AssertionError("matrix sweep on a sparse input")

        monkeypatch.setattr(maximal, "_cell_scan", no_matrix)
        monkeypatch.setattr(maximal, "_row_run", no_matrix)
        r = Relation.from_arcs(100, [(i, i % 100 + 1) for i in range(1, 101)])
        for collect_trace in (False, True):
            out, _ = maximal_transitive_v2(r, collect_trace=collect_trace)
            assert r._adj is None and out._adj is None  # no matrix was built
            assert out == oracle_maximal_cell_scan(r)

    def test_dense_input_takes_the_matrix_route(self, monkeypatch):
        def no_sets(r):
            raise AssertionError("set sweep on a dense input")

        monkeypatch.setattr(maximal, "_set_run", no_sets)
        # rows 1.5 ms against sets 2.1 ms (in process, medians of 21)
        r = Relation(np.random.default_rng(8).random((100, 100)) < 0.5)
        out, _ = maximal_transitive_v2(r, collect_trace=False)
        assert out == oracle_maximal_cell_scan(r)


    def test_dense_sweep_allocates_one_matrix(self):
        # The dense sweep packs the input matrix into n^2 / 8 bytes of rows
        # and unpacks them once into the result, which it returns frozen, so
        # its allocations peak near 1.125 n^2 bytes.
        n = 2000
        r = Relation(np.random.default_rng(2000).random((n, n)) < 0.25)
        maximal_transitive_v2(Relation(np.eye(3, dtype=bool)), collect_trace=False)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, _ = maximal_transitive_v2(r, collect_trace=False)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out._codes is None and not out.adj.flags.writeable
        assert peak < 1.25 * n * n, f"{peak / 2**20:.1f} MiB"


class TestTracedSetRoute:
    """Traced v2 sweeps successor and predecessor sets at every density; its
    output and trace must equal the cell scan's and the loop oracle's
    (``assert_traces_match_oracle`` runs both routes)."""

    def test_sparse_arc_input_builds_no_matrix(self):
        n = 2000
        rng = np.random.default_rng(2000)
        r = Relation.from_arcs(n, rng.integers(1, n + 1, size=(4 * n, 2)).tolist())
        out, trace = maximal_transitive_v2(r)
        assert r._adj is None and out._adj is None
        assert list(trace.visited) == out.arcs()
        assert out == maximal_transitive_v2(r, collect_trace=False)[0]

    def test_seeded_sparse_matches_oracle(self):
        n = 300
        rng = np.random.default_rng(300)
        r = Relation.from_arcs(n, rng.integers(1, n + 1, size=(4 * n, 2)).tolist())
        assert_traces_match_oracle(r)

    def test_column_rule_replaces_the_predecessor_set(self):
        # Visiting (1, 2) deletes (4, 1) by the column rule, which replaces
        # pred(1) by a new set.  Visiting (1, 3) deletes (3, 1) by the row
        # rule alone, since the loop keeps 3 in pred(3); it must leave the new
        # set, or visiting (1, 4) records (3, 1) a second time.  A star with
        # 2-cycles empties pred(1) at its first arc.
        r = rel(4, [(1, 2), (1, 3), (1, 4), (3, 1), (3, 2), (3, 3), (4, 1)])
        assert_traces_match_oracle(r)
        assert maximal_transitive_v2(r)[1].deleted == (((4, 1), 1), ((3, 1), 1))
        star = [(1, v) for v in range(2, 9)]
        assert_traces_match_oracle(rel(8, star + [(v, u) for u, v in star]))

    @pytest.mark.parametrize("p", [0.3, 0.9])
    @pytest.mark.parametrize("n", [63, 65, 129])
    def test_dense_with_loops_matches_oracle(self, n, p):
        adj = np.random.default_rng(n).random((n, n)) < p
        adj[np.diag_indices(n)] = np.arange(n) % 2 == 0
        r = Relation(adj)
        assert_traces_match_oracle(r)


class TestRowRoute:
    # Largest relation size drawn: one vertex, a few, and up to a full
    # packed word of 64 bits.
    @pytest.mark.parametrize("max_n", [1, 3, 64])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_cell_scan_and_traced_v2(self, max_n, data):
        n = data.draw(st.integers(1, max_n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        r = Relation(rng.random((n, n)) < data.draw(st.sampled_from([0.25, 0.5, 0.9])))
        traced, _ = maximal_transitive_v2(r)
        out, _ = maximal_transitive_v2(r, collect_trace=False)
        assert out == oracle_maximal_cell_scan(r) == traced

    @pytest.mark.parametrize("p", [0.02, 0.3, 0.9, 1.0])
    @pytest.mark.parametrize("n", [63, 64, 65, 127, 129])
    def test_word_boundary_widths(self, n, p):
        # Rows of one, two and three packed words, loops included.  The matrix
        # sweep is called directly, since at p=0.02 v2 takes the set route.
        r = Relation(np.random.default_rng(n).random((n, n)) < p)
        out = maximal._row_run(r)
        assert out == oracle_maximal_cell_scan(r) == maximal_transitive_v2(r)[0]
        assert maximal_transitive_v2(r, collect_trace=False)[0] == out

    @pytest.mark.parametrize("n", [1, 64, 200])
    def test_transitive_input_is_returned(self, n):
        order = Relation(np.triu(np.ones((n, n), dtype=bool), 1))
        rng = np.random.default_rng(n)
        closed = transitive_closure(Relation(rng.random((n, n)) < 2 / n))
        for r in (order, closed):
            assert maximal._row_run(r) == r
            assert maximal_transitive_v2(r, collect_trace=False)[0] == r

    def test_rows_longer_than_a_block(self):
        # Rows of three packed words, most of whose bits are set.
        n = 150
        r = Relation(np.random.default_rng(150).random((n, n)) < 0.9)
        assert np.count_nonzero(r.adj, axis=1).max() > 2 * 64
        out, _ = maximal_transitive_v2(r, collect_trace=False)
        assert out == maximal_transitive_v2(r)[0] == oracle_maximal_cell_scan(r)
        assert is_transitive(out)


class TestMaximalityOracle:
    def test_path_examples(self):
        assert is_maximal_transitive(PATH, rel(3, [(1, 2)]))
        assert not is_maximal_transitive(rel(2, [(1, 2)]), rel(2, []))
        host = rel(3, [(1, 2), (2, 3), (1, 3)])
        assert is_maximal_transitive(host, host)

    def test_precondition_errors_are_distinct(self):
        with pytest.raises(PreconditionError, match="not contained"):
            is_maximal_transitive(rel(2, [(1, 2)]), rel(2, [(2, 1)]))
        with pytest.raises(PreconditionError, match="not transitive"):
            is_maximal_transitive(PATH, PATH)

    def test_matches_subset_enumeration_oracle(self):
        # maximal iff no strictly larger transitive subset of the host
        # contains t; checked by enumerating host arc subsets
        rng = random.Random(5)
        for _ in range(40):
            host = random_digraph(rng, rng.randint(1, 4), 0.5, loops=True)
            t, _ = maximal_transitive_v2(host)
            host_arcs = host.arcs()
            extra = [a for a in host_arcs if a not in set(t.arcs())]
            exists_bigger = False
            base = set(t.arcs())
            for size in range(1, len(extra) + 1):
                for add in itertools.combinations(extra, size):
                    cand = Relation.from_arcs(host.n, list(base) + list(add))
                    if oracle_is_transitive(cand):
                        exists_bigger = True
                        break
                if exists_bigger:
                    break
            assert is_maximal_transitive(host, t) == (not exists_bigger)


class TestExtendToMaximal:
    def test_examples(self):
        host = rel(3, [(1, 2), (2, 3), (1, 3)])
        assert extend_to_maximal(host, rel(3, [])) == host

        assert extend_to_maximal(PATH, rel(3, [(2, 3)])).arcs() == [(2, 3)]

        assert extend_to_maximal(CYCLE, rel(3, [])).arcs() == [(1, 2)]

    def test_precondition_errors(self):
        with pytest.raises(PreconditionError, match="not contained"):
            extend_to_maximal(rel(2, []), rel(2, [(1, 2)]))
        with pytest.raises(PreconditionError, match="not transitive"):
            extend_to_maximal(PATH, PATH)

    @settings(max_examples=60)
    @given(relations(max_n=5))
    def test_result_is_maximal_and_contains_seed(self, host):
        seed, _ = maximal_transitive_v2(host)
        # drop the last arc of the seed to leave room to grow
        arcs = seed.arcs()
        start = Relation.from_arcs(host.n, arcs[:-1]) if arcs else seed
        if not is_transitive(start):
            start = Relation.empty(host.n)
        result = extend_to_maximal(host, start)
        assert is_subrelation(start, result)
        assert is_subrelation(result, host)
        assert is_transitive(result)
        assert is_maximal_transitive(host, result)


class TestPaperMaximalIsGreedyJoin:
    """The paper's maximal algorithm is the row-major greedy join started
    from no arcs: ``maximal_transitive_v2(r)`` equals
    ``extend_to_maximal(r, empty)``."""

    @staticmethod
    def check(r):
        empty = Relation.empty(r.n)
        out, _ = maximal_transitive_v2(r)
        assert out == extend_to_maximal(r, empty) == oracle_extend_to_maximal(r, empty)

    def test_exhaustive_suites(self, suite_n3_loops, suite_n4_loopfree):
        for r in list(suite_n3_loops) + list(suite_n4_loopfree):
            self.check(r)

    @settings(max_examples=150, deadline=None)
    @given(relations(max_n=8))
    def test_random_relations(self, r):
        self.check(r)


class TestClosureOracles:
    """The closed forms against one closure per candidate arc."""

    @staticmethod
    def assert_matches_oracles(host, t):
        assert is_maximal_transitive(host, t) == oracle_is_maximal_transitive(host, t)
        assert extend_to_maximal(host, t) == oracle_extend_to_maximal(host, t)

    def test_exhaustive_n3_with_loops(self):
        # relation index == arc mask, so t is inside host iff t & ~host == 0
        rels = all_relations(3, loops=True)
        transitive = [mask for mask, r in enumerate(rels) if oracle_is_transitive(r)]
        pairs = 0
        for h, host in enumerate(rels):
            for t in transitive:
                if not t & ~h:
                    self.assert_matches_oracles(host, rels[t])
                    pairs += 1
        assert pairs == 11017

    @pytest.mark.parametrize("n", [2, 3, 70])
    def test_directed_cycles(self, n):
        # A maximal subset of a cycle keeps every other arc, and on it no row
        # has a candidate arc.
        host = Relation.from_arcs(n, [(v, v % n + 1) for v in range(1, n + 1)])
        for t in (*starting_sets(host), Relation.from_arcs(n, [(1, 2)])):
            self.assert_matches_oracles(host, t)

    @settings(max_examples=100)
    @given(relations(max_n=8))
    def test_random_hosts(self, host):
        out, _ = maximal_transitive_v2(host)
        arcs = out.arcs()
        shrunk = Relation.from_arcs(host.n, arcs[:-1])
        for t in (out, shrunk, Relation.empty(host.n)):
            if is_transitive(t):
                self.assert_matches_oracles(host, t)


def starting_sets(host):
    """The v2 result, that result less its last arc (in row-major order)
    whose removal leaves it transitive, and the empty relation."""
    out, _ = maximal_transitive_v2(host, collect_trace=False)
    arcs = out.arcs()
    for drop in reversed(range(len(arcs))):
        less = Relation.from_arcs(host.n, arcs[:drop] + arcs[drop + 1 :])
        if is_transitive(less):
            return out, less, Relation.empty(host.n)
    raise AssertionError("no arc of the v2 result can be dropped")


class TestPackedRowRoute:
    """The packed-row growth against the replaced matrix routines, on rows of
    one and two 64-bit words."""

    @pytest.mark.parametrize("n", [63, 64, 65, 127, 129])
    @pytest.mark.parametrize("p", [0.02, 0.3, 0.9])
    def test_matches_product_and_block_oracles(self, n, p):
        adj = wide_matrix(n, p, seed=n)
        by_matrix = Relation(adj)
        by_arcs = rel(n, (np.argwhere(adj) + 1).tolist())
        verdicts = []
        for t in starting_sets(by_matrix):
            verdict = oracle_is_maximal_by_products(by_matrix, t)
            grown = oracle_extend_by_blocks(by_matrix, t)
            if p == 0.02 and n <= 65:  # few enough candidate arcs for one closure each
                assert verdict == oracle_is_maximal_transitive(by_matrix, t)
                assert grown == oracle_extend_to_maximal(by_matrix, t)
            for host in (by_matrix, by_arcs):
                assert is_maximal_transitive(host, t) == verdict
                assert extend_to_maximal(host, t) == grown
            assert oracle_is_maximal_by_products(by_matrix, grown)
            verdicts.append(verdict)
        # A dropped arc of a maximal set can always rejoin it.
        assert verdicts == [True, False, False]

    @settings(max_examples=200, deadline=None)
    @given(relations(max_n=7), st.data())
    def test_maximal_iff_growing_adds_nothing(self, host, data):
        # The closure of any subset of a transitive set stays inside it.
        out, _ = maximal_transitive_v2(host)
        arcs = out.arcs()
        keep = data.draw(st.lists(st.booleans(), min_size=len(arcs), max_size=len(arcs)))
        t = transitive_closure(rel(host.n, [a for a, k in zip(arcs, keep) if k]))
        assert is_maximal_transitive(host, t) == (extend_to_maximal(host, t) == t)

    def test_sparse_check_allocates_a_few_bytes_per_cell(self):
        n = 2000
        rng = np.random.default_rng(2000)
        host = rel(n, rng.integers(1, n + 1, size=(4 * n, 2)).tolist())
        t, _ = maximal_transitive_v2(host, collect_trace=False)
        assert host._adj is None and t._adj is None
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            verdict = is_maximal_transitive(host, t)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert verdict
        assert peak < 5 * n * n, f"{peak / 2**20:.1f} MiB"


class TestVerdictStopsEarly:
    """``is_maximal_transitive`` asks ``_joining`` row by row and answers
    False at the first row with a joining arc."""

    N = 300

    @pytest.fixture(scope="class")
    def host_and_result(self):
        rng = np.random.default_rng(self.N)
        host = rel(self.N, rng.integers(1, self.N + 1, size=(4 * self.N, 2)).tolist())
        return host, maximal_transitive_v2(host, collect_trace=False)[0]

    @staticmethod
    def verdict_and_rows(monkeypatch, host, t):
        rows = []
        joining = maximal._joining

        def spy(packed, miss, u):
            rows.append(u)
            return joining(packed, miss, u)

        monkeypatch.setattr(maximal, "_joining", spy)
        return is_maximal_transitive(host, t), rows

    def test_maximal_result_asks_every_row(self, monkeypatch, host_and_result):
        host, t = host_and_result
        assert self.verdict_and_rows(monkeypatch, host, t) == (True, list(range(self.N)))

    def test_stops_by_the_row_of_a_dropped_arc(self, monkeypatch, host_and_result):
        host, t = host_and_result
        arcs = t.arcs()
        # the first arc of each row that leaves the set transitive when dropped
        droppable = {}
        for arc in arcs:
            if arc[0] not in droppable and is_transitive(rel(self.N, [a for a in arcs if a != arc])):
                droppable[arc[0]] = arc
        firsts = sorted(droppable)
        assert len(firsts) > 3
        for u in (firsts[0], firsts[len(firsts) // 2], firsts[-1]):
            less = rel(self.N, [a for a in arcs if a != droppable[u]])
            verdict, rows = self.verdict_and_rows(monkeypatch, host, less)
            assert not verdict and len(rows) <= u  # u is 1-based: rows 0 .. u - 1
