import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    all_relations,
    cut_edge_count,
    oracle_dicut_size,
    oracle_forward_arcs,
    oracle_forward_counts,
    oracle_forward_cut_table_products,
    oracle_greedy_bipartition,
    oracle_local_search_dicut,
    oracle_max_transitive_size,
    oracle_quarter_approx,
    oracle_weighted_quarter_approx,
    random_digraph,
    relations,
    undirected_graphs,
)
from transub import maximum
from transub import (
    BudgetError,
    Relation,
    TriangleFoundError,
    UndirectedGraph,
    VertexPartition,
    brute_force_max_dicut,
    brute_force_mts,
    dicut_as_transitive,
    dicut_size,
    forward_arcs,
    forward_cut_table,
    greedy_bipartition,
    has_path_length_two,
    is_subrelation,
    is_transitive,
    local_search_dicut,
    maximal_transitive_v2,
    quarter_approx,
    random_orientation,
    random_triangle_free_graph,
)


def rel(n, arcs):
    return Relation.from_arcs(n, arcs)


CYCLE3 = rel(3, [(1, 2), (2, 3), (3, 1)])
CYCLE4 = rel(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
OUT_STAR = rel(4, [(1, 2), (1, 3), (1, 4)])
# Inputs on which the plain greedy cut of ``quarter_approx`` keeps fewer than
# m/4 arcs: 2-cycles (the edge counted once) and a loop (never in a cut).
BELOW_QUARTER = {
    "2-cycles-n5": rel(5, [(1, 4), (2, 1), (2, 4), (3, 1), (3, 2), (4, 1), (4, 5), (5, 2), (5, 4)]),
    "2-cycles-n6": rel(6, [(1, 3), (1, 4), (1, 5), (2, 1), (2, 6), (3, 4), (3, 5), (4, 1), (4, 5),
                           (4, 6), (5, 1), (5, 2), (5, 3), (5, 4), (5, 6), (6, 3), (6, 4)]),
    "loop": rel(1, [(1, 1)]),
}


class TestBruteForceMts:
    def test_cycle_lexicographic_winner(self):
        assert brute_force_mts(CYCLE3).arcs() == [(1, 2)]

    def test_forward_bipartite_kept_whole(self):
        k22 = rel(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert brute_force_mts(k22) == k22

    def test_transitive_tournament_kept_whole(self):
        t = rel(3, [(1, 2), (2, 3), (1, 3)])
        assert brute_force_mts(t) == t

    def test_budget(self):
        big = rel(6, [(i, j) for i in range(1, 7) for j in range(1, 7) if i != j])
        with pytest.raises(BudgetError, match="22"):
            brute_force_mts(big)
        # complete loop-free digraph on 5 vertices: the best transitive subset
        # is a transitive tournament (2-cycles need loops), so exactly C(5,2)
        full5 = rel(5, [(i, j) for i in range(1, 6) for j in range(1, 6) if i != j])
        assert brute_force_mts(full5).m == 10

    def test_matches_enumeration_oracle_exhaustive_n3(self):
        for r in all_relations(3, loops=False):
            assert brute_force_mts(r).m == oracle_max_transitive_size(r)

    def test_matches_enumeration_oracle_with_loops(self):
        rng = random.Random(31)
        for _ in range(40):
            r = random_digraph(rng, rng.randint(1, 3), 0.6, loops=True)
            assert brute_force_mts(r).m == oracle_max_transitive_size(r)

    @settings(max_examples=40)
    @given(relations(max_n=4, loops=False))
    def test_result_is_transitive_subrelation(self, r):
        best = brute_force_mts(r)
        assert is_subrelation(best, r)
        assert is_transitive(best)

    @settings(max_examples=40)
    @given(relations(max_n=4, loops=False))
    def test_maximal_never_beats_maximum(self, r):
        out, _ = maximal_transitive_v2(r)
        assert out.m <= brute_force_mts(r).m


class TestGreedyBipartition:
    def test_single_edge(self):
        g = UndirectedGraph.from_edges(2, [(1, 2)])
        p = greedy_bipartition(g)
        assert p.u_vertices() == {1} and p.v_vertices() == {2}

    def test_triangle_cuts_two_edges(self):
        g = UndirectedGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
        p = greedy_bipartition(g)
        assert p.u_vertices() == {1, 3}
        assert cut_edge_count(g, p.u_vertices()) == 2

    def test_four_cycle_cut_whole(self):
        g = UndirectedGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        p = greedy_bipartition(g)
        assert cut_edge_count(g, p.u_vertices()) == 4

    @given(undirected_graphs())
    def test_half_edge_bound(self, g):
        p = greedy_bipartition(g)
        assert 2 * cut_edge_count(g, p.u_vertices()) >= g.m

    @given(undirected_graphs(max_n=12))
    def test_matches_neighbor_set_oracle(self, g):
        assert greedy_bipartition(g).side == oracle_greedy_bipartition(g)

    def test_path_builds_no_matrix(self):
        # An n-by-n matrix at n=20000 is 400 MB; neighbour lists stay under 16 MiB.
        n = 20000
        g = UndirectedGraph.from_edges(n, [(v, v + 1) for v in range(1, n)])
        greedy_bipartition(UndirectedGraph.from_edges(2, [(1, 2)]))  # first-use costs
        tracemalloc.start()
        try:
            p = greedy_bipartition(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.side == ("U", "V") * (n // 2)
        assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MiB"


class TestDicutSize:
    def test_examples(self):
        p = VertexPartition.from_u_set(2, {1})
        d = dicut_size(rel(2, [(1, 2)]), p)
        assert (d.forward, d.backward) == (1, 0)
        d = dicut_size(rel(2, [(1, 2), (2, 1)]), p)
        assert (d.forward, d.backward) == (1, 1)
        d = dicut_size(CYCLE4, VertexPartition.from_u_set(4, {1, 3}))
        assert (d.forward, d.backward) == (2, 2)

    def test_loops_and_same_side_ignored(self):
        d = dicut_size(rel(2, [(1, 1), (2, 2)]), VertexPartition.from_u_set(2, {1}))
        assert d.cut_total == 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="partition"):
            dicut_size(rel(2, []), VertexPartition.from_u_set(3, {1}))


class TestQuarterApprox:
    def test_single_arc(self):
        assert quarter_approx(rel(2, [(1, 2)])).arcs() == [(1, 2)]

    def test_four_cycle_forward_tie(self):
        assert quarter_approx(CYCLE4).arcs() == [(1, 2), (3, 4)]

    def test_three_cycle(self):
        out = quarter_approx(CYCLE3)
        assert out.m >= 1

    @settings(max_examples=80)
    @given(relations(max_n=6, loops=False))
    def test_contract(self, r):
        out = quarter_approx(r)
        assert is_subrelation(out, r)
        assert is_transitive(out)
        assert not has_path_length_two(out)

    def test_quarter_bound_exhaustive_n3(self):
        for r in all_relations(3, loops=False):
            assert 4 * quarter_approx(r).m >= r.m

    @settings(max_examples=80)
    @given(relations(max_n=8))
    @example(rel(3, [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3)]))
    @example(rel(3, [(2, 1), (2, 2), (3, 1)]))  # the backward direction is heavier
    def test_matches_oracle_route(self, r):
        # the plain greedy where it meets the m/4 floor, else the weighted fallback
        greedy = oracle_quarter_approx(r)
        expected = greedy if 4 * greedy.m >= r.m else oracle_weighted_quarter_approx(r)
        assert quarter_approx(r) == expected

    @pytest.mark.parametrize("name", sorted(BELOW_QUARTER))
    def test_floor_where_the_plain_greedy_misses_it(self, name):
        r = BELOW_QUARTER[name]
        assert 4 * oracle_quarter_approx(r).m < r.m
        out = quarter_approx(r)
        assert 4 * out.m >= r.m
        assert is_transitive(out) and is_subrelation(out, r)
        assert out == oracle_weighted_quarter_approx(r)

    @settings(max_examples=300)
    @given(relations(max_n=8))
    @example(BELOW_QUARTER["2-cycles-n5"])
    @example(rel(2, [(1, 1), (1, 2), (2, 1), (2, 2)]))
    def test_floor_with_loops_and_two_cycles(self, r):
        out = quarter_approx(r)
        assert 4 * out.m >= r.m
        assert is_transitive(out) and is_subrelation(out, r)

    def test_arc_route_all_relations_on_three_vertices(self, suite_n3_loops):
        for r in suite_n3_loops:
            assert maximum._quarter_by_arcs(r).arcs() == oracle_quarter_approx(r).arcs(), r.arcs()

    @settings(max_examples=120)
    @given(relations(max_n=12))
    @example(rel(3, [(2, 1), (2, 2), (3, 1)]))  # the backward direction is heavier
    def test_arc_route_matches_oracle(self, r):
        out = maximum._quarter_by_arcs(r)
        assert r._adj is None and out._adj is None  # no matrix was built
        assert out.arcs() == oracle_quarter_approx(r).arcs()

    def test_matrix_route_all_relations_on_three_vertices(self, suite_n3_loops):
        for r in suite_n3_loops:
            assert maximum._quarter_by_matrix(r).arcs() == oracle_quarter_approx(r).arcs(), r.arcs()

    @settings(max_examples=120)
    @given(relations(max_n=12))
    @example(rel(3, [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3)]))
    @example(rel(3, [(2, 1), (2, 2), (3, 1)]))  # the backward direction is heavier
    def test_matrix_route_matches_oracle(self, r):
        # small inputs take the arc route, so this is the matrix route's oracle test
        assert maximum._quarter_by_matrix(r).arcs() == oracle_quarter_approx(r).arcs()

    def test_arc_route_traced_peak_per_arc(self):
        # The arc route holds the arc codes, the codes of the edges' lower
        # ends and a list of each edge's lower end.  That list shares one int
        # object per vertex (``relation._int_objects``), 8 B per edge, where a
        # new int per edge would take 36 B more.  A random arc-held relation
        # with n=10^4 and about 10^6 arcs peaks at 49 B per arc.
        n = 10**4
        r = Relation._from_codes(n, np.random.default_rng(10).integers(0, n * n, size=10**6))
        quarter_approx(rel(3, [(1, 2), (2, 3)]))  # first-use costs outside the window
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = quarter_approx(r)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert r._adj is None and out._adj is None  # the arc route ran
        assert peak <= 56 * r.m, f"{peak / r.m:.1f} B per arc"

    def test_sparse_input_takes_the_arc_route(self, monkeypatch):
        def no_matrix(sym):
            raise AssertionError("matrix greedy on a sparse input")

        monkeypatch.setattr(maximum, "_greedy_sides", no_matrix)
        n = 2000
        rng = np.random.default_rng(2000)
        r = Relation.from_arcs(n, rng.integers(1, n + 1, size=(4 * n, 2)).tolist())
        out = quarter_approx(r)
        assert r._adj is None and out._adj is None
        assert out.arcs() == oracle_quarter_approx(r).arcs()


class TestForwardCutTable:
    @staticmethod
    def check(r):
        # the transpose is the non-contiguous view the balance scan passes
        for adj in (r.adj, r.adj.T):
            table = forward_cut_table(adj)
            assert table.dtype == np.int32 and table.shape == (1 << r.n,)
            assert table.tolist() == oracle_forward_counts(Relation(adj))

    def test_matches_oracle_exhaustive_n3(self, suite_n3_loops):
        for r in suite_n3_loops:
            self.check(r)

    @settings(max_examples=60)
    @given(relations(max_n=9))
    def test_matches_oracle(self, r):
        self.check(r)

    @staticmethod
    def seeded_full_budget_matrix():
        # loops and 2-cycles included: the diagonal must drop out, and both
        # arcs of a 2-cycle cross every cut that splits them
        n = maximum.DEFAULT_VERTEX_BUDGET
        rng = np.random.default_rng(20)
        adj = rng.random((n, n)) < 0.3
        adj[np.arange(0, n, 3), np.arange(0, n, 3)] = True
        adj[[0, 1, 5, 13], [1, 0, 13, 5]] = True
        assert adj.diagonal().any() and (adj & adj.T & ~np.eye(n, dtype=bool)).any()
        return adj

    def test_matches_products_oracle(self):
        mats = [r.adj for n in (1, 2) for r in all_relations(n, loops=True)]
        mats.append(self.seeded_full_budget_matrix())
        for adj in mats:
            for view in (adj, adj.T):
                table = forward_cut_table(view)
                expected = oracle_forward_cut_table_products(view)
                assert table.dtype == expected.dtype == np.int32
                assert table.shape == expected.shape == (1 << len(adj),)
                assert np.array_equal(table, expected)

    @settings(max_examples=60)
    @given(relations(max_n=9))
    def test_transpose_is_reversed_table(self, r):
        # complementing a mask swaps U and V, so every backward count is the
        # forward count of the complement mask
        assert np.array_equal(forward_cut_table(r.adj.T), forward_cut_table(r.adj)[::-1])

    def test_budget_refused_before_allocating(self):
        adj = np.ones((21, 21), dtype=bool)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="21 vertices exceeds the enumeration budget"):
                forward_cut_table(adj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_full_budget_table_peak_memory(self):
        adj = self.seeded_full_budget_matrix()
        tracemalloc.start()
        try:
            forward_cut_table(adj.T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the int32 table itself is 4 MiB
        assert peak <= 8 << 20


class TestBruteForceMaxDicut:
    def test_out_star(self):
        d = brute_force_max_dicut(OUT_STAR)
        assert d.forward == 3
        assert d.partition.u_vertices() == {1}

    def test_cycles(self):
        assert brute_force_max_dicut(CYCLE3).forward == 1
        assert brute_force_max_dicut(CYCLE4).forward == 2

    def test_budget(self):
        with pytest.raises(BudgetError, match="20"):
            brute_force_max_dicut(Relation.empty(21))

    def test_budget_before_the_matrix(self):
        r = Relation.empty(10**6)  # its matrix would take 931 GiB
        with pytest.raises(BudgetError, match="1000000 vertices exceeds the enumeration budget"):
            brute_force_max_dicut(r)
        assert r._adj is None

    def test_empty_ties_to_all_u(self):
        d = brute_force_max_dicut(Relation.empty(3))
        assert d.forward == 0
        assert d.partition.side == ("U", "U", "U")

    @settings(max_examples=60)
    @given(relations(max_n=5))
    def test_matches_enumeration_oracle(self, r):
        counts = oracle_forward_counts(r)
        best = max(counts)
        d = brute_force_max_dicut(r)
        assert d.forward == best
        # tie-break: lexicographically smallest side vector among maxima
        expected = min(
            (tuple("U" if (mask >> v) & 1 else "V" for v in range(r.n)))
            for mask, count in enumerate(counts)
            if count == best
        )
        assert d.partition.side == expected


class TestLocalSearchDicut:
    @pytest.mark.parametrize("seed", range(16))
    def test_out_star_reaches_optimum_for_every_seed(self, seed):
        assert local_search_dicut(OUT_STAR, seed).forward == 3

    @pytest.mark.parametrize("seed", range(16))
    def test_single_arc_for_every_seed(self, seed):
        assert local_search_dicut(rel(2, [(1, 2)]), seed).forward == 1

    def test_three_cycle_matches_exact(self):
        for seed in range(8):
            assert local_search_dicut(CYCLE3, seed).forward == 1

    def test_deterministic(self):
        r = random_digraph(random.Random(3), 9, 0.4)
        assert local_search_dicut(r, 11) == local_search_dicut(r, 11)

    def test_max_rounds_validation(self):
        with pytest.raises(ValueError, match="max_rounds"):
            local_search_dicut(CYCLE3, 0, max_rounds=0)

    @settings(max_examples=40)
    @given(relations(max_n=6, loops=False))
    def test_never_beats_exact(self, r):
        assert local_search_dicut(r, 1).forward <= brute_force_max_dicut(r).forward


def held_copies(r):
    """A matrix-held and an arc-held copy of ``r``; neither fills a view of ``r``."""
    matrix = np.zeros((r.n, r.n), dtype=bool)
    for u, v in r.arcs():
        matrix[u - 1, v - 1] = True
    return Relation(matrix), Relation.from_arcs(r.n, r.arcs())


def seeded_relation(n, seed):
    """m = 4n random arcs, with some loops and 2-cycles added."""
    pairs = np.random.default_rng(seed).integers(1, n + 1, size=(4 * n, 2))
    extra = [(v, v) for v in pairs[:20, 0].tolist()] + [(v, u) for u, v in pairs[:200].tolist()]
    return Relation.from_arcs(n, pairs.tolist() + extra)


class TestDicutOnArcs:
    """The local search, the cut counts and the forward arcs against the
    rescanning and matrix oracles, on matrix-held and arc-held relations."""

    @staticmethod
    def check(r, seed, max_rounds=10_000):
        want = oracle_local_search_dicut(r, seed, max_rounds)
        forward = oracle_forward_arcs(r, want.partition).arcs()
        for held in held_copies(r):
            got = local_search_dicut(held, seed, max_rounds)
            assert (got.partition.side, got.forward, got.backward) == (
                want.partition.side, want.forward, want.backward)
            assert forward_arcs(held, want.partition).arcs() == forward

    def test_all_relations_on_three_vertices(self, suite_n3_loops):
        for r in suite_n3_loops:
            for seed in range(4):
                for max_rounds in (1, 2, 3, 10_000):
                    self.check(r, seed, max_rounds)

    def test_counts_on_every_partition_of_three_vertices(self, suite_n3_loops):
        partitions = [VertexPartition.from_u_set(3, {v for v in (1, 2, 3) if mask >> (v - 1) & 1})
                      for mask in range(8)]
        for r in suite_n3_loops:
            for p in partitions:
                want = oracle_dicut_size(r, p)
                for held in held_copies(r):
                    assert dicut_size(held, p) == want
                    assert forward_arcs(held, p).arcs() == oracle_forward_arcs(r, p).arcs()

    @settings(max_examples=120)
    @given(relations(max_n=12), st.integers(0, 2**32), st.sampled_from([1, 2, 3, 10_000]))
    def test_matches_oracle(self, r, seed, max_rounds):
        self.check(r, seed, max_rounds)

    def test_seeded_large_input(self):
        self.check(seeded_relation(2000, 2000), 7)

    def test_wholesale_swap(self):
        # Round 2 swaps the sides (all six labels change, where a flip changes
        # one), and round 3 flips on the recomputed gains.
        r = rel(6, [(1, 3), (1, 4), (1, 6), (2, 3), (2, 5), (3, 5), (4, 6), (5, 4), (6, 1)])
        first, second = (oracle_local_search_dicut(r, 14, k).partition.side for k in (1, 2))
        assert all(a != b for a, b in zip(first, second))
        for max_rounds in (1, 2, 3, 10_000):
            self.check(r, 14, max_rounds)
        assert local_search_dicut(r, 14).partition.side == ("U", "U", "V", "V", "U", "V")

    def test_arc_held_input_builds_no_matrix(self):
        r = seeded_relation(2000, 2001)
        cut = local_search_dicut(r, 3)
        assert dicut_size(r, cut.partition) == cut
        out = forward_arcs(r, cut.partition)
        assert out.m == cut.forward
        assert r._adj is None and out._adj is None


class TestDicutAsTransitive:
    def test_four_cycle(self):
        out = dicut_as_transitive(CYCLE4, VertexPartition.from_u_set(4, {1, 3}))
        assert out.arcs() == [(1, 2), (3, 4)]
        assert is_transitive(out)
        assert not has_path_length_two(out)

    def test_empty(self):
        out = dicut_as_transitive(Relation.empty(2), VertexPartition.from_u_set(2, {1}))
        assert out.m == 0

    def test_forward_bipartite(self):
        k22 = rel(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        out = dicut_as_transitive(k22, VertexPartition.from_u_set(4, {1, 2}))
        assert out == k22

    def test_triangle_witness(self):
        with pytest.raises(TriangleFoundError) as exc:
            dicut_as_transitive(CYCLE3, VertexPartition.from_u_set(3, {1}))
        assert exc.value.triangle == (1, 2, 3)

    def test_arc_held_builds_no_matrix(self):
        # a seeded orientation of a bipartite graph between {1..1000} and {1001..2000}
        n = 2000
        rng = np.random.default_rng(2000)
        left = rng.integers(1, 1001, size=4 * n)
        right = rng.integers(1001, n + 1, size=4 * n)
        flip = rng.random(4 * n) < 0.5
        r = rel(n, np.where(flip[:, None], np.c_[right, left], np.c_[left, right]).tolist())
        p = VertexPartition.from_u_set(n, range(1, 1001))
        out = dicut_as_transitive(r, p)
        assert r._adj is None and out._adj is None
        assert out == oracle_forward_arcs(r, p)


class TestTriangleFreeEquivalence:
    def test_oriented_bipartite_sample(self):
        for s in range(50):
            rng = random.Random(9000 + s)
            n = rng.randint(2, 8)
            capacity = ((n + 1) // 2) * (n // 2)
            m = rng.randint(0, min(16, capacity))
            g = random_triangle_free_graph(n, m, 100 + s)
            r = random_orientation(g, 200 + s)
            assert brute_force_mts(r).m == brute_force_max_dicut(r).forward
