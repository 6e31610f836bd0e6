import random

import numpy as np
import pytest
from hypothesis import example, given, settings

from helpers import (
    all_relations,
    cut_edge_count,
    oracle_forward_counts,
    oracle_greedy_bipartition,
    oracle_max_transitive_size,
    oracle_quarter_approx,
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
        assert quarter_approx(r) == oracle_quarter_approx(r)

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
