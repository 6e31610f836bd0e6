import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ordered_pairs,
    oracle_balanced_fraction,
    oracle_random_triangle_free_graph,
    random_digraph,
    relations,
)
from transub import extremal
from transub import (
    BudgetError,
    Relation,
    TriangleFoundError,
    UndirectedGraph,
    VertexPartition,
    balance_verdict,
    check_delta_balanced,
    check_k_delta_balanced,
    dicut_size,
    is_triangle_free,
    mix_seed,
    random_orientation,
    random_triangle_free_graph,
    run_balance_experiment,
    summarize_balance_experiment,
)


def rel(n, arcs):
    return Relation.from_arcs(n, arcs)


class TestSeedMixing:
    def test_deterministic_and_distinct(self):
        a = [mix_seed(42, t) for t in range(100)]
        b = [mix_seed(42, t) for t in range(100)]
        assert a == b
        assert len(set(a)) == 100
        assert all(0 <= s < 2**64 for s in a)

    def test_master_seeds_diverge(self):
        assert mix_seed(1, 0) != mix_seed(2, 0)


class TestRandomOrientation:
    def test_empty_graph(self):
        g = UndirectedGraph.from_edges(3, [])
        assert random_orientation(g, 9).m == 0

    def test_single_edge_reproducible(self):
        g = UndirectedGraph.from_edges(2, [(1, 2)])
        first = random_orientation(g, 5)
        assert first.m == 1
        assert first.arcs()[0] in [(1, 2), (2, 1)]
        assert random_orientation(g, 5) == first

    def test_every_edge_gets_exactly_one_direction(self):
        g = random_triangle_free_graph(8, 12, 3)
        r = random_orientation(g, 4)
        assert r.m == 12
        arcs = set(r.arcs())
        assert all(((u, v) in arcs) != ((v, u) in arcs) for u, v in g.edges)

    def test_fair_coin_statistics_k23(self):
        # total forward count across the fixed bipartition over many seeds is
        # binomial(seeds * 6, 1/2); stay within five standard deviations
        g = UndirectedGraph.from_edges(5, [(u, v) for u in (1, 2) for v in (3, 4, 5)])
        p = VertexPartition.from_u_set(5, {1, 2})
        seeds = 4096
        total = sum(dicut_size(random_orientation(g, s), p).forward for s in range(seeds))
        mean = seeds * 6 / 2
        sigma = math.sqrt(seeds * 6 * 0.25)
        assert abs(total - mean) <= 5 * sigma


class TestBalanceVerdict:
    def test_examples(self):
        assert balance_verdict(2, 2, 0.0).balanced
        v = balance_verdict(3, 1, 0.5)
        assert not v.balanced and v.imbalance == 2 and v.cut_total == 4
        assert balance_verdict(1, 1, 0.0).balanced

    def test_negative_delta(self):
        with pytest.raises(ValueError, match="non-negative"):
            balance_verdict(1, 1, -0.1)

    def test_nan_delta(self):
        with pytest.raises(ValueError, match="non-negative"):
            balance_verdict(1, 1, math.nan)

    def test_infinite_delta(self):
        assert balance_verdict(0, 0, math.inf).balanced
        assert balance_verdict(5, 0, math.inf).balanced

    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=200),
        st.floats(min_value=0, max_value=4),
    )
    def test_matches_direct_formula(self, f, b, delta):
        v = balance_verdict(f, b, delta)
        assert v.balanced == (abs(f - b) <= delta * (f + b) / 2)

    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.floats(min_value=0, max_value=2),
        st.floats(min_value=0, max_value=2),
    )
    def test_monotone_in_delta(self, f, b, d1, d2):
        low, high = min(d1, d2), max(d1, d2)
        if balance_verdict(f, b, low).balanced:
            assert balance_verdict(f, b, high).balanced

    def test_check_delta_balanced_via_relation(self):
        r = rel(4, [(1, 3), (1, 4), (3, 2), (4, 2)])
        p = VertexPartition.from_u_set(4, {1, 4})
        direct = dicut_size(r, p)
        v = check_delta_balanced(r, p, 0.5)
        assert v.cut_total == direct.forward + direct.backward
        assert v.imbalance == abs(direct.forward - direct.backward)

    def test_all_forward_bipartite_needs_delta_two(self):
        r = rel(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
        p = VertexPartition.from_u_set(6, {1, 2, 3})
        v = check_delta_balanced(r, p, 1.9)
        assert v.imbalance == v.cut_total == 9 and not v.balanced
        assert check_delta_balanced(r, p, 2.0).balanced


class TestKDeltaBalanced:
    def test_examples(self):
        assert check_k_delta_balanced(rel(3, []), 1, 0.0)
        assert not check_k_delta_balanced(rel(2, [(1, 2)]), 1, 0.0)
        assert check_k_delta_balanced(rel(2, [(1, 2), (2, 1)]), 1, 0.0)

    def test_budget(self):
        with pytest.raises(BudgetError, match="21 vertices exceeds the enumeration budget of 20"):
            check_k_delta_balanced(Relation.empty(21), 1, 0.5)

    def test_budget_before_the_matrix(self):
        r = Relation.empty(10**6)  # its matrix would take 931 GiB
        with pytest.raises(BudgetError, match="1000000 vertices exceeds the enumeration budget"):
            check_k_delta_balanced(r, 1, 0.5)
        assert r._adj is None

    def test_full_budget(self):
        # every cut of the empty relation is empty, and balanced even for an infinite delta
        assert check_k_delta_balanced(Relation.empty(20), 0, math.inf)
        assert not check_k_delta_balanced(rel(20, [(1, 20)]), 1, 0.0)

    def test_monotone_in_k(self):
        rng = random.Random(17)
        for _ in range(30):
            r = random_digraph(rng, rng.randint(2, 7), 0.5)
            delta = rng.random()
            for k in range(1, r.m + 1):
                if check_k_delta_balanced(r, k, delta):
                    assert check_k_delta_balanced(r, k + 1, delta)
                    break

    @pytest.mark.parametrize("delta", [-0.1, math.nan])
    def test_negative_or_nan_delta(self, delta):
        with pytest.raises(ValueError, match="non-negative"):
            check_k_delta_balanced(rel(2, [(1, 2)]), 1, delta)

    @settings(max_examples=150)
    @given(
        relations(max_n=9),
        st.data(),
        st.sampled_from([0.0, math.inf]) | st.floats(min_value=0, max_value=4),
    )
    def test_balance_scan_matches_verdict_oracle(self, r, data, delta):
        # k runs from below 1 (every cut is large) to above m (none is)
        k = data.draw(st.integers(min_value=-2, max_value=r.m + 2))
        expected = oracle_balanced_fraction(r, k, delta)
        assert extremal._balanced_fraction(r.adj, k, delta) == expected
        assert check_k_delta_balanced(r, k, delta) == (expected == 1.0)

    @pytest.mark.parametrize("block", [1, 3, extremal._SCAN_BLOCK])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_blocked_scan_matches_oracle(self, block, data):
        # Blocks of 1 and 3 masks put block boundaries inside small tables.
        self._check_blocked_scan(data, block, st.integers(2, 12), max_arcs=30)

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_blocked_scan_over_many_default_blocks(self, data):
        # n = 15 to 20: 2 to 64 blocks of the default size; few arcs keep the
        # oracle's Python loop over 2^n masks short.
        self._check_blocked_scan(data, extremal._SCAN_BLOCK, st.integers(15, 20), max_arcs=4)

    @staticmethod
    def _check_blocked_scan(data, block, sizes, max_arcs):
        n = data.draw(sizes)
        r = rel(n, data.draw(st.lists(st.sampled_from(ordered_pairs(n, True)), max_size=max_arcs)))
        delta = data.draw(st.sampled_from([0.0, 0.5, 2.0, math.inf]))
        k = data.draw(st.sampled_from([0, -(-r.m // 4), r.m + 1]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extremal, "_SCAN_BLOCK", block)
            got = extremal._balanced_fraction(r.adj, k, delta)
        assert got == oracle_balanced_fraction(r, k, delta)

    def test_matches_explicit_enumeration(self):
        rng = random.Random(23)
        for _ in range(25):
            r = random_digraph(rng, rng.randint(2, 6), 0.5)
            k = rng.randint(1, 4)
            delta = rng.random()
            expected = True
            for mask in range(1 << r.n):
                if not mask & 1:
                    continue  # vertex 1 stays in U: one mask per bipartition
                u = {v + 1 for v in range(r.n) if (mask >> v) & 1}
                d = dicut_size(r, VertexPartition.from_u_set(r.n, u))
                if d.cut_total >= k and abs(d.forward - d.backward) > delta * d.cut_total / 2:
                    expected = False
                    break
            assert check_k_delta_balanced(r, k, delta) == expected


class TestRandomTriangleFreeGraph:
    def test_forced_cases(self):
        assert random_triangle_free_graph(2, 1, 0).edges == frozenset({(1, 2)})
        k22 = random_triangle_free_graph(4, 4, 1)
        assert k22.edges == frozenset({(1, 3), (1, 4), (2, 3), (2, 4)})

    def test_reproducible_and_triangle_free(self):
        g1 = random_triangle_free_graph(6, 5, 99)
        g2 = random_triangle_free_graph(6, 5, 99)
        assert g1 == g2 and g1.m == 5
        assert is_triangle_free(g1)

    @pytest.mark.parametrize("n, m", [(0, 0), (0, 5), (-10, 100), (-10, 20), (-1, -1)])
    def test_vertex_count_is_checked_first(self, n, m):
        with pytest.raises(ValueError, match="^vertex count must be at least 1$"):
            random_triangle_free_graph(n, m, 0)

    @pytest.mark.parametrize("n", [4.0, 2.5, "4"])
    def test_rejects_non_integer_vertex_counts(self, n):
        with pytest.raises(ValueError, match="^vertex count must be an integer, got "):
            random_triangle_free_graph(n, 2, 0)

    def test_capacity_error(self):
        with pytest.raises(ValueError, match="capacity"):
            random_triangle_free_graph(4, 5, 0)

    def test_matches_pair_list_sampling(self):
        for n in range(1, 25):
            capacity = ((n + 1) // 2) * (n // 2)
            for m in sorted({0, capacity // 3, capacity}):
                for seed in range(5):
                    assert random_triangle_free_graph(n, m, seed) == \
                        oracle_random_triangle_free_graph(n, m, seed), (n, m, seed)

    def test_few_edges_allocate_no_pair_list(self):
        # 4 million cross pairs at n=4000; only the 10 sampled ones are built.
        random_triangle_free_graph(4, 1, 0)
        tracemalloc.start()
        try:
            g = random_triangle_free_graph(4000, 10, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.m == 10
        assert peak < 2**20, f"{peak / 2**20:.1f} MiB"


class TestBalanceExperiment:
    def test_four_cycle_single_trial(self):
        g = UndirectedGraph.from_edges(4, [(1, 3), (3, 2), (2, 4), (4, 1)])
        reports = run_balance_experiment(g, 1, 1, 0.5, 0, 1.0)
        assert len(reports) == 1
        assert reports[0].max_dicut >= 1
        assert reports[0].bound_m4 == 1.0

    def test_empty_graph_trials(self):
        g = UndirectedGraph.from_edges(4, [])
        reports = run_balance_experiment(g, 3, 1, 0.5, 0, 1.0)
        assert len(reports) == 3
        assert all(r.max_dicut == 0 and r.balanced_fraction == 1.0 for r in reports)

    def test_k55_floor_and_summary(self):
        g = random_triangle_free_graph(10, 25, 0)
        reports = run_balance_experiment(g, 30, 7, 0.5, 123, 1.0)
        assert all(4 * r.max_dicut >= r.m for r in reports)
        assert all(r.bound_upper == 25 / 2 + 25**0.8 for r in reports)
        summary = summarize_balance_experiment(reports, 7, 0.5, 1.0)
        assert summary.trials == 30
        assert 0.0 <= summary.unbalanced_fraction <= 1.0
        assert summary.min_max_dicut <= summary.max_max_dicut
        assert summary.chernoff_bound == 2.0**10 * 2 * math.exp(-0.25 * 7 / 6)

    def test_union_bound_edges(self):
        g = UndirectedGraph.from_edges(4, [(1, 3)])
        reports = run_balance_experiment(g, 1, 0, 1.0, 0, 1.0)
        # k == 0: the exponent is 0 even for an infinite delta
        assert summarize_balance_experiment(reports, 0, math.inf, 1.0).chernoff_bound == 32.0
        # exp beyond the float range
        assert summarize_balance_experiment(reports, -1, 1e10, 1.0).chernoff_bound == math.inf
        assert summarize_balance_experiment(reports, 1, math.inf, 1.0).chernoff_bound == 0.0

    def test_deterministic_reports(self):
        g = random_triangle_free_graph(8, 10, 5)
        a = run_balance_experiment(g, 5, 3, 0.6, 9, 1.0)
        b = run_balance_experiment(g, 5, 3, 0.6, 9, 1.0)
        assert a == b

    def test_budget_before_the_matrix(self):
        # The orientation's matrix would take 24 MiB.
        g = random_triangle_free_graph(5000, 10, 0)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="5000 vertices exceeds the enumeration budget"):
                run_balance_experiment(g, 1, 1, 0.5, 0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"{peak / 2**20:.1f} MiB"

    def test_triangle_rejected(self):
        g = UndirectedGraph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(TriangleFoundError):
            run_balance_experiment(g, 1, 1, 0.5, 0, 1.0)

    @pytest.mark.parametrize("delta", [-0.1, math.nan])
    def test_negative_or_nan_delta(self, delta):
        g = UndirectedGraph.from_edges(2, [(1, 2)])
        with pytest.raises(ValueError, match="non-negative"):
            run_balance_experiment(g, 1, 1, delta, 0, 1.0)

    def test_nan_cprime(self):
        g = UndirectedGraph.from_edges(2, [(1, 2)])
        with pytest.raises(ValueError, match="cprime"):
            run_balance_experiment(g, 1, 1, 0.5, 0, math.nan)

    def test_trials_validation(self):
        g = UndirectedGraph.from_edges(2, [(1, 2)])
        with pytest.raises(ValueError, match="trials"):
            run_balance_experiment(g, 0, 1, 0.5, 0, 1.0)

    def test_balanced_fraction_definition(self):
        # single edge: the only nontrivial cut has imbalance 1 = total
        g = UndirectedGraph.from_edges(2, [(1, 2)])
        reports = run_balance_experiment(g, 1, 1, 0.0, 0, 1.0)
        assert reports[0].balanced_fraction == 0.0
        reports = run_balance_experiment(g, 1, 2, 0.0, 0, 1.0)
        assert reports[0].balanced_fraction == 1.0  # no cut reaches size 2
