"""Acceptance suite: one test per release criterion, each printing a verdict
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

All tolerances are exact inequalities or exact equality; wall-clock numbers
are reported but only the v2-vs-v1 speedup factor is asserted.
"""

import random
import sys

import pytest

from helpers import random_digraph
from transub import (
    BenchConfig,
    Relation,
    UndirectedGraph,
    VertexPartition,
    balance_verdict,
    brute_force_max_dicut,
    brute_force_mts,
    check_delta_balanced,
    check_k_delta_balanced,
    decode_assignment,
    dicut_size,
    doubling_ratios,
    encode_mts_to_cnf,
    greedy_bipartition,
    is_maximal_transitive,
    is_subrelation,
    is_transitive,
    max_ones_brute_force,
    maximal_transitive_v1,
    maximal_transitive_v2,
    quarter_approx,
    random_orientation,
    random_triangle_free_graph,
    run_scaling,
)
from transub.cli import main


def conclude(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    # bypass capture so the verdict line shows up in a plain `pytest -v` run
    print(f"ACCEPTANCE {number} {name}: {verdict}{suffix}", file=sys.__stdout__)
    assert ok, f"criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="session")
def maximal_suite(suite_n4_loopfree, suite_n3_loops, random_digraphs_1000):
    """Traced v1/v2 runs over the exhaustive and random digraph suites."""
    instances = list(suite_n4_loopfree) + list(suite_n3_loops) + list(random_digraphs_1000)
    runs = []
    for r in instances:
        runs.append((r, maximal_transitive_v1(r), maximal_transitive_v2(r)))
    return runs


@pytest.fixture(scope="session")
def k1010_cli_runs(tmp_path_factory):
    """Two identical CLI experiment runs on the forced complete bipartite
    graph with 10+10 vertices, 100 edges, 100 seeded orientations."""
    base = tmp_path_factory.mktemp("experiment")
    outputs = []
    for name in ("first.txt", "second.txt"):
        out = base / name
        code = main(
            [
                "experiment",
                "--n", "20",
                "--m", "100",
                "--trials", "100",
                "--k", "25",
                "--delta", "0.5",
                "--cprime", "1.0",
                "--seed", "2026",
                "--output", str(out),
            ]
        )
        assert code == 0
        outputs.append(out.read_text())
    return outputs


def _trial_fields(line: str) -> dict:
    return dict(token.split("=") for token in line.split()[1:])


def test_criterion_01_exhaustive_maximality(suite_n4_loopfree, suite_n3_loops):
    checked = 0
    for r in list(suite_n4_loopfree) + list(suite_n3_loops):
        out, _ = maximal_transitive_v2(r)
        assert is_transitive(out)
        assert is_subrelation(out, r)
        assert is_maximal_transitive(r, out)
        checked += 1
    conclude(1, "exhaustive maximality", checked == 4096 + 512, f"{checked} digraphs")


def test_criterion_02_algorithm_equivalence(maximal_suite):
    for r, (out1, trace1), (out2, trace2) in maximal_suite:
        assert out1 == out2
        assert trace1.visited == trace2.visited
        assert trace1.deleted == trace2.deleted
    conclude(2, "v1/v2 equivalence", True, f"{len(maximal_suite)} digraphs")


def test_criterion_03_visited_persistence(maximal_suite):
    for r, (out1, trace1), _ in maximal_suite:
        assert not trace1.visited_set() & trace1.deleted_arcs()
        assert trace1.visited_set() == set(out1.arcs())
    conclude(3, "visited persistence and trace completeness", True)


def test_criterion_04_quarter_approximation(suite_n4_loopfree, random_digraphs_1000):
    for r in list(suite_n4_loopfree) + list(random_digraphs_1000):
        approx = quarter_approx(r)
        assert is_transitive(approx)
        assert is_subrelation(approx, r)
        assert 4 * approx.m >= r.m
    conclude(4, "quarter approximation floor", True,
             f"{len(suite_n4_loopfree) + len(random_digraphs_1000)} digraphs")


def test_criterion_05_bipartition_bound():
    rng = random.Random(0xB1B)
    for _ in range(1000):
        n = rng.randint(1, 50)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.3
        ]
        g = UndirectedGraph.from_edges(n, edges)
        p = greedy_bipartition(g)
        u = p.u_vertices()
        cut = sum(1 for a, b in g.edges if (a in u) != (b in u))
        assert 2 * cut >= g.m
    conclude(5, "greedy bipartition half-edge bound", True, "1000 graphs")


def test_criterion_06_triangle_free_equivalence():
    checked = 0
    for s in range(200):
        rng = random.Random(0x7F00 + s)
        n = rng.randint(2, 8)
        capacity = ((n + 1) // 2) * (n // 2)
        m = rng.randint(0, min(20, capacity))
        g = random_triangle_free_graph(n, m, 0x11000 + s)
        r = random_orientation(g, 0x22000 + s)
        assert brute_force_mts(r).m == brute_force_max_dicut(r).forward
        checked += 1
    conclude(6, "triangle-free equivalence with max dicut", checked == 200)


def test_criterion_07_cnf_equivalence(suite_n4_loopfree, suite_small_loopfree):
    # Both exact searches break ties alike, so they return the same arc set.
    for r in list(suite_small_loopfree) + list(suite_n4_loopfree):
        f = encode_mts_to_cnf(r)
        assignment, count = max_ones_brute_force(f)
        best = brute_force_mts(r)
        assert count == best.m
        assert decode_assignment(r, f, assignment) == best
    conclude(7, "cnf max-ones equivalence", True,
             f"{len(suite_small_loopfree) + len(suite_n4_loopfree)} digraphs")


def test_criterion_08_dicut_floor(suite_n4_loopfree, suite_small_loopfree, k1010_cli_runs):
    for r in list(suite_small_loopfree) + list(suite_n4_loopfree):
        assert 4 * brute_force_max_dicut(r).forward >= r.m
    trial_lines = [ln for ln in k1010_cli_runs[0].splitlines() if ln.startswith("trial ")]
    assert len(trial_lines) == 100
    for line in trial_lines:
        fields = _trial_fields(line)
        assert 4 * int(fields["max_dicut"]) >= int(fields["m"])
    conclude(8, "max dicut floor m/4", True, "exhaustive n<=4 plus 100 orientations")


def test_criterion_09_balance_definitions():
    rng = random.Random(0xBA1)
    left = list(range(1, 11))
    right = list(range(11, 21))
    forward_pairs = [(u, v) for u in left for v in right]
    backward_pairs = [(v, u) for u in left for v in right]
    partition = VertexPartition.from_u_set(20, set(left))
    for _ in range(10_000):
        f = rng.randint(0, 100)
        b = rng.randint(0, 100)
        delta = rng.random() * 3
        r = Relation.from_arcs(
            20, rng.sample(forward_pairs, f) + rng.sample(backward_pairs, b)
        )
        verdict = check_delta_balanced(r, partition, delta)
        assert verdict.cut_total == f + b
        assert verdict.imbalance == abs(f - b)
        assert verdict.balanced == (abs(f - b) <= delta * (f + b) / 2)
        # monotone in delta
        if verdict.balanced:
            assert balance_verdict(f, b, delta * 2).balanced
        elif delta > 0:
            assert not balance_verdict(f, b, delta / 2).balanced
    # monotone in k on sampled digraphs
    for s in range(100):
        srng = random.Random(0xACE + s)
        r = random_digraph(srng, srng.randint(2, 7), 0.5)
        delta = srng.random()
        previous = None
        for k in range(1, r.m + 2):
            now = check_k_delta_balanced(r, k, delta)
            if previous is not None:
                assert now or not previous
            previous = now
    conclude(9, "balance definition and monotonicity", True, "10000 triples")


def test_criterion_10_runtime_scaling():
    config = BenchConfig(sizes=(500, 1000, 2000), density="sparse", repetitions=3, seed=0)
    rows = run_scaling(config)
    by_n = {row.n: row for row in rows}
    v1 = by_n[2000].v1_median_ns
    v2 = by_n[2000].v2_median_ns
    ratios = doubling_ratios(rows)
    report = "; ".join(
        f"n={a}->{b} v1x{r1:.2f} v2x{r2:.2f}" for a, b, r1, r2 in ratios
    )
    print(f"ACCEPTANCE 10 reported doubling ratios: {report}", file=sys.__stdout__)
    conclude(
        10,
        "row-extraction route at least twice as fast at n=2000",
        v2 * 2 <= v1,
        f"v1={v1 / 1e6:.1f}ms v2={v2 / 1e6:.1f}ms speedup={v1 / v2:.1f}x",
    )


def test_criterion_11_experiment_range_and_stability(k1010_cli_runs):
    first, second = k1010_cli_runs
    assert first == second, "experiment output must be byte-stable for a fixed seed"
    trial_lines = [ln for ln in first.splitlines() if ln.startswith("trial ")]
    assert len(trial_lines) == 100
    m = 100
    upper = m / 2 + 1.0 * m**0.8
    for line in trial_lines:
        fields = _trial_fields(line)
        assert int(fields["m"]) == m
        value = int(fields["max_dicut"])
        assert m / 4 <= value <= upper
    assert any(ln.startswith("summary ") for ln in first.splitlines())
    conclude(11, "orientation experiment range and byte stability", True,
             f"100 trials in [25, {upper:.2f}]")
