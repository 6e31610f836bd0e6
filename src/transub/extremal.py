"""Randomized orientation experiments and cut-balance measurements.

A cut is delta-balanced when the two directions across it differ by at most
``delta`` times half the total; a digraph is (k, delta)-balanced when every
cut of total size at least ``k`` is delta-balanced; delta >= 2 balances every
cut.  The experiment driver orients a triangle-free graph uniformly at random,
measures the exact maximum directed cut and the balanced fraction of large
cuts per trial (both from ``forward_cut_table``, within its vertex limit), and
reports the observations against two reference bounds: the m/4 floor and a
configurable upper bound of the form m/2 + cprime * m^(4/5).  The upper bound
is reported, never asserted.

Every orientation crosses a cut with the same edges, so a cut's total
(forward plus backward) is a fact of the graph.  The experiment turns the
totals of its first trial into one limit per cut: the largest imbalance that
the balance rule accepts at that total, or -1 for a cut below k.  Each trial
then counts the cuts whose imbalance is within their limit.

Per-trial seeds are derived from ``(master seed, trial index)`` with a
splitmix-style mixer, so trials are independent streams yet byte-for-byte
reproducible; trials may run in any order and reports are merged by index.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .maximum import VertexPartition, _require_cut_budget, dicut_size, forward_cut_table
from .relation import Relation, UndirectedGraph, _integer, _require_triangle_free

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> int:
    z = state & _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_seed(master_seed: int, trial: int) -> int:
    """Per-trial seed: splitmix64 finalizer applied to master + (trial+1) * gamma."""
    return _splitmix64(master_seed + (trial + 1) * _GOLDEN_GAMMA)


@dataclass(frozen=True)
class BalanceVerdict:
    """Outcome of the delta-balance test for one cut."""

    cut_total: int
    imbalance: int
    delta: float
    balanced: bool


@dataclass(frozen=True)
class TrialReport:
    """One orientation trial: sizes, exact max dicut, bounds, balance fraction."""

    seed: int
    n: int
    m: int
    max_dicut: int
    bound_m4: float
    bound_upper: float
    balanced_fraction: float


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregate of an orientation experiment, comparing the union-bound
    prediction ``2^n * 2 * exp(-delta^2 k / 6)`` for an unbalanced large cut
    against the observed fraction of trials containing one."""

    trials: int
    n: int
    m: int
    k: int
    delta: float
    cprime: float
    chernoff_bound: float
    unbalanced_fraction: float
    balance_guaranteed: bool
    min_max_dicut: int
    max_max_dicut: int


def _check_delta(delta: float) -> None:
    if not delta >= 0:  # also rejects NaN
        raise ValueError(f"delta must be non-negative, got {delta}")


def _balanced(imbalance, total, delta: float):
    # The imbalance never exceeds the total, so delta >= 2 already balances
    # every cut: the cap at 2 changes no verdict for a finite delta, and an
    # infinite one no longer meets an empty cut as inf * 0 = NaN.
    return imbalance <= min(delta, 2.0) * total / 2


def balance_verdict(forward: int, backward: int, delta: float) -> BalanceVerdict:
    """Evaluate |forward - backward| <= delta * (forward + backward) / 2."""
    _check_delta(delta)
    cut_total = forward + backward
    imbalance = abs(forward - backward)
    return BalanceVerdict(cut_total, imbalance, delta, _balanced(imbalance, cut_total, delta))


def check_delta_balanced(r: Relation, p: VertexPartition, delta: float) -> BalanceVerdict:
    d = dicut_size(r, p)
    return balance_verdict(d.forward, d.backward, delta)


def _cut_halves(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The forward and the backward count of every cut, as int16, one per
    unordered bipartition (the side masks with vertex 1 in U)."""
    # Each half is copied out as int16 and its int32 table freed before the
    # next is built, so at most one table is alive.  int16 is exact: a cut
    # (U, V) has at most |U| * |V| <= 100 arcs each way within the 20-vertex
    # limit, so a total is at most 200.
    return tuple(forward_cut_table(a)[1::2].astype(np.int16) for a in (adj, adj.T))


def _balance_limits(totals: np.ndarray, k: int, delta: float) -> tuple[np.ndarray, int]:
    """Per cut, the largest imbalance at which a cut of its total is
    delta-balanced, or -1 when the total is below k; and the number of cuts
    of total at least k."""
    # ``_balanced`` itself is evaluated on every pair (imbalance, total) up to
    # the largest total, so the rule stays stated once.  At each total it
    # holds from imbalance 0 up to the limit and for no larger imbalance, so
    # the limit is the number of imbalances it holds for, less one.
    sizes = np.arange(int(totals.max()) + 1, dtype=np.int16)
    largest = np.count_nonzero(_balanced(sizes, sizes[:, None], delta), axis=1) - 1
    limits = np.where(sizes >= k, largest, -1).astype(np.int16)[totals]
    return limits, np.count_nonzero(limits >= 0)


def _fraction(forward: np.ndarray, backward: np.ndarray, limits: np.ndarray, large: int) -> float:
    """The share of the ``large`` cuts whose imbalance is within its limit, 1.0
    when ``large`` is 0."""
    return np.count_nonzero(np.abs(forward - backward) <= limits) / large if large else 1.0


def _balanced_fraction(adj: np.ndarray, k: int, delta: float) -> float:
    """Fraction of the cuts of total size >= k that are delta-balanced, 1.0
    when there is none; one representative per unordered bipartition."""
    forward, backward = _cut_halves(adj)
    return _fraction(forward, backward, *_balance_limits(forward + backward, k, delta))


def check_k_delta_balanced(r: Relation, k: int, delta: float) -> bool:
    """True iff every cut of total size >= k is delta-balanced, exhaustively
    over all 2^(n-1) distinct bipartitions (n within the cut-table budget)."""
    _check_delta(delta)
    _require_cut_budget(r.n)
    return _balanced_fraction(r.adj, k, delta) == 1.0


def random_orientation(g: UndirectedGraph, seed: int) -> Relation:
    """Orient every edge independently by a fair coin from the seeded stream.

    Edges are consumed in sorted order; a set bit keeps the (min, max)
    direction.  The same seed always reproduces the same orientation.
    """
    rng = random.Random(seed)
    arcs = [(u, v) if rng.getrandbits(1) else (v, u) for u, v in g.sorted_edges()]
    return Relation.from_arcs(g.n, arcs)


def random_triangle_free_graph(n: int, m: int, seed: int) -> UndirectedGraph:
    """Random balanced bipartite graph on n vertices with m edges, which is
    triangle-free by construction.  Left part is {1..ceil(n/2)}; m distinct
    cross pairs are sampled without replacement from the seeded stream."""
    n = _integer(n, "vertex count")
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    left = (n + 1) // 2
    capacity = left * (n - left)
    if _integer(m, "edge count") < 0:
        raise ValueError(f"edge count must be non-negative, got {m}")
    if m > capacity:
        raise ValueError(f"{m} edges exceeds the bipartite capacity {capacity}")
    # Index j stands for the j-th cross pair in row-major order; sampling the
    # range draws the same indices as sampling the list of pairs would.
    right = n - left
    rng = random.Random(seed)
    return UndirectedGraph(
        n, frozenset((j // right + 1, left + 1 + j % right) for j in rng.sample(range(capacity), m))
    )


def run_balance_experiment(
    g: UndirectedGraph,
    trials: int,
    k: int,
    delta: float,
    seed: int,
    cprime: float,
) -> list[TrialReport]:
    """Orient ``g`` once per trial and report exact max dicut plus the
    fraction of size->=k cuts that are delta-balanced."""
    if _integer(trials, "trials") < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    _check_delta(delta)
    if math.isnan(cprime):
        raise ValueError(f"cprime must be a number, got {cprime}")
    _require_cut_budget(g.n)
    _require_triangle_free(g)
    m = g.m
    bound_m4 = m / 4
    bound_upper = m / 2 + cprime * m ** 0.8
    reports = []
    for t in range(trials):
        trial_seed = mix_seed(seed, t)
        adj = random_orientation(g, trial_seed).adj
        max_dicut = int(forward_cut_table(adj).max())
        forward, backward = _cut_halves(adj)
        if not t:  # every orientation crosses each cut with the same edges
            limits, large = _balance_limits(forward + backward, k, delta)
        reports.append(
            TrialReport(
                seed=trial_seed,
                n=g.n,
                m=m,
                max_dicut=max_dicut,
                bound_m4=bound_m4,
                bound_upper=bound_upper,
                balanced_fraction=_fraction(forward, backward, limits, large),
            )
        )
        del forward, backward  # freed before the next trial's tables are built
    return reports


def summarize_balance_experiment(
    reports: list[TrialReport], k: int, delta: float, cprime: float
) -> ExperimentSummary:
    if not reports:
        raise ValueError("no trial reports to summarize")
    n = reports[0].n
    m = reports[0].m
    unbalanced = sum(1 for rep in reports if rep.balanced_fraction < 1.0)
    try:  # the exponent is 0 when k == 0, even for an infinite delta
        chernoff = (2.0 ** n) * 2.0 * math.exp(-delta * delta * k / 6.0 if k else 0.0)
    except OverflowError:  # beyond the float range
        chernoff = math.inf
    return ExperimentSummary(
        trials=len(reports),
        n=n,
        m=m,
        k=k,
        delta=delta,
        cprime=cprime,
        chernoff_bound=chernoff,
        unbalanced_fraction=unbalanced / len(reports),
        balance_guaranteed=n < k * delta * delta / 6.0,
        min_max_dicut=min(rep.max_dicut for rep in reports),
        max_max_dicut=max(rep.max_dicut for rep in reports),
    )
