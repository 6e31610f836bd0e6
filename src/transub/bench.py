"""Wall-time scaling harness for the two maximal-extraction routes.

Sparse mode (m = 4n) isolates the per-arc work on top of the row scans; dense
mode (m = n^2/4) makes the arc sweeps dominate so both routes land within a
small constant factor of each other.  Runs are strictly serial, timed with a
monotonic clock, and summarized by the median over repetitions.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .maximal import maximal_transitive_v1, maximal_transitive_v2
from .relation import Relation, _require_dense_budget, _vertex_count

SPARSE_MODE = "sparse"
DENSE_MODE = "dense"


@dataclass(frozen=True)
class BenchConfig:
    sizes: tuple[int, ...]
    density: str = SPARSE_MODE
    repetitions: int = 3
    seed: int = 0

    def __post_init__(self):
        if not self.sizes:
            raise ValueError("at least one size is required")
        if list(self.sizes) != sorted(set(self.sizes)):
            raise ValueError("sizes must be strictly ascending")
        if self.sizes[0] < 1:
            raise ValueError(f"sizes must be at least 1, got {self.sizes[0]}")
        _require_dense_budget(self.sizes[-1])  # each run copies an n^2 matrix
        if self.density not in (SPARSE_MODE, DENSE_MODE):
            raise ValueError(f"density must be '{SPARSE_MODE}' or '{DENSE_MODE}'")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")


@dataclass(frozen=True)
class BenchRow:
    n: int
    m: int
    v1_median_ns: int
    v2_median_ns: int


def arc_count_for(n: int, density: str) -> int:
    if density == SPARSE_MODE:
        return min(4 * n, n * (n - 1))
    return n * n // 4


def random_relation(n: int, m: int, seed: int) -> Relation:
    """Loop-free digraph with m distinct arcs sampled without replacement."""
    n = _vertex_count(n)
    if n < 1:
        raise ValueError(f"vertex count must be at least 1, got {n}")
    if m > n * (n - 1):
        raise ValueError(f"{m} arcs exceeds the {n * (n - 1)} loop-free pairs")
    rng = random.Random(seed)
    picks = np.array(rng.sample(range(n * (n - 1)), m), dtype=np.int64)
    rows = picks // (n - 1)
    offs = picks % (n - 1)
    cols = np.where(offs < rows, offs, offs + 1)
    adj = np.zeros((n, n), dtype=bool)
    adj[rows, cols] = True
    return Relation._from_matrix(adj)


def _timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), wall time in ns)``, by the monotonic clock.  The
    one clock probe of the package: the bench and every CLI run report use it."""
    start = time.perf_counter_ns()
    value = fn(*args, **kwargs)
    return value, time.perf_counter_ns() - start


def run_scaling(config: BenchConfig) -> list[BenchRow]:
    """Time both routes on identical seeded inputs, one fresh copy per run."""
    rows = []
    for n in config.sizes:
        m = arc_count_for(n, config.density)
        r = random_relation(n, m, config.seed + n)
        reps = range(config.repetitions)
        v1_samples = [_timed(maximal_transitive_v1, r, collect_trace=False)[1] for _ in reps]
        v2_samples = [_timed(maximal_transitive_v2, r, collect_trace=False)[1] for _ in reps]
        rows.append(
            BenchRow(
                n=n,
                m=m,
                v1_median_ns=int(np.median(v1_samples)),
                v2_median_ns=int(np.median(v2_samples)),
            )
        )
    return rows


def doubling_ratios(rows: list[BenchRow]) -> list[tuple[int, int, float, float]]:
    """(n, 2n, v1 ratio, v2 ratio) for consecutive size doublings."""
    ratios = []
    for small, big in zip(rows, rows[1:]):
        if big.n == 2 * small.n and small.v1_median_ns and small.v2_median_ns:
            ratios.append(
                (
                    small.n,
                    big.n,
                    big.v1_median_ns / small.v1_median_ns,
                    big.v2_median_ns / small.v2_median_ns,
                )
            )
    return ratios
