import subprocess
import sys

import pytest

from transub import bench
from transub import (
    DENSE_VERTEX_BUDGET,
    BenchConfig,
    BudgetError,
    doubling_ratios,
    maximal_transitive_v1,
    random_relation,
    run_scaling,
)


class TestRandomRelation:
    def test_shape_and_determinism(self):
        r = random_relation(20, 80, 7)
        assert (r.n, r.m) == (20, 80)
        assert r == random_relation(20, 80, 7)
        assert r != random_relation(20, 80, 8)
        assert all(u != v for u, v in r.arcs())

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            random_relation(3, 7, 0)


class TestConfig:
    def test_sizes_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            BenchConfig(sizes=(100, 50))

    @pytest.mark.parametrize("sizes", [(0,), (-3,), (0, 10)])
    def test_sizes_at_least_one(self, sizes):
        with pytest.raises(ValueError, match="at least 1") as err:
            BenchConfig(sizes=sizes)
        assert not isinstance(err.value, BudgetError)

    def test_sizes_within_dense_budget(self):
        BenchConfig(sizes=(DENSE_VERTEX_BUDGET,))
        with pytest.raises(BudgetError, match=f"dense limit of {DENSE_VERTEX_BUDGET}"):
            BenchConfig(sizes=(10, DENSE_VERTEX_BUDGET + 1))

    def test_repetitions_positive(self):
        with pytest.raises(ValueError, match="repetitions"):
            BenchConfig(sizes=(10,), repetitions=0)

    def test_density_names(self):
        with pytest.raises(ValueError, match="density"):
            BenchConfig(sizes=(10,), density="cubic")


class TestHarness:
    def test_single_row_three_sample_median(self):
        rows = run_scaling(BenchConfig(sizes=(100,), repetitions=3, seed=1))
        assert len(rows) == 1
        assert rows[0].n == 100 and rows[0].m == 400
        assert rows[0].v1_median_ns > 0 and rows[0].v2_median_ns > 0

    @pytest.mark.parametrize("samples, median", [
        ([30, 10, 20], 20),
        ([40, 10, 30, 20], 25),  # the mean of the middle two
        ([4, 1, 3, 2], 2),  # 2.5, truncated
        ([5], 5),
    ])
    def test_median_of_samples(self, monkeypatch, samples, median):
        clock = iter(samples * 2)
        monkeypatch.setattr(bench, "_timed", lambda fn, *args, **kwargs: (None, next(clock)))
        rows = run_scaling(BenchConfig(sizes=(10,), repetitions=len(samples)))
        assert (rows[0].v1_median_ns, rows[0].v2_median_ns) == (median, median)

    def test_doubling_ratios_only_for_doubles(self):
        rows = run_scaling(BenchConfig(sizes=(32, 64, 100), repetitions=1, seed=2))
        ratios = doubling_ratios(rows)
        assert [(a, b) for a, b, _, _ in ratios] == [(32, 64)]

    def test_timed_inputs_match_traced_outputs(self):
        r = random_relation(40, 160, 3)
        fast, _ = maximal_transitive_v1(r, collect_trace=False)
        traced, _ = maximal_transitive_v1(r)
        assert fast == traced

    def test_dense_mode_arc_count(self):
        rows = run_scaling(BenchConfig(sizes=(20,), density="dense", repetitions=1))
        assert rows[0].m == 100


def test_cli_import_leaves_out_statistics():
    # statistics imports fractions and decimal, a few ms of every process.
    code = "import sys, transub.cli; print(sorted({'statistics', 'fractions'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
