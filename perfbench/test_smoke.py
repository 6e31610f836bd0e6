"""Smoke test of the benchmark at toy sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCALE = 10
TIMES = ("self_s", "overhead_frac", "v1_over_v2")

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from workloads import Job  # noqa: E402


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    """(detail record, result object) of one toy-size run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--scale", str(SCALE)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    *_, detail, result = proc.stdout.splitlines()
    return json.loads(detail), json.loads(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted(workload):
    detail, result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["golden_jobs"] == detail["jobs"], "toy inputs of seed 0 have golden values"
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    (detail, first), (_, second) = bench(workload, 1), bench(workload, 1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [name for name in first["metrics"] if not name.endswith(TIMES)]
    assert [first["metrics"][c] for c in counts] == [second["metrics"][c] for c in counts]

    calls = {name: m["value"] for name, m in first["metrics"].items() if name.endswith(".calls")}
    assert calls["cli.main.calls"] == detail["jobs"]
    # by-name imports (cli -> maximal, extremal -> maximum) reach the wrappers
    if workload == "dense-extremal":
        argv = detail["argv"]["experiment"]
        trials = int(argv[argv.index("--trials") + 1])
        assert calls["maximum.forward_cut_table.calls"] == 3 * trials
    if workload == "sparse":
        assert calls["maximal.is_maximal_transitive.calls"] == 1


def test_checker_rejects_changed_output():
    workdir = run.WORK / "checker"
    workdir.mkdir(parents=True, exist_ok=True)
    job = Job("j", ("check",), "in.txt", exit=1)
    (workdir / "in.txt").write_text("2 1\n1 2\n")
    key = run.golden_key(job, workdir)
    checker = run.Checker([job], workdir, {key: [1, "a" * 64]})
    assert checker.ok(job, 1, "a" * 64)
    assert not checker.ok(job, 1, "b" * 64)
    assert not checker.ok(job, 0, "a" * 64)

    unrecorded = run.Checker([job], workdir, {})
    assert unrecorded.ok(job, 1, "c" * 64)
    assert not unrecorded.ok(job, 1, "d" * 64), "digest must repeat across passes"
    assert not unrecorded.ok(job, 0, "c" * 64), "exit status must match the job"
