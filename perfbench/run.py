"""CLI benchmark of ``transub``: seeded workloads of real ``python -m transub`` jobs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sparse --seed 7 --seconds 45 --trace 0

One closed loop with one client: the jobs of a workload run one at a time, in
a fixed order, and a pass is one run of the whole list.  ``--trace 0`` runs
each job as its own process and reports the end-to-end metrics; ``--trace 1``
runs the same argv list through ``transub.cli.main`` in this process, once
plain and once with every layer function wrapped in a span, and reports the
per-layer metrics.  Every job's exit status and output digest is checked
against ``golden.json``.  The last line of stdout is the result object; the
line before it is a detail record with the machine, every sample and every
span total.

``--record-golden`` runs each job once and adds its result to ``golden.json``;
it refuses to change a value that is already recorded.
"""

from __future__ import annotations

import os
import sys

# BLAS must not use more threads than this process may run on; set before numpy loads.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import re
import signal
import statistics
import time
from pathlib import Path

import numpy as np

import spans
import workloads
from workloads import NOOP, Job

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
WORK = HERE / "_work"
SETUP_PER_PASS = 3
WALL_NS = re.compile(rb'"wall_time_ns": \d+')


# ---------------------------------------------------------------------------
# Jobs and their results
# ---------------------------------------------------------------------------


def job_argv(job: Job, workdir: Path) -> list[str]:
    argv = list(job.argv)
    if job.input is not None:
        argv += ["--input", str(workdir / job.input)]
    return argv + ["--output", str(workdir / f"{job.name}.out"), "--json"]


def golden_key(job: Job, workdir: Path) -> str:
    """Identifies a job by its flags and the bytes of its input, not by seed."""
    source = None
    if job.input is not None:
        source = hashlib.sha256((workdir / job.input).read_bytes()).hexdigest()
    return hashlib.sha256(json.dumps([list(job.argv), source]).encode()).hexdigest()


def output_digest(job: Job, workdir: Path, stdout: bytes, stderr: bytes) -> str:
    out = workdir / f"{job.name}.out"
    h = hashlib.sha256()
    for part in (stdout, WALL_NS.sub(b'"wall_time_ns": 0', stderr),
                 out.read_bytes() if out.exists() else b""):
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


class Checker:
    """Judges each job result against its golden value.  A job whose input has
    no golden value (a seed never recorded) must end with its expected exit
    status and give the same digest on every pass of the run."""

    def __init__(self, jobs, workdir: Path, golden: dict) -> None:
        self.expected = {job.name: golden.get(golden_key(job, workdir)) for job in jobs}
        self.first: dict[str, str] = {}

    def ok(self, job: Job, status: int, digest: str) -> bool:
        want = self.expected[job.name]
        if want is not None:
            return [status, digest] == want
        return status == job.exit and self.first.setdefault(job.name, digest) == digest

    def recorded(self) -> int:
        return sum(want is not None for want in self.expected.values())


def spawn(job: Job, workdir: Path, env: dict) -> tuple[int, int, float]:
    """Run one job as a child process; (exit status, peak RSS in KiB, wall s).

    ``os.wait4`` gives this child's own resource usage, where
    ``RUSAGE_CHILDREN`` would keep a maximum over every child so far.
    """
    (workdir / f"{job.name}.out").unlink(missing_ok=True)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, fd, str(workdir / f"{job.name}.{stream}"), flags, 0o644)
        for fd, stream in ((1, "stdout"), (2, "stderr"))
    ]
    argv = [sys.executable, "-m", "transub", *job_argv(job, workdir)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss, wall


def child_digest(job: Job, workdir: Path) -> str:
    stdout = (workdir / f"{job.name}.stdout").read_bytes()
    stderr = (workdir / f"{job.name}.stderr").read_bytes()
    return output_digest(job, workdir, stdout, stderr)


def child_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


# ---------------------------------------------------------------------------
# Statistics and machine record
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    count = len(ordered)
    out = {"samples": count, "median": statistics.median(ordered), "tail": None}
    if count > 10:
        out["tail"] = {"percentile": 100 * (count - 10) / count, "value": ordered[count - 11]}
    return out


def machine() -> dict:
    record = {
        "nproc": NPROC,
        "cpu": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": None,
        "blas_threads": NPROC,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu"] = line.partition(":")[2].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            if kind != "Instruction":
                record["caches"][f"L{level}"] = size
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    return record


# ---------------------------------------------------------------------------
# Untraced process run (--trace 0)
# ---------------------------------------------------------------------------


def run_processes(jobs, workdir: Path, seconds: float, checker: Checker, root: Path):
    env = child_env(root)
    spawn(NOOP, workdir, env)  # warm the page cache and bytecode cache
    setup, noop_ok = [], True
    passes, peaks, job_walls, attempted, failed = [], [], {job.name: [] for job in jobs}, 0, 0
    start = time.perf_counter()
    while True:
        # Set-up samples are spread over the window like the passes, so that
        # a slow stretch of the host cannot fall on all of them.
        for _ in range(SETUP_PER_PASS):
            status, _, wall = spawn(NOOP, workdir, env)
            noop_ok &= status == NOOP.exit
            setup.append(wall)
        t0 = time.perf_counter()
        results = [spawn(job, workdir, env) for job in jobs]
        passes.append(time.perf_counter() - t0)
        peaks.append(max(rss for _, rss, _ in results) / 1024)
        for job, (status, _, wall) in zip(jobs, results):
            job_walls[job.name].append(wall)
            attempted += 1
            failed += not checker.ok(job, status, child_digest(job, workdir))
        # Stop at the pass boundary nearest to the end of the window, after at
        # least two passes, so the median is not a single sample.
        if len(passes) >= 2 and time.perf_counter() - start + statistics.median(passes) / 2 > seconds:
            break

    metrics = {
        "wall_s": statistics.median(passes),
        "peak_rss_mb": statistics.median(peaks),
        "setup_s": statistics.median(setup),
        "ok_frac": 1 - failed / attempted,
    }
    detail = {
        "wall_s": tail(passes),
        "pass_wall_s": passes,
        "pass_peak_rss_mb": peaks,
        "setup_s": setup,
        "job_wall_s": job_walls,
        "failed_frac": failed / attempted,
    }
    return metrics, detail, attempted, failed, noop_ok


# ---------------------------------------------------------------------------
# In-process run, plain and traced (--trace 1)
# ---------------------------------------------------------------------------


def run_in_process(jobs, workdir: Path, checker: Checker, tracer: spans.Tracer | None):
    """One pass through ``transub.cli.main``; (wall s, failed job count)."""
    import transub.cli

    captured = []
    scope = spans.traced(tracer) if tracer is not None else contextlib.nullcontext()
    with scope:
        start = time.perf_counter()
        for job in jobs:
            (workdir / f"{job.name}.out").unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.job = job.name
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = transub.cli.main(job_argv(job, workdir))
                except SystemExit as exc:
                    status = exc.code if isinstance(exc.code, int) else 1
            captured.append((job, status, out.getvalue().encode(), err.getvalue().encode()))
        wall = time.perf_counter() - start
    failed = sum(
        not checker.ok(job, status, output_digest(job, workdir, o, e))
        for job, status, o, e in captured
    )
    return wall, failed


def layer_metrics(tracer: spans.Tracer) -> dict[str, float]:
    """Self seconds and calls for every wrapped function, plus the counters."""
    names = spans.layer_functions()
    self_ns = dict.fromkeys(names, 0)
    calls = dict.fromkeys(names, 0)
    per_job: dict[tuple[str, str], int] = {}
    for job, name, ns in tracer.self_times():
        self_ns[name] += ns
        calls[name] += 1
        per_job[job, name] = per_job.get((job, name), 0) + ns
    metrics: dict[str, float] = {}
    for name in names:
        metrics[f"{name}.self_s"] = self_ns[name] / 1e9
        metrics[f"{name}.calls"] = calls[name]
    metrics.update(tracer.counters)
    # Criterion 10 of the paper: v1 against v2 on the same n=2000 input.
    v1 = per_job.get(("maximal-v1", "maximal.maximal_transitive_v1"), 0)
    v2 = per_job.get(("maximal-v2", "maximal.maximal_transitive_v2"), 0)
    metrics["maximal.v1_over_v2"] = v1 / v2 if v1 and v2 else 0.0
    return metrics


def run_traced(jobs, workdir: Path, seconds: float, checker: Checker, root: Path):
    sys.path.insert(0, str(root / "src"))
    import transub

    if Path(transub.__file__).resolve().parent != (root / "src" / "transub").resolve():
        sys.exit(f"imported transub from {transub.__file__}, not from {root / 'src'}")

    plain, traced, layers = [], [], []
    start = time.perf_counter()
    # The first pass in a process pays first-use costs, which would be
    # charged to whichever side of the overhead comparison ran first.
    _, failed = run_in_process(jobs, workdir, checker, None)
    attempted = len(jobs)
    while True:
        wall, bad = run_in_process(jobs, workdir, checker, None)
        plain.append(wall)
        tracer = spans.Tracer()
        wall_t, bad_t = run_in_process(jobs, workdir, checker, tracer)
        traced.append(wall_t)
        layers.append(layer_metrics(tracer))
        attempted += 2 * len(jobs)
        failed += bad + bad_t
        pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() - start + pair / 2 > seconds:
            break

    # Counts must repeat exactly from pass to pass; times are medians.
    exact = {k for k in layers[0] if not k.endswith("_s") and k != "maximal.v1_over_v2"}
    repeatable = all(all(run[k] == layers[0][k] for k in exact) for run in layers)
    metrics = {
        k: (statistics.median(run[k] for run in layers) if k not in exact else layers[0][k])
        for k in layers[0]
    }
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    detail = {
        "in_process_wall_s": plain,
        "traced_wall_s": traced,
        "spans": {k: v for k, v in metrics.items() if v},
    }
    return metrics, detail, attempted, failed, repeatable


# ---------------------------------------------------------------------------
# Golden recording and entry point
# ---------------------------------------------------------------------------


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def record_golden(jobs, workdir: Path, root: Path) -> int:
    golden = load_golden()
    env = child_env(root)
    conflicts = 0
    for job in (NOOP, *jobs):
        status, _, _ = spawn(job, workdir, env)
        if status != job.exit:
            print(f"{job.name}: exit {status}, expected {job.exit}", file=sys.stderr)
            return 1
        key, value = golden_key(job, workdir), [status, child_digest(job, workdir)]
        if golden.setdefault(key, value) != value:
            print(f"{job.name}: result differs from the recorded golden value", file=sys.stderr)
            conflicts += 1
    GOLDEN.write_text(json.dumps(dict(sorted(golden.items())), indent=0) + "\n")
    return 1 if conflicts else 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0, help="measuring window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=int, default=1, help="divide input sizes (smoke test)")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.scale < 1:
        parser.error("--scale must be at least 1")
    return args


def _terminate(signum, frame):
    # Unwinds through spawn(), which kills and reaps the running job.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "transub" / "__init__.py").is_file():
        print(f"no transub sources under {root / 'src'}: run from a checkout root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    workdir = WORK / args.workload
    jobs = workloads.build(args.workload, args.seed, workdir, args.scale)
    if args.record_golden:
        return record_golden(jobs, workdir, root)

    checker = Checker(jobs, workdir, load_golden())
    if args.trace:
        metrics, detail, attempted, failed, sound = run_traced(jobs, workdir, args.seconds, checker, root)
        wanted = spec["per_layer"]
    else:
        metrics, detail, attempted, failed, sound = run_processes(
            jobs, workdir, args.seconds, checker, root
        )
        wanted = spec["end_to_end"]
    detail.update(
        workload=args.workload, seed=args.seed, scale=args.scale, trace=args.trace,
        golden_jobs=checker.recorded(), jobs=len(jobs),
        argv={job.name: list(job.argv) for job in jobs}, machine=machine(),
    )
    print(json.dumps(detail))
    result = {
        "correct": sound and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
