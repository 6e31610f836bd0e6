"""Seeded inputs and job lists of the two benchmark workloads.

Inputs come from a numpy ``Generator`` seeded with the workload seed, never
from the library's own random helpers, so a change to the library cannot change
what the benchmark feeds it.  Every input file is written before timing
starts; the program sees only those files (and, for ``experiment``, a seed
drawn from the same generator).

A job is one ``transub`` argv without its I/O options; the runner appends
``--input`` (a generated file), ``--output`` and ``--json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    input: str | None  # generated file the job reads, or None
    exit: int = 0  # exit status the job must end with


def _job(name: str, input_name: str | None, *argv: str, exit: int = 0) -> Job:
    return Job(name, tuple(argv), input_name, exit)


def _distinct_arcs(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    """``m`` distinct loop-free arcs on ``n`` vertices as 0-based cell codes
    ``u * n + v``, sorted (row-major)."""
    if m > n * (n - 1):
        raise ValueError(f"{m} arcs do not fit on {n} vertices without loops")
    codes = np.empty(0, dtype=np.int64)
    while codes.size < m:
        draw = rng.integers(0, n * n, size=2 * m, dtype=np.int64)
        draw = draw[draw // n != draw % n]
        merged = np.concatenate([codes, draw])
        _, first = np.unique(merged, return_index=True)
        codes = merged[np.sort(first)][:m]
    return np.sort(codes)


def edge_list_text(rng: np.random.Generator, n: int, m: int) -> str:
    codes = _distinct_arcs(rng, n, m)
    lines = [f"{n} {m}"]
    lines.extend(f"{u} {v}" for u, v in zip((codes // n + 1).tolist(), (codes % n + 1).tolist()))
    return "\n".join(lines) + "\n"


def matrix_text(rng: np.random.Generator, n: int, m: int) -> str:
    cells = np.zeros(n * n, dtype=np.uint8)
    cells[_distinct_arcs(rng, n, m)] = 1
    grid = (cells.reshape(n, n) + ord("0")).astype(np.uint8)
    rows = np.concatenate([grid, np.full((n, 1), ord("\n"), dtype=np.uint8)], axis=1)
    return rows.tobytes().decode("ascii")


NOOP_INPUT = "1 0\n"
# A process that does no work: interpreter start, imports and argparse only.
NOOP = Job("noop", ("check",), "noop.txt")


def build(name: str, seed: int, workdir: Path, scale: int = 1) -> tuple[Job, ...]:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir`` and
    return its job list: the jobs of each of its parts, in order.

    ``scale`` divides the vertex counts and the trial count, for the smoke
    test; the enumeration inputs keep their size at every scale because the
    exact routes are budgeted by arc and vertex count anyway.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / NOOP.input).write_text(NOOP_INPUT, encoding="ascii")
    return tuple(job for part in PARTS[name] for job in _part(part, seed, workdir, scale))


def _part(part: str, seed: int, workdir: Path, scale: int) -> tuple[Job, ...]:
    # Each part draws from its own stream, so its inputs do not depend on
    # which workload it sits in.
    rng = np.random.default_rng([seed, _PART_IDS[part]])

    def write(file_name: str, text: str) -> str:
        (workdir / file_name).write_text(text, encoding="ascii")
        return file_name

    if part == "sparse-large":
        n = 8000 // scale
        src = write("sparse.txt", edge_list_text(rng, n, 4 * n))
        return _solve_jobs(src)
    if part == "dense-matrix":
        n = 2000 // scale
        src = write("dense.txt", matrix_text(rng, n, n * n // 4))
        return _solve_jobs(src)
    if part == "small-exact":
        verify = write("verify.txt", edge_list_text(rng, 300 // scale, 4 * (300 // scale)))
        mid = write("mid.txt", edge_list_text(rng, 2000 // scale, 4 * (2000 // scale)))
        exact = write("exact.txt", edge_list_text(rng, 8, 22))
        dicut = write("dicut.txt", edge_list_text(rng, 20, 80))
        enc = write("encode.txt", edge_list_text(rng, 1000 // scale, 4 * (1000 // scale)))
        local_seed = str(int(rng.integers(0, 2**31)))
        return (
            _job("maximal-verify", verify, "maximal", "--verify"),
            _job("maximal-v1", mid, "maximal", "--algorithm", "v1"),
            _job("maximal-v2", mid, "maximal", "--algorithm", "v2"),
            _job("maximum-exact", exact, "maximum", "--mode", "exact"),
            _job("maximum-dicut-exact", dicut, "maximum", "--mode", "dicut-exact"),
            _job("maximum-dicut-local", mid, "maximum", "--mode", "dicut-local", "--seed", local_seed),
            _job("encode", enc, "encode"),
        )
    if part == "experiment":
        trials = str(50 // scale)
        exp_seed = str(int(rng.integers(0, 2**31)))
        return (
            _job("experiment", None, "experiment", "--n", "20", "--m", "100",
                 "--trials", trials, "--seed", exp_seed),
        )
    raise KeyError(part)


def _solve_jobs(src: str) -> tuple[Job, ...]:
    return (
        _job("maximal", src, "maximal"),
        # A random input is not transitive, and check reports that by exit 1.
        _job("check", src, "check", exit=1),
        _job("maximum-quarter", src, "maximum", "--mode", "quarter"),
    )


# Why each workload exists is in README.md and BENCHMARK.json.  A workload is
# a list of parts; each part is a set of jobs with its own inputs.
PARTS = {
    "sparse": ("sparse-large", "small-exact"),
    "dense-extremal": ("dense-matrix", "experiment"),
}
NAMES = tuple(PARTS)

# Mixed into the generator seed so two parts never share a stream.
_PART_IDS = {"sparse-large": 0, "dense-matrix": 1, "small-exact": 2, "experiment": 3}
