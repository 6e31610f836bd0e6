"""Command-line surface for the whole package.

Subcommands: maximal, maximum, closure, check, encode, experiment, bench.
Result relations go to --output (default stdout) in the input's format; run
reports go to stderr as single-line records, or as JSON with --json.  Output
is deterministic given (input bytes, flags, seed); wall times are the only
nondeterministic fields and are excluded from any byte-stability guarantee.

Exit statuses: 0 success (all requested checks passed), 1 failed check or I/O
error, 2 usage error, 3 parse error, 4 enumeration budget exceeded, 5
verification failure (indicates an implementation bug).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .bench import BenchConfig, doubling_ratios, run_scaling
from .errors import BudgetError, ParseError, PreconditionError
from .extremal import (
    run_balance_experiment,
    random_triangle_free_graph,
    summarize_balance_experiment,
)
from .maximal import is_maximal_transitive, maximal_transitive_v1, maximal_transitive_v2
from .maximum import (
    brute_force_max_dicut,
    brute_force_mts,
    forward_arcs,
    local_search_dicut,
    quarter_approx,
)
from .relation import (
    Relation,
    is_subrelation,
    is_transitive,
    has_path_length_two,
    parse_relation,
    serialize_relation,
    transitive_closure,
)
from .sat import cnf_to_dimacs, encode_mts_to_cnf

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5


@dataclass
class RunReport:
    command: str
    n: int
    m: int
    result_size: int
    checks: list[tuple[str, bool]]
    wall_time_ns: int

    def as_text(self) -> str:
        if self.checks:
            checks = ",".join(f"{name}:{'pass' if ok else 'fail'}" for name, ok in self.checks)
        else:
            checks = "none"
        return (
            f"command={self.command} n={self.n} m={self.m} "
            f"result_size={self.result_size} checks={checks} "
            f"wall_time_ns={self.wall_time_ns}"
        )

    def as_json(self) -> dict:
        return {
            "command": self.command,
            "n": self.n,
            "m": self.m,
            "result_size": self.result_size,
            "checks": [{"name": name, "pass": ok} for name, ok in self.checks],
            "wall_time_ns": self.wall_time_ns,
        }


def _read_text(path: str) -> str:
    data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8 (byte {exc.start}: {exc.reason})") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _emit_report(report: RunReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.as_json()), file=sys.stderr)
    else:
        print(report.as_text(), file=sys.stderr)


def _load_relation(args) -> tuple[Relation, str]:
    return parse_relation(_read_text(args.input))


def _maximality_verdicts(host: Relation, t: Relation) -> tuple[bool, bool, bool]:
    """(contained, transitive, maximal) of ``t`` in ``host``.  The maximality
    check tests containment and transitivity first, so the two separate
    verdicts are computed only when it rejects its precondition."""
    try:
        return True, True, is_maximal_transitive(host, t)
    except PreconditionError:
        return t.n == host.n and is_subrelation(t, host), is_transitive(t), False


def cmd_maximal(args) -> int:
    r, fmt = _load_relation(args)
    algorithm = maximal_transitive_v1 if args.algorithm == "v1" else maximal_transitive_v2
    start = time.perf_counter_ns()
    result, _ = algorithm(r, collect_trace=False)
    wall = time.perf_counter_ns() - start
    checks: list[tuple[str, bool]] = []
    if args.verify:
        contained, transitive, maximal = _maximality_verdicts(r, result)
        checks += [("transitive", transitive), ("contained", contained), ("maximal", maximal)]
    _write_text(args.output, serialize_relation(result, fmt))
    report = RunReport("maximal", r.n, r.m, result.m, checks, wall)
    _emit_report(report, args.json)
    if checks and not all(ok for _, ok in checks):
        return EXIT_VERIFY
    return EXIT_OK


def cmd_maximum(args) -> int:
    r, fmt = _load_relation(args)
    checks: list[tuple[str, bool]] = []
    start = time.perf_counter_ns()
    if args.mode == "exact":
        result = brute_force_mts(r)
    elif args.mode == "quarter":
        result = quarter_approx(r)
        checks.append(("size_ge_quarter", 4 * result.m >= r.m))
    elif args.mode == "dicut-exact":
        cut = brute_force_max_dicut(r)
        result = forward_arcs(r, cut.partition)
    else:  # dicut-local
        cut = local_search_dicut(r, args.seed, args.max_rounds)
        result = forward_arcs(r, cut.partition)
    wall = time.perf_counter_ns() - start
    if args.verify:
        checks.append(("transitive", is_transitive(result)))
        checks.append(("contained", is_subrelation(result, r)))
    _write_text(args.output, serialize_relation(result, fmt))
    report = RunReport("maximum", r.n, r.m, result.m, checks, wall)
    _emit_report(report, args.json)
    if checks and not all(ok for _, ok in checks):
        return EXIT_VERIFY
    return EXIT_OK


def cmd_closure(args) -> int:
    r, fmt = _load_relation(args)
    start = time.perf_counter_ns()
    result = transitive_closure(r)
    wall = time.perf_counter_ns() - start
    _write_text(args.output, serialize_relation(result, fmt))
    checks = [("transitive", is_transitive(result)), ("contains_input", is_subrelation(r, result))]
    report = RunReport("closure", r.n, r.m, result.m, checks, wall)
    _emit_report(report, args.json)
    return EXIT_OK


def cmd_check(args) -> int:
    r, _ = _load_relation(args)
    start = time.perf_counter_ns()
    if args.sub:
        sub, _ = parse_relation(_read_text(args.sub))
        contained, transitive, maximal = _maximality_verdicts(r, sub)
        checks = [("contained", contained), ("transitive", transitive), ("maximal", maximal)]
        size = sub.m
    else:
        checks = [
            ("transitive", is_transitive(r)),
            ("path_length_two", has_path_length_two(r)),
        ]
        size = r.m
    wall = time.perf_counter_ns() - start
    report = RunReport("check", r.n, r.m, size, checks, wall)
    _emit_report(report, args.json)
    verdict_names = {"contained", "transitive", "maximal"}
    ok = all(ok for name, ok in checks if name in verdict_names)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_encode(args) -> int:
    r, _ = _load_relation(args)
    _write_text(args.output, cnf_to_dimacs(encode_mts_to_cnf(r)))
    return EXIT_OK


def _trial_line(rep) -> str:
    return (
        f"trial seed={rep.seed} n={rep.n} m={rep.m} max_dicut={rep.max_dicut} "
        f"bound_m4={rep.bound_m4!r} bound_upper={rep.bound_upper!r} "
        f"balanced_fraction={rep.balanced_fraction!r}"
    )


def _summary_line(s) -> str:
    return (
        f"summary trials={s.trials} n={s.n} m={s.m} k={s.k} delta={s.delta!r} "
        f"cprime={s.cprime!r} chernoff_bound={s.chernoff_bound!r} "
        f"unbalanced_fraction={s.unbalanced_fraction!r} "
        f"balance_guaranteed={s.balance_guaranteed} "
        f"min_max_dicut={s.min_max_dicut} max_max_dicut={s.max_max_dicut}"
    )


def cmd_experiment(args) -> int:
    graph = random_triangle_free_graph(args.n, args.m, args.seed)
    k = args.k if args.k is not None else max(1, -(-args.m // 4))
    reports = run_balance_experiment(graph, args.trials, k, args.delta, args.seed, args.cprime)
    summary = summarize_balance_experiment(reports, k, args.delta, args.cprime)
    if args.json:
        document = {
            "command": "experiment",
            "n": graph.n,
            "m": graph.m,
            "trials": [_as_dict(rep) for rep in reports],
            "summary": _as_dict(summary),
        }
        _write_text(args.output, json.dumps(document, indent=2) + "\n")
    else:
        lines = [_trial_line(rep) for rep in reports]
        lines.append(_summary_line(summary))
        _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def _as_dict(obj):
    from dataclasses import asdict

    return asdict(obj)


def cmd_bench(args) -> int:
    sizes = tuple(int(tok) for tok in args.sizes.split(","))
    config = BenchConfig(
        sizes=sizes, density=args.density, repetitions=args.repetitions, seed=args.seed
    )
    rows = run_scaling(config)
    if args.json:
        document = {
            "command": "bench",
            "density": config.density,
            "repetitions": config.repetitions,
            "rows": [_as_dict(row) for row in rows],
            "doubling": [
                {"n": a, "n2": b, "v1_ratio": r1, "v2_ratio": r2}
                for a, b, r1, r2 in doubling_ratios(rows)
            ],
        }
        _write_text(args.output, json.dumps(document, indent=2) + "\n")
        return EXIT_OK
    lines = []
    for row in rows:
        speedup = row.v1_median_ns / row.v2_median_ns if row.v2_median_ns else float("inf")
        lines.append(
            f"bench n={row.n} m={row.m} v1_median_ns={row.v1_median_ns} "
            f"v2_median_ns={row.v2_median_ns} speedup={speedup:.2f}"
        )
    for a, b, r1, r2 in doubling_ratios(rows):
        lines.append(f"doubling n={a}->{b} v1_ratio={r1:.2f} v2_ratio={r2:.2f}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def _add_io_options(sub, needs_input=True):
    if needs_input:
        sub.add_argument("--input", required=True, help="input relation file ('-' for stdin)")
    sub.add_argument("--output", default=None, help="output path (default: stdout)")
    sub.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    sub.add_argument("--json", action="store_true", help="machine-readable reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transub",
        description="Transitive subgraph toolkit: maximal/maximum extraction, "
        "directed cuts, CNF encoding, and orientation experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("maximal", help="maximal transitive sub-relation")
    _add_io_options(p)
    p.add_argument("--algorithm", choices=("v1", "v2"), default="v2")
    p.add_argument("--verify", action="store_true", help="check the output against the oracle")
    p.set_defaults(func=cmd_maximal)

    p = subparsers.add_parser("maximum", help="maximum transitive subgraph (exact or approximate)")
    _add_io_options(p)
    p.add_argument(
        "--mode", choices=("exact", "quarter", "dicut-exact", "dicut-local"), default="exact"
    )
    p.add_argument("--max-rounds", type=int, default=10_000, help="local search round cap")
    p.add_argument("--verify", action="store_true", help="check the output against the oracle")
    p.set_defaults(func=cmd_maximum)

    p = subparsers.add_parser("closure", help="transitive closure")
    _add_io_options(p)
    p.set_defaults(func=cmd_closure)

    p = subparsers.add_parser("check", help="transitivity / maximality checks")
    _add_io_options(p)
    p.add_argument("--sub", default=None, help="candidate sub-relation to check for maximality")
    p.set_defaults(func=cmd_check)

    p = subparsers.add_parser("encode", help="emit the max-ones CNF encoding as DIMACS")
    _add_io_options(p)
    p.set_defaults(func=cmd_encode)

    p = subparsers.add_parser("experiment", help="random orientation balance experiment")
    _add_io_options(p, needs_input=False)
    p.add_argument("--n", type=int, required=True, help="vertex count of the bipartite graph")
    p.add_argument("--m", type=int, required=True, help="edge count of the bipartite graph")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--k", type=int, default=None, help="cut size threshold (default: ceil(m/4))")
    p.add_argument("--delta", type=float, default=0.5, help="balance tolerance")
    p.add_argument("--cprime", type=float, default=1.0, help="upper bound coefficient")
    p.set_defaults(func=cmd_experiment)

    p = subparsers.add_parser("bench", help="wall-time scaling of the two maximal routes")
    _add_io_options(p, needs_input=False)
    p.add_argument("--sizes", default="500,1000,2000", help="comma-separated ascending sizes")
    p.add_argument("--density", choices=("sparse", "dense"), default="sparse")
    p.add_argument("--repetitions", type=int, default=3)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "experiment" and args.trials < 1:
        parser.error("--trials must be at least 1")
    if args.command == "bench" and args.repetitions < 1:
        parser.error("--repetitions must be at least 1")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
