"""Command-line surface for the whole package.

Subcommands: maximal, maximum, closure, check, encode, experiment, bench.
Result relations go to --output (default stdout) in the input's format; run
reports go to stderr as single-line records, or as JSON with --json.  Output
is deterministic given (input bytes, flags, seed); wall times, in the run
reports and in the output of ``bench``, are the only nondeterministic fields
and are excluded from any byte-stability guarantee.

Exit statuses: 0 success (all requested checks passed), 1 failed check of
the input (``check``), failed precondition or I/O error, 2 usage error, 3
parse error, 4 enumeration, dense-size, arc, input-size or output budget
exceeded, 5 a result of ``maximal``, ``maximum`` or ``closure`` failed its
own check (indicates an implementation bug).  Those three share one tail:
the result is written and the report emitted before the exit status is
decided.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

# Each handler imports the solvers of its subcommand when it runs, so a
# process loads only the layers it runs, and a patched attribute of a layer
# module is what it calls.  The imports precede the ``_timed`` call, which
# then times the solve alone.
from .errors import BudgetError, ParseError, PreconditionError, _check_limit
from .relation import (
    EDGE_LIST_FORMAT,
    Relation,
    _timed,
    is_subrelation,
    is_transitive,
    has_path_length_two,
    parse_relation,
    serialize_relation,
    transitive_closure,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5

# Each error a subcommand raises: its class, the prefix of its stderr line
# and the exit status.  The order is the match order, so a subclass row
# (the first three extend ValueError) comes before the row of its base.
_ERROR_EXITS = (
    (ParseError, "parse error", EXIT_PARSE),
    (BudgetError, "budget error", EXIT_BUDGET),
    (PreconditionError, "precondition error", EXIT_CHECK_FAILED),
    (ValueError, "error", EXIT_USAGE),
    (OSError, "i/o error", EXIT_CHECK_FAILED),
)

# Most arcs ``closure`` writes as an edge list.  The text is built through a
# string per line: on random edge lists with m=4n the whole process peaked
# at 654 MiB RSS for 3.8e6 closure arcs (n=2000) and 978 MiB for 6.0e6
# (n=2500), about 171 B per arc, so this limit stands near 1.6 GiB.  The
# closure of m=4n at the 10000-vertex header limit is nearly complete,
# about 1e8 arcs.
_CLOSURE_ARC_BUDGET = 10**7

# Most bytes ``_read_text`` reads from one input, checked before the read.
# On seeded n=10000 edge lists the whole process peaked at 562 MiB RSS for
# 48 MB of text (``maximum --mode quarter`` on its matrix route, about 12.3
# B per byte, the most per byte measured) and at 730 MiB for 98 MB (``--mode
# dicut-local``), so this limit stands near 1.4 GiB.  It admits a matrix at
# the 10000-vertex limit (1.0e8 bytes).
_INPUT_BYTE_BUDGET = 125 * 10**6

# Most arcs ``maximum --mode dicut-local`` takes, checked before the local
# search builds its arc view.  The whole process peaked at 879 MiB RSS for
# the 9e6 arcs of an n=3000 matrix, about 100 B per arc past the input, and
# at 430 MiB for an n=2000 edge list of 4e6 arcs, about 113 B per arc, so
# this limit stands near 1.6 GiB.
_LOCAL_SEARCH_ARC_BUDGET = 15 * 10**6


def _kv_line(*head: str, **fields) -> str:
    """One report line: the ``head`` words, then ``key=value`` for each field in order."""
    return " ".join([*head, *(f"{key}={value}" for key, value in fields.items())])


@dataclass
class RunReport:
    command: str
    n: int
    m: int
    result_size: int
    checks: list[tuple[str, bool]]
    wall_time_ns: int

    def as_text(self) -> str:
        checks = ",".join(f"{name}:{'pass' if ok else 'fail'}" for name, ok in self.checks)
        return _kv_line(**{**asdict(self), "checks": checks or "none"})

    def as_json(self) -> dict:
        return {**asdict(self), "checks": [{"name": name, "pass": ok} for name, ok in self.checks]}


def _finite(value):
    """``value`` with each non-finite float spelled as in the text reports
    (``"inf"``, ``"-inf"``, ``"nan"``), since RFC 8259 JSON has no such
    numbers; every other value is returned as it is."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _json_text(document: dict, indent: int | None = None) -> str:
    return json.dumps(_finite(document), indent=indent, allow_nan=False)


def _read_text(path: str) -> str:
    """The UTF-8 text of the file ``path``, or of standard input for ``-``.
    Past ``_INPUT_BYTE_BUDGET`` bytes it exits 4: a file is refused by its
    size before any byte is read, and no input is read past one byte over."""
    if path == "-":
        data = _read_bounded(sys.stdin.buffer)
    else:
        with open(path, "rb") as f:
            _check_input_bytes(os.fstat(f.fileno()).st_size)
            data = _read_bounded(f)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not valid UTF-8 (byte {exc.start}: {exc.reason})") from None


def _read_bounded(stream) -> bytes:
    # In blocks, as one ``read(limit + 1)`` allocates the whole limit up front.
    blocks, left = [], _INPUT_BYTE_BUDGET + 1
    while left and (block := stream.read(min(left, 1 << 20))):
        blocks.append(block)
        left -= len(block)
    _check_input_bytes(_INPUT_BYTE_BUDGET + 1 - left)
    return b"".join(blocks)


def _check_input_bytes(count: int) -> None:
    _check_limit(count, _INPUT_BYTE_BUDGET, "input of at least {} bytes exceeds the input limit")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _emit_report(report: RunReport, as_json: bool) -> None:
    print(_json_text(report.as_json()) if as_json else report.as_text(), file=sys.stderr)


def _load_relation(args) -> tuple[Relation, str]:
    return parse_relation(_read_text(args.input))


def _finish(args, r: Relation, fmt: str, result: Relation, checks, wall: int) -> int:
    """Write ``result`` in the input's format and report the run; a failed
    check of the program's own result exits 5."""
    _write_text(args.output, serialize_relation(result, fmt))
    _emit_report(RunReport(args.command, r.n, r.m, result.m, checks, wall), args.json)
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_VERIFY


def _maximality_verdicts(host: Relation, t: Relation) -> tuple[bool, bool, bool]:
    """(contained, transitive, maximal) of ``t`` in ``host``.  The maximality
    check tests containment and transitivity first, so the two separate
    verdicts are computed only when it rejects its precondition."""
    from .maximal import is_maximal_transitive

    try:
        return True, True, is_maximal_transitive(host, t)
    except PreconditionError:
        return t.n == host.n and is_subrelation(t, host), is_transitive(t), False


def cmd_maximal(args) -> int:
    from .maximal import maximal_transitive_v1, maximal_transitive_v2

    r, fmt = _load_relation(args)
    algorithm = maximal_transitive_v1 if args.algorithm == "v1" else maximal_transitive_v2
    (result, _), wall = _timed(algorithm, r, collect_trace=False)
    checks = []
    if args.verify:
        contained, transitive, maximal = _maximality_verdicts(r, result)
        checks = [("transitive", transitive), ("contained", contained), ("maximal", maximal)]
    return _finish(args, r, fmt, result, checks, wall)


def _maximum_solver(args):
    """The solve of ``maximum --mode``, a function of the relation."""
    from .maximum import (
        brute_force_max_dicut,
        brute_force_mts,
        forward_arcs,
        local_search_dicut,
        quarter_approx,
    )

    if args.mode == "exact":
        return brute_force_mts
    if args.mode == "quarter":
        return quarter_approx
    if args.mode == "dicut-exact":
        return lambda r: forward_arcs(r, brute_force_max_dicut(r).partition)
    return lambda r: forward_arcs(r, local_search_dicut(r, args.seed, args.max_rounds).partition)


def cmd_maximum(args) -> int:
    r, fmt = _load_relation(args)
    if args.mode == "dicut-local":
        _check_limit(r.m, _LOCAL_SEARCH_ARC_BUDGET, "{} arcs exceeds the dicut-local limit")
    result, wall = _timed(_maximum_solver(args), r)
    checks = [("size_ge_quarter", 4 * result.m >= r.m)] if args.mode == "quarter" else []
    if args.verify:
        checks += [("transitive", is_transitive(result)), ("contained", is_subrelation(result, r))]
    return _finish(args, r, fmt, result, checks, wall)


def cmd_closure(args) -> int:
    r, fmt = _load_relation(args)
    result, wall = _timed(transitive_closure, r)
    if fmt == EDGE_LIST_FORMAT:
        _check_limit(result.m, _CLOSURE_ARC_BUDGET, "closure of {} arcs exceeds the edge-list output limit")
    checks = [("transitive", is_transitive(result)), ("contains_input", is_subrelation(r, result))]
    return _finish(args, r, fmt, result, checks, wall)


def _check_verdicts(r: Relation, sub: Relation | None) -> tuple[list[tuple[str, bool]], int]:
    if sub is not None:
        contained, transitive, maximal = _maximality_verdicts(r, sub)
        return [("contained", contained), ("transitive", transitive), ("maximal", maximal)], sub.m
    return [("transitive", is_transitive(r)), ("path_length_two", has_path_length_two(r))], r.m


def cmd_check(args) -> int:
    if args.sub:
        from . import maximal  # loaded before the clock of ``_maximality_verdicts``
    r, _ = _load_relation(args)
    sub = parse_relation(_read_text(args.sub))[0] if args.sub else None
    (checks, size), wall = _timed(_check_verdicts, r, sub)
    _emit_report(RunReport("check", r.n, r.m, size, checks, wall), args.json)
    # path_length_two describes the input; it is no verdict
    ok = all(ok for name, ok in checks if name != "path_length_two")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_encode(args) -> int:
    from .sat import cnf_to_dimacs, encode_mts_to_cnf

    r, _ = _load_relation(args)
    _write_text(args.output, cnf_to_dimacs(encode_mts_to_cnf(r)))
    return EXIT_OK


def cmd_experiment(args) -> int:
    from .extremal import (
        random_triangle_free_graph,
        run_balance_experiment,
        summarize_balance_experiment,
    )
    from .maximum import _require_cut_budget

    _require_cut_budget(args.n)  # before the graph is drawn, at about 300 B per edge
    graph = random_triangle_free_graph(args.n, args.m, args.seed)
    k = args.k if args.k is not None else max(1, -(-args.m // 4))
    reports = run_balance_experiment(graph, args.trials, k, args.delta, args.seed, args.cprime)
    summary = summarize_balance_experiment(reports, k, args.delta, args.cprime)
    if args.json:
        document = {
            "command": "experiment",
            "n": graph.n,
            "m": graph.m,
            "trials": [asdict(rep) for rep in reports],
            "summary": asdict(summary),
        }
        text = _json_text(document, indent=2)
    else:
        lines = [_kv_line("trial", **asdict(rep)) for rep in reports]
        text = "\n".join([*lines, _kv_line("summary", **asdict(summary))])
    _write_text(args.output, text + "\n")
    return EXIT_OK


def cmd_bench(args) -> int:
    from .bench import BenchConfig, doubling_ratios, run_scaling

    sizes = tuple(int(tok) for tok in args.sizes.split(","))
    config = BenchConfig(
        sizes=sizes, density=args.density, repetitions=args.repetitions, seed=args.seed
    )
    rows = run_scaling(config)
    doubling = doubling_ratios(rows)
    if args.json:
        document = {
            "command": "bench",
            "density": config.density,
            "repetitions": config.repetitions,
            "rows": [asdict(row) for row in rows],
            "doubling": [
                {"n": a, "n2": b, "v1_ratio": r1, "v2_ratio": r2} for a, b, r1, r2 in doubling
            ],
        }
        text = _json_text(document, indent=2)
    else:
        lines = []
        for row in rows:
            speedup = row.v1_median_ns / row.v2_median_ns if row.v2_median_ns else float("inf")
            lines.append(_kv_line("bench", **asdict(row), speedup=f"{speedup:.2f}"))
        for a, b, r1, r2 in doubling:
            lines.append(
                _kv_line("doubling", n=f"{a}->{b}", v1_ratio=f"{r1:.2f}", v2_ratio=f"{r2:.2f}")
            )
        text = "\n".join(lines)
    _write_text(args.output, text + "\n")
    return EXIT_OK


def _add_io_options(sub, needs_input=True):
    if needs_input:
        sub.add_argument("--input", required=True, help="input relation file ('-' for stdin)")
    sub.add_argument("--output", default=None, help="output path (default: stdout)")
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
    p.add_argument("--seed", type=int, default=0, help="local search seed (default 0)")
    p.add_argument("--max-rounds", type=int, default=10_000, help="local search round cap")
    p.add_argument("--verify", action="store_true", help="check the output against the oracle")
    p.set_defaults(func=cmd_maximum)

    p = subparsers.add_parser("closure", help="transitive closure")
    _add_io_options(p)
    p.set_defaults(func=cmd_closure)

    p = subparsers.add_parser("check", help="transitivity / maximality checks", description=(
        "Check the input for transitivity, or --sub for maximality inside it. Only the run "
        "report is written, to stderr: --output is accepted and never written."))
    _add_io_options(p)
    p.add_argument("--sub", default=None, help="candidate sub-relation to check for maximality")
    p.set_defaults(func=cmd_check)

    p = subparsers.add_parser("encode", help="emit the max-ones CNF encoding as DIMACS")
    _add_io_options(p)
    p.set_defaults(func=cmd_encode)

    p = subparsers.add_parser("experiment", help="random orientation balance experiment")
    _add_io_options(p, needs_input=False)
    p.add_argument("--seed", type=int, default=0, help="graph and orientation seed (default 0)")
    p.add_argument("--n", type=int, required=True, help="vertex count of the bipartite graph")
    p.add_argument("--m", type=int, required=True, help="edge count of the bipartite graph")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--k", type=int, default=None, help="cut size threshold (default: ceil(m/4))")
    p.add_argument("--delta", type=float, default=0.5, help="balance tolerance")
    p.add_argument("--cprime", type=float, default=1.0, help="upper bound coefficient")
    p.set_defaults(func=cmd_experiment)

    p = subparsers.add_parser("bench", help="wall-time scaling of the two maximal routes")
    _add_io_options(p, needs_input=False)
    p.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
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
    except tuple(cls for cls, _, _ in _ERROR_EXITS) as exc:
        prefix, status = next((p, s) for cls, p, s in _ERROR_EXITS if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return status


if __name__ == "__main__":
    sys.exit(main())
