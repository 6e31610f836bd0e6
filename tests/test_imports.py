"""The package loads each layer module on first use (PEP 562): ``import
transub`` loads none, every public name still resolves, and each CLI
subcommand loads only the layers it runs.  Every check of what a process
loads runs in a fresh interpreter."""

import json
import subprocess
import sys

import pytest

import transub
from transub import cli, maximal

ALL = [
    "Arc", "ArcList", "Assignment", "BalanceVerdict", "BenchConfig", "BenchRow", "BudgetError",
    "CnfFormula", "DEFAULT_ARC_BUDGET", "DEFAULT_VERTEX_BUDGET", "DENSE_VERTEX_BUDGET",
    "DicutResult", "EDGE_LIST_FORMAT", "ExperimentSummary", "MATRIX_FORMAT",
    "MAX_ONES_VAR_BUDGET", "MaximalTrace", "ParseError", "PreconditionError", "Relation",
    "TrialReport", "TriangleFoundError", "UndirectedGraph", "VertexPartition",
    "balance_verdict", "bench", "brute_force_max_dicut", "brute_force_mts",
    "check_delta_balanced", "check_k_delta_balanced", "cnf_to_dimacs", "decode_assignment",
    "detect_format", "dicut_as_transitive", "dicut_size", "doubling_ratios",
    "encode_mts_to_cnf", "errors", "extend_to_maximal", "extremal", "find_triangle",
    "forward_arcs", "forward_cut_table", "greedy_bipartition", "has_path_length_two",
    "is_maximal_transitive", "is_subrelation", "is_transitive", "is_triangle_free",
    "local_search_dicut", "max_ones_brute_force", "maximal", "maximal_transitive_v1",
    "maximal_transitive_v2", "maximum", "mix_seed", "parse_edge_list", "parse_matrix",
    "parse_relation", "quarter_approx", "random_orientation", "random_relation",
    "random_triangle_free_graph", "relation", "run_balance_experiment", "run_scaling", "sat",
    "satisfies", "serialize_edge_list", "serialize_matrix", "serialize_relation",
    "summarize_balance_experiment", "transitive_closure", "underlying_graph",
]

SOLVERS = {"maximal", "maximum", "extremal", "sat"}


def fresh(code: str):
    """The JSON value that ``code``, run in a fresh interpreter, prints last."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_by(code: str) -> set[str]:
    """The ``transub`` submodules loaded after ``code`` runs in a fresh interpreter."""
    return set(fresh(
        f"{code}\nimport json, sys\n"
        "print(json.dumps([m[8:] for m in sys.modules if m.startswith('transub.')]))"
    ))


def loaded_by_cli(argv: list[str]) -> set[str]:
    return loaded_by(f"from transub.cli import main\nassert main({argv!r}) == 0")


def test_import_loads_no_layer():
    assert loaded_by("import transub") == set()


def test_all_is_unchanged():
    assert len(ALL) == 74
    assert sorted(fresh("import json, transub\nprint(json.dumps(transub.__all__))")) == ALL


def test_every_export_resolves_and_star_binds_it():
    missing = fresh(
        "import json, transub\n"
        "names = {}\n"
        "exec('from transub import *', names)\n"
        "print(json.dumps([n for n in transub.__all__ "
        "if n not in names or names[n] is not getattr(transub, n) or n not in dir(transub)]))"
    )
    assert missing == []


def test_unknown_name_is_attribute_error():
    assert fresh(
        "import json, transub\n"
        "try:\n    transub.no_such_name\nexcept AttributeError as exc:\n    print(json.dumps(str(exc)))"
    ) == "module 'transub' has no attribute 'no_such_name'"
    assert "cli" not in transub.__all__ and transub.cli is cli  # a submodule, not an export


def test_noop_check_loads_no_solver(tmp_path):
    path = tmp_path / "noop.txt"
    path.write_text("1 0\n")
    assert not loaded_by_cli(["check", "--input", str(path)]) & SOLVERS


def test_encode_loads_sat_only(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("3 2\n1 2\n2 3\n")
    loaded = loaded_by_cli(["encode", "--input", str(path), "--output", str(tmp_path / "cnf")])
    assert loaded & SOLVERS == {"sat"}


@pytest.mark.parametrize(
    "argv", [["maximal"], ["maximum", "--mode", "quarter"], ["check"], ["closure"]], ids=" ".join
)
def test_timed_subcommands_load_no_bench(tmp_path, argv):
    # The run clock is ``relation._timed``; only ``bench`` loads the harness.
    path = tmp_path / "r.txt"
    path.write_text("3 1\n1 2\n")
    argv = [*argv, "--input", str(path), "--output", str(tmp_path / "out")]
    assert "bench" not in loaded_by_cli(argv)


def test_bench_loads_the_harness(tmp_path):
    argv = ["bench", "--sizes", "4", "--repetitions", "1", "--output", str(tmp_path / "out")]
    assert "bench" in loaded_by_cli(argv)


def test_experiment_loads_no_sat(tmp_path):
    argv = ["experiment", "--n", "6", "--m", "5", "--trials", "2",
            "--output", str(tmp_path / "out")]
    assert loaded_by_cli(argv) & SOLVERS == {"extremal", "maximum"}


def test_handlers_call_the_module_binding(tmp_path, monkeypatch, capsys):
    # A tracer that patches ``transub.maximal`` reaches the CLI: each
    # handler imports its solver when it runs.
    calls = []

    def recorded(r, collect_trace=True):
        calls.append(r.m)
        return original(r, collect_trace)

    original = maximal.maximal_transitive_v2
    monkeypatch.setattr(maximal, "maximal_transitive_v2", recorded)
    path = tmp_path / "r.txt"
    path.write_text("3 2\n1 2\n2 3\n")
    assert cli.main(["maximal", "--input", str(path)]) == 0
    assert calls == [2] and capsys.readouterr().out == "3 1\n1 2\n"
