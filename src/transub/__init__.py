"""Transitive subgraph toolkit for binary relations.

Core objects are immutable: relations as boolean matrices or sorted arc
arrays (whichever they were built from), undirected graphs as edge sets,
partitions as label tuples.  See the CLI module for the command-line surface.

Every public name is importable from here, but its module loads on first
access (PEP 562), so a process pays only for the layers it uses.
"""

import importlib

# Each submodule and the public names it defines.
_MODULES = {
    "errors": ("BudgetError", "ParseError", "PreconditionError", "TriangleFoundError"),
    "relation": (
        "Arc", "ArcList", "DENSE_VERTEX_BUDGET", "EDGE_LIST_FORMAT", "MATRIX_FORMAT",
        "Relation", "UndirectedGraph", "detect_format", "find_triangle", "has_path_length_two",
        "is_subrelation", "is_transitive", "is_triangle_free", "parse_edge_list",
        "parse_matrix", "parse_relation", "serialize_edge_list", "serialize_matrix",
        "serialize_relation", "transitive_closure", "underlying_graph",
    ),
    "maximal": (
        "MaximalTrace", "extend_to_maximal", "is_maximal_transitive", "maximal_transitive_v1",
        "maximal_transitive_v2",
    ),
    "maximum": (
        "DEFAULT_ARC_BUDGET", "DEFAULT_VERTEX_BUDGET", "DicutResult", "VertexPartition",
        "brute_force_max_dicut", "brute_force_mts", "dicut_as_transitive", "dicut_size",
        "forward_arcs", "forward_cut_table", "greedy_bipartition", "local_search_dicut",
        "quarter_approx",
    ),
    "extremal": (
        "BalanceVerdict", "ExperimentSummary", "TrialReport", "balance_verdict",
        "check_delta_balanced", "check_k_delta_balanced", "mix_seed", "random_orientation",
        "random_triangle_free_graph", "run_balance_experiment", "summarize_balance_experiment",
    ),
    "sat": (
        "Assignment", "CnfFormula", "MAX_ONES_VAR_BUDGET", "cnf_to_dimacs", "decode_assignment",
        "encode_mts_to_cnf", "max_ones_brute_force", "satisfies",
    ),
    "bench": ("BenchConfig", "BenchRow", "doubling_ratios", "random_relation", "run_scaling"),
}
# Public name -> the submodule that defines it; a submodule's own name maps to itself.
_EXPORTS = {name: module for module, names in _MODULES.items() for name in (module, *names)}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
