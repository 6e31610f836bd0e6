"""Transitive subgraph toolkit for binary relations.

Core objects are immutable: relations as boolean matrices or sorted arc
arrays (whichever they were built from), undirected graphs as edge sets,
partitions as label tuples.  See the CLI module for the command-line surface.
"""

from .errors import BudgetError, ParseError, PreconditionError, TriangleFoundError
from .relation import (
    Arc,
    ArcList,
    DENSE_VERTEX_BUDGET,
    EDGE_LIST_FORMAT,
    MATRIX_FORMAT,
    Relation,
    UndirectedGraph,
    detect_format,
    find_triangle,
    has_path_length_two,
    is_subrelation,
    is_transitive,
    is_triangle_free,
    parse_edge_list,
    parse_matrix,
    parse_relation,
    serialize_edge_list,
    serialize_matrix,
    serialize_relation,
    transitive_closure,
    underlying_graph,
)
from .maximal import (
    MaximalTrace,
    extend_to_maximal,
    is_maximal_transitive,
    maximal_transitive_v1,
    maximal_transitive_v2,
)
from .maximum import (
    DEFAULT_ARC_BUDGET,
    DEFAULT_VERTEX_BUDGET,
    DicutResult,
    VertexPartition,
    brute_force_max_dicut,
    brute_force_mts,
    dicut_as_transitive,
    dicut_size,
    forward_arcs,
    forward_cut_table,
    greedy_bipartition,
    local_search_dicut,
    quarter_approx,
)
from .extremal import (
    BalanceVerdict,
    ExperimentSummary,
    TrialReport,
    balance_verdict,
    check_delta_balanced,
    check_k_delta_balanced,
    mix_seed,
    random_orientation,
    random_triangle_free_graph,
    run_balance_experiment,
    summarize_balance_experiment,
)
from .sat import (
    Assignment,
    CnfFormula,
    MAX_ONES_VAR_BUDGET,
    cnf_to_dimacs,
    decode_assignment,
    encode_mts_to_cnf,
    max_ones_brute_force,
    satisfies,
)
from .bench import BenchConfig, BenchRow, doubling_ratios, random_relation, run_scaling

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
