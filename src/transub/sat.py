"""CNF encoding whose max-ones solutions are maximum transitive subgraphs.

One boolean variable per arc, numbered by row-major arc order, and one clause
per two-arc walk ``(i, k), (k, j)`` whose forced arc ``(i, j)`` is distinct
from both premises.  The walks, in order, come as array chunks of arc indices
from ``relation._composition_walks``, the constraint generator that
``maximum.brute_force_mts`` searches over as well, and each chunk becomes its
clauses directly.  A walk emits ``(x_ij | ~x_ik | ~x_kj)`` when the forced arc
exists in the relation, and the premise-only clause ``(~x_ik | ~x_kj)`` when
it does not (absent arcs are fixed false, which deletes their literals).
Walks through a 2-cycle (``i == j``) are included, so satisfying assignments
decode to transitive sub-relations even in the presence of loops and
2-cycles.

Every emitted clause keeps at least one negative literal, so the all-false
assignment always satisfies the formula.  A relation with more than
``_WALK_BUDGET`` two-arc walks is refused before any walk is enumerated.

``satisfies`` (and with it ``decode_assignment``) and ``max_ones_brute_force``
read a formula through one clause rule, ``_clause_masks``: each clause becomes
the bit masks ``pos`` and ``neg`` of its positive and negative variables (bit
v - 1 for variable v), and an assignment mask violates it exactly when
``mask & (pos | neg) == neg``, the rule by which ``maximum.brute_force_mts``
checks its walks too.  A clause with some variable both ways holds for every
mask and is skipped.  A literal 0, or one whose variable is past
``num_vars``, raises ValueError naming the clause and the literal, in these
and in ``cnf_to_dimacs``, which also refuses a variable with no arc.  The
max-ones search tests all 2^v masks with one masked comparison per clause
and counts true variables per mask by ``relation._subset_sums``, the
doubling that builds the cut table of ``maximum``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import _check_limit
from .relation import (
    Arc, Relation, _composition_walks, _int_objects, _low_bits_first, _subset_sums, _walk_count,
)

MAX_ONES_VAR_BUDGET = 24

# Largest number of two-arc walks ``encode_mts_to_cnf`` encodes.  The clause
# lists and the DIMACS text cost about 255 bytes per walk: ``transub encode``
# on a random loop-free relation with n=250, m=15 700 and 9.84e5 walks peaked
# at 239 MiB RSS (ru_maxrss from os.wait4, started by fork+exec from a small
# launcher) and took 2.0-2.1 s (2-vCPU Xeon VM, numpy 2.4.6).
_WALK_BUDGET = 10**6


@dataclass
class CnfFormula:
    """Clause list over arc-indexed variables with the variable->arc mapping."""

    num_vars: int
    clauses: list[list[int]] = field(default_factory=list)
    var_to_arc: dict[int, Arc] = field(default_factory=dict)


@dataclass(frozen=True)
class Assignment:
    """Truth values, one per variable, index v-1 for variable v."""

    values: tuple[bool, ...]

    def true_count(self) -> int:
        return sum(self.values)


def encode_mts_to_cnf(r: Relation) -> CnfFormula:
    walks, m = _walk_count(r), r.m
    _check_limit(walks, _WALK_BUDGET, "{} two-arc walks exceeds the encoding budget")
    # Literal k is ``literal[m + k]``: one int object per literal, shared by
    # every clause, and built only when there is a walk.
    literal = _int_objects(-m, m + 1) if walks else None
    clauses = []
    for i1, i2, req in _composition_walks(r) if walks else ():
        columns = (literal[m + k].tolist() for k in (req + 1, -1 - i1, -1 - i2))
        clauses.extend([need, one, two] if need else [one, two] for need, one, two in zip(*columns))
    return CnfFormula(m, clauses, dict(enumerate(r.arcs(), 1)))


def cnf_to_dimacs(f: CnfFormula) -> str:
    """Standard CNF text layout, preceded by comments pinning the
    variable->arc mapping.  ValueError for a literal that names no variable
    (``_check_literals``) or a variable that maps to no arc."""
    _check_literals(f)
    try:
        lines = [f"c var {v} = arc {f.var_to_arc[v][0]} {f.var_to_arc[v][1]}"
                 for v in range(1, f.num_vars + 1)]
    except KeyError as exc:
        raise ValueError(f"variable {exc.args[0]} maps to no arc") from None
    lines.append(f"p cnf {f.num_vars} {len(f.clauses)}")
    for clause in f.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def _check_literals(f: CnfFormula) -> None:
    """ValueError naming the first literal, in clause order, that is 0 or
    past ``num_vars``, and its clause; one numpy test over all literals."""
    # An int64 array, or an object array if some literal is past int64.
    lits = np.array(list(chain.from_iterable(f.clauses)))
    bad = np.flatnonzero((lits == 0) | (np.abs(lits) > f.num_vars))
    if len(bad):
        ends = np.cumsum([len(clause) for clause in f.clauses])
        index = int(np.searchsorted(ends, bad[0], side="right"))
        raise ValueError(
            f"clause {index + 1} {f.clauses[index]} has literal {lits[bad[0]]}, "
            f"which names no variable of 1..{f.num_vars}"
        )


def _clause_masks(f: CnfFormula) -> list[tuple[int, int]]:
    """``(pos, neg)`` bit masks of each clause's positive and negative
    variables, skipping clauses that hold a variable both ways."""
    _check_literals(f)
    pairs = []
    for clause in f.clauses:
        bits = [0, 0]  # of the positive, then of the negative literals
        for lit in clause:
            bits[lit < 0] |= 1 << (abs(lit) - 1)
        if not bits[0] & bits[1]:
            pairs.append(tuple(bits))
    return pairs


def satisfies(f: CnfFormula, a: Assignment) -> bool:
    if len(a.values) != f.num_vars:
        raise ValueError(
            f"assignment has {len(a.values)} values, formula has {f.num_vars} variables"
        )
    mask = sum(1 << i for i, value in enumerate(a.values) if value)
    return all(mask & (pos | neg) != neg for pos, neg in _clause_masks(f))


def decode_assignment(r: Relation, f: CnfFormula, a: Assignment) -> Relation:
    """Sub-relation selected by a satisfying assignment; transitive by
    construction of the clause set."""
    if not satisfies(f, a):
        raise ValueError("assignment does not satisfy the formula")
    chosen = [f.var_to_arc[v] for v in range(1, f.num_vars + 1) if a.values[v - 1]]
    return Relation.from_arcs(r.n, chosen)


def max_ones_brute_force(f: CnfFormula) -> tuple[Assignment, int]:
    """Among all satisfying assignments, maximize the number of true
    variables; ties resolved to the lexicographically largest value vector
    (true before false, variable 1 first).  That is the rule of
    ``relation._low_bits_first`` over masks with bit v set for a true
    variable v+1, the one tie-break that ``maximum.brute_force_max_dicut``
    uses too."""
    v = f.num_vars
    _check_limit(v, MAX_ONES_VAR_BUDGET, "{} variables exceeds the enumeration budget")
    masks = np.arange(1 << v, dtype=np.uint32)
    sat = np.ones(masks.shape, dtype=bool)
    for pos, neg in _clause_masks(f):
        sat &= (masks & (pos | neg)) != neg
    if not sat.any():
        raise ValueError("formula is unsatisfiable")
    ones = _subset_sums([1] * v, np.zeros(masks.shape, dtype=np.int8))
    best = int(ones[sat].max())
    winner = _low_bits_first(masks[sat & (ones == best)], v)
    return Assignment(tuple(bool((winner >> shift) & 1) for shift in range(v))), best
