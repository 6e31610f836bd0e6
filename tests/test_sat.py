import itertools
import random
import re

import pytest
from hypothesis import given, settings

from helpers import (
    all_relations,
    cnf_formulas,
    oracle_is_transitive,
    oracle_max_ones_brute_force,
    oracle_mts_clauses,
    oracle_satisfies,
    random_digraph,
    relations,
)
from transub import sat
from transub import (
    Assignment,
    BudgetError,
    CnfFormula,
    Relation,
    brute_force_mts,
    cnf_to_dimacs,
    decode_assignment,
    encode_mts_to_cnf,
    is_transitive,
    max_ones_brute_force,
    satisfies,
)


def rel(n, arcs):
    return Relation.from_arcs(n, arcs)


PATH = rel(3, [(1, 2), (2, 3)])


class TestEncoding:
    def test_path(self):
        f = encode_mts_to_cnf(PATH)
        assert f.num_vars == 2
        assert f.clauses == [[-1, -2]]
        assert f.var_to_arc == {1: (1, 2), 2: (2, 3)}

    def test_transitive_clauses_keep_positive_literal(self):
        t = rel(3, [(1, 2), (2, 3), (1, 3)])
        f = encode_mts_to_cnf(t)
        assert f.num_vars == 3
        assert f.clauses == [[2, -1, -3]]  # x13 | ~x12 | ~x23
        all_true = Assignment((True,) * 3)
        assert satisfies(f, all_true)

    def test_empty(self):
        f = encode_mts_to_cnf(rel(2, []))
        assert f.num_vars == 0 and f.clauses == []

    def test_two_cycle_constraints(self):
        f = encode_mts_to_cnf(rel(2, [(1, 2), (2, 1)]))
        assert f.clauses == [[-1, -2], [-2, -1]]

    def test_two_cycle_with_loop_keeps_positive_literal(self):
        f = encode_mts_to_cnf(rel(2, [(1, 1), (1, 2), (2, 1)]))
        # vars: 1=(1,1), 2=(1,2), 3=(2,1); walk 1->2->1 forces the loop
        assert [1, -2, -3] in f.clauses
        assert [-3, -2] in f.clauses  # walk 2->1->2 forbids, loop (2,2) absent

    def test_every_clause_has_a_negative_literal(self):
        rng = random.Random(13)
        for _ in range(50):
            r = random_digraph(rng, rng.randint(1, 6), 0.5, loops=True)
            f = encode_mts_to_cnf(r)
            assert all(any(lit < 0 for lit in clause) for clause in f.clauses)
            # hence the all-false assignment always satisfies
            empty = decode_assignment(r, f, Assignment((False,) * f.num_vars))
            assert empty.m == 0

    def test_clauses_match_cell_scan_oracle_n3_loops(self, suite_n3_loops):
        # order-sensitive: DIMACS bytes depend on clause and literal order
        for r in suite_n3_loops:
            assert encode_mts_to_cnf(r).clauses == oracle_mts_clauses(r)

    @given(relations(max_n=7))
    def test_clauses_match_cell_scan_oracle(self, r):
        assert encode_mts_to_cnf(r).clauses == oracle_mts_clauses(r)

    def test_variable_arc_bijection(self):
        rng = random.Random(29)
        for _ in range(20):
            r = random_digraph(rng, rng.randint(1, 6), 0.5, loops=True)
            f = encode_mts_to_cnf(r)
            assert sorted(f.var_to_arc.values()) == r.arcs()
            assert sorted(f.var_to_arc) == list(range(1, f.num_vars + 1))
            assert all(
                1 <= abs(lit) <= f.num_vars for clause in f.clauses for lit in clause
            )


def star(k):
    """A hub with k in-arcs and k out-arcs: k^2 two-arc walks, all through the hub."""
    hub = 2 * k + 1
    return rel(hub, [(i, hub) for i in range(1, k + 1)] + [(hub, k + i) for i in range(1, k + 1)])


class TestWalkBudget:
    def test_refused_before_any_walk_is_enumerated(self, monkeypatch):
        def no_walks(r):
            raise AssertionError("walks enumerated past the budget")

        monkeypatch.setattr(sat, "_composition_walks", no_walks)
        k = 1001
        assert k * k > sat._WALK_BUDGET
        message = f"^{k * k} two-arc walks exceeds the encoding budget of {sat._WALK_BUDGET}$"
        with pytest.raises(BudgetError, match=message):
            encode_mts_to_cnf(star(k))

    def test_the_budget_itself_is_encoded(self, monkeypatch):
        monkeypatch.setattr(sat, "_WALK_BUDGET", 9)
        f = encode_mts_to_cnf(star(3))
        assert len(f.clauses) == 9 and all(len(clause) == 2 for clause in f.clauses)
        with pytest.raises(BudgetError, match="^16 two-arc walks"):
            encode_mts_to_cnf(star(4))


class TestDimacs:
    def test_path_bytes(self):
        expected = (
            "c var 1 = arc 1 2\n"
            "c var 2 = arc 2 3\n"
            "p cnf 2 1\n"
            "-1 -2 0\n"
        )
        assert cnf_to_dimacs(encode_mts_to_cnf(PATH)) == expected

    def test_empty_relation(self):
        assert cnf_to_dimacs(encode_mts_to_cnf(rel(2, []))) == "p cnf 0 0\n"

    def test_byte_stable(self):
        r = random_digraph(random.Random(4), 5, 0.5)
        assert cnf_to_dimacs(encode_mts_to_cnf(r)) == cnf_to_dimacs(encode_mts_to_cnf(r))


class TestDecode:
    def test_transitive_all_true(self):
        t = rel(3, [(1, 2), (2, 3), (1, 3)])
        f = encode_mts_to_cnf(t)
        assert decode_assignment(t, f, Assignment((True,) * 3)) == t

    def test_partial(self):
        f = encode_mts_to_cnf(PATH)
        out = decode_assignment(PATH, f, Assignment((True, False)))
        assert out.arcs() == [(1, 2)]
        assert is_transitive(out)

    def test_rejects_unsatisfying(self):
        f = encode_mts_to_cnf(PATH)
        with pytest.raises(ValueError, match="satisfy"):
            decode_assignment(PATH, f, Assignment((True, True)))

    def test_rejects_length_mismatch(self):
        f = encode_mts_to_cnf(PATH)
        with pytest.raises(ValueError, match="length|values"):
            decode_assignment(PATH, f, Assignment((True,)))


class TestMaxOnes:
    def test_path(self):
        assignment, count = max_ones_brute_force(encode_mts_to_cnf(PATH))
        assert count == 1
        assert assignment.values == (True, False)  # lexicographically largest

    def test_transitive_keeps_everything(self):
        t = rel(3, [(1, 2), (2, 3), (1, 3)])
        _, count = max_ones_brute_force(encode_mts_to_cnf(t))
        assert count == 3

    def test_cycle(self):
        cycle = rel(3, [(1, 2), (2, 3), (3, 1)])
        assignment, count = max_ones_brute_force(encode_mts_to_cnf(cycle))
        assert count == 1
        assert assignment.values == (True, False, False)

    def test_budget(self):
        with pytest.raises(BudgetError, match="24"):
            max_ones_brute_force(CnfFormula(25, [], {}))

    def test_hand_built_unsatisfiable(self):
        with pytest.raises(ValueError, match="unsatisfiable"):
            max_ones_brute_force(CnfFormula(1, [[1], [-1]], {1: (1, 1)}))


class TestSameArcSetAsBranchAndBound:
    """The max-ones optimum decodes to the arc set of ``brute_force_mts``:
    both searches take the lexicographically smallest row-major arc set
    among the maximum ones."""

    @staticmethod
    def check(r):
        f = encode_mts_to_cnf(r)
        assert decode_assignment(r, f, max_ones_brute_force(f)[0]) == brute_force_mts(r)

    def test_small_suites(self, suite_n3_loops, suite_small_loopfree):
        for r in list(suite_n3_loops) + list(suite_small_loopfree):
            self.check(r)

    @settings(deadline=None)
    @given(relations(max_n=4))  # at most 16 arcs
    def test_random_relations(self, r):
        self.check(r)


class TestRoundTripExhaustive:
    def test_soundness_and_completeness_n_le_3(self):
        # soundness: every satisfying assignment decodes to something
        # transitive; completeness: every transitive subset's indicator
        # satisfies the formula
        for n in (1, 2, 3):
            for r in all_relations(n, loops=True):
                f = encode_mts_to_cnf(r)
                arcs = r.arcs()
                for bits in itertools.product((False, True), repeat=f.num_vars):
                    a = Assignment(bits)
                    subset = Relation.from_arcs(
                        n, [arcs[i] for i in range(len(arcs)) if bits[i]]
                    )
                    if satisfies(f, a):
                        assert oracle_is_transitive(subset)
                    if oracle_is_transitive(subset):
                        assert satisfies(f, a)

    def test_equivalence_with_subset_search_random(self):
        rng = random.Random(314)
        for _ in range(200):
            n = rng.randint(1, 6)
            # draw m <= 20 arcs directly so variable counts stay enumerable
            pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            m = rng.randint(0, min(20, len(pairs)))
            r = Relation.from_arcs(n, rng.sample(pairs, m))
            _, count = max_ones_brute_force(encode_mts_to_cnf(r))
            assert count == brute_force_mts(r).m


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of the ValueError
    it raised (``BudgetError`` included)."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


class TestAgainstLiteralOracles:
    """The clause masks against the checks and the search literal by literal."""

    @settings(max_examples=200, deadline=None)
    @given(cnf_formulas())
    def test_max_ones_matches_oracle(self, f):
        assert outcome(max_ones_brute_force, f) == outcome(oracle_max_ones_brute_force, f)

    @settings(deadline=None)
    @given(relations(max_n=5))
    def test_max_ones_matches_oracle_on_encodings(self, r):
        f = encode_mts_to_cnf(r)
        assert outcome(max_ones_brute_force, f) == outcome(oracle_max_ones_brute_force, f)

    @staticmethod
    def check_every_assignment(f):
        for bits in itertools.product((False, True), repeat=f.num_vars):
            a = Assignment(bits)
            assert satisfies(f, a) == oracle_satisfies(f, a)
        short = Assignment((True,) * (f.num_vars + 1))
        assert outcome(satisfies, f, short) == outcome(oracle_satisfies, f, short)

    @settings(deadline=None)
    @given(cnf_formulas(max_vars=8))
    def test_satisfies_matches_oracle_on_every_assignment(self, f):
        self.check_every_assignment(f)

    @settings(deadline=None)
    @given(relations(max_n=3))
    def test_satisfies_matches_oracle_on_encodings(self, r):
        self.check_every_assignment(encode_mts_to_cnf(r))


def no_variable(clause, index, lit, v):
    """The message of a literal that names no variable, as a whole-match pattern."""
    message = f"clause {index} {clause} has literal {lit}, which names no variable of 1..{v}"
    return f"^{re.escape(message)}$"


class TestInvalidLiterals:
    """A literal 0 or past the variable count raises ValueError naming the
    clause and the literal, in every function that reads clauses."""

    def test_literal_zero_in_satisfies(self):
        f = CnfFormula(2, [[0]])
        for bits in itertools.product((False, True), repeat=2):
            with pytest.raises(ValueError, match=no_variable([0], 1, 0, 2)):
                satisfies(f, Assignment(bits))

    def test_literal_zero_in_max_ones(self):
        with pytest.raises(ValueError, match=no_variable([2, 0], 2, 0, 2)):
            max_ones_brute_force(CnfFormula(2, [[1, -2], [2, 0]]))

    @pytest.mark.parametrize("clauses, index, lit", [([[1, 0, 2], [-3]], 1, 0), ([[1], [-3]], 2, -3)])
    def test_literal_naming_no_variable_in_dimacs(self, clauses, index, lit):
        f = CnfFormula(2, clauses, {1: (1, 2), 2: (2, 1)})
        with pytest.raises(ValueError, match=no_variable(clauses[index - 1], index, lit, 2)):
            cnf_to_dimacs(f)

    def test_variable_without_arc_in_dimacs(self):
        with pytest.raises(ValueError, match="^variable 2 maps to no arc$"):
            cnf_to_dimacs(CnfFormula(2, [[1], [-2]], {1: (1, 2)}))

    @pytest.mark.parametrize("lit", [-3, 3, 2**70])
    def test_literal_past_the_variables(self, lit):
        f = CnfFormula(2, [[lit]], {1: (1, 2), 2: (2, 3)})
        message = no_variable([lit], 1, lit, 2)
        with pytest.raises(ValueError, match=message):
            max_ones_brute_force(f)
        with pytest.raises(ValueError, match=message):
            satisfies(f, Assignment((True, True)))
        with pytest.raises(ValueError, match=message):
            decode_assignment(PATH, f, Assignment((True, True)))
