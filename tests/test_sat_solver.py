"""Tests for the CDCL solver: correctness against brute force, classic
hard instances, incrementality, assumptions, and enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat.cnf import Cnf
from repro.sat.enumerate import count_models, enumerate_models
from repro.sat.solver import CdclSolver, _luby


def brute_force_satisfiable(cnf: Cnf) -> bool:
    for bits in itertools.product([0, 1], repeat=cnf.n_vars):
        assignment = [0] + list(bits)
        if cnf.evaluate(assignment):
            return True
    return False


def random_cnf(rng: random.Random, n_vars: int, n_clauses: int, width: int = 3) -> Cnf:
    cnf = Cnf(n_vars)
    for _ in range(n_clauses):
        clause_vars = rng.sample(range(1, n_vars + 1), min(width, n_vars))
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in clause_vars])
    return cnf


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert CdclSolver().solve().satisfiable is True

    def test_unit_clause(self):
        solver = CdclSolver()
        solver.add_clause([3])
        result = solver.solve()
        assert result.satisfiable is True
        assert result.model[3] == 1

    def test_contradictory_units(self):
        solver = CdclSolver()
        solver.add_clause([1])
        assert solver.add_clause([-1]) is False
        assert solver.solve().satisfiable is False

    def test_tautology_ignored(self):
        solver = CdclSolver()
        solver.add_clause([1, -1])
        assert solver.solve().satisfiable is True

    def test_duplicate_literals_collapse(self):
        solver = CdclSolver()
        solver.add_clause([2, 2, 2])
        result = solver.solve()
        assert result.model[2] == 1

    def test_simple_implication_chain(self):
        solver = CdclSolver()
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.add_clause([-2, 3])
        result = solver.solve()
        assert result.model[1] == result.model[2] == result.model[3] == 1

    def test_model_satisfies_formula(self):
        rng = random.Random(0)
        cnf = random_cnf(rng, 20, 60)
        result = CdclSolver(cnf).solve()
        if result.satisfiable:
            assert cnf.evaluate(result.model)


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_3sat_agrees_with_brute_force(self, seed):
        rng = random.Random(seed)
        n_vars = rng.randint(3, 9)
        n_clauses = rng.randint(1, 35)
        cnf = random_cnf(rng, n_vars, n_clauses)
        expected = brute_force_satisfiable(cnf)
        result = CdclSolver(cnf).solve()
        assert result.satisfiable is expected
        if expected:
            assert cnf.evaluate(result.model)


def pigeonhole_cnf(holes: int) -> Cnf:
    """PHP(holes+1, holes): classically UNSAT and resolution-hard."""
    pigeons = holes + 1
    cnf = Cnf()
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[(p, h)] = cnf.new_var()
    for p in range(pigeons):
        cnf.add_clause([var[(p, h)] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[(p1, h)], -var[(p2, h)]])
    return cnf


def multiplier_miter(bits: int) -> Cnf:
    """``x*y != y*x`` over two ripple-carry array multipliers (UNSAT)."""
    cnf = Cnf()

    def and_gate(a, b):
        out = cnf.new_var()
        cnf.add_clause([-out, a])
        cnf.add_clause([-out, b])
        cnf.add_clause([out, -a, -b])
        return out

    def or_gate(a, b):
        out = cnf.new_var()
        cnf.add_clause([out, -a])
        cnf.add_clause([out, -b])
        cnf.add_clause([-out, a, b])
        return out

    def xor_gate(a, b):
        out = cnf.new_var()
        cnf.add_clause([-out, a, b])
        cnf.add_clause([-out, -a, -b])
        cnf.add_clause([out, -a, b])
        cnf.add_clause([out, a, -b])
        return out

    def multiply(x, y):
        rows = [[and_gate(xi, yj) for xi in x] for yj in y]
        acc = rows[0] + [None] * bits
        for j in range(1, bits):
            carry = None
            for i, b in enumerate(rows[j]):
                a = acc[i + j]
                if a is None:  # top bit of the row: half adder
                    acc[i + j], carry = xor_gate(b, carry), and_gate(b, carry)
                elif carry is None:  # bottom bit of the row: half adder
                    acc[i + j], carry = xor_gate(a, b), and_gate(a, b)
                else:
                    half = xor_gate(a, b)
                    acc[i + j], carry = (
                        xor_gate(half, carry),
                        or_gate(and_gate(a, b), and_gate(half, carry)),
                    )
            acc[j + bits] = carry
        return acc

    x, y = cnf.new_vars(bits), cnf.new_vars(bits)
    cnf.add_clause([xor_gate(a, b) for a, b in zip(multiply(x, y), multiply(y, x))])
    return cnf


class TestHardInstances:
    @pytest.mark.parametrize("holes", [2, 3, 4, 5])
    def test_pigeonhole_unsat(self, holes):
        result = CdclSolver(pigeonhole_cnf(holes)).solve()
        assert result.satisfiable is False

    def test_xor_chain_unsat(self):
        """x1^x2=1, x2^x3=1, ..., closing the cycle inconsistently."""
        cnf = Cnf()
        n = 10
        vars_ = cnf.new_vars(n)
        for i in range(n):
            a, b = vars_[i], vars_[(i + 1) % n]
            parity = 1 if i < n - 1 else 0  # odd cycle sum -> UNSAT
            if parity:
                cnf.add_clause([a, b])
                cnf.add_clause([-a, -b])
            else:
                cnf.add_clause([a, -b])
                cnf.add_clause([-a, b])
        # Sum of parities around the cycle is odd => unsatisfiable.
        assert CdclSolver(cnf).solve().satisfiable is False


class TestAssumptions:
    def test_assumption_forces_value(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        result = solver.solve(assumptions=[-1])
        assert result.satisfiable is True
        assert result.model[2] == 1

    def test_conflicting_assumptions(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve(assumptions=[-1, -2]).satisfiable is False
        # Solver remains usable and the formula is still satisfiable.
        assert solver.solve().satisfiable is True

    def test_assumption_contradicting_unit(self):
        solver = CdclSolver()
        solver.add_clause([5])
        assert solver.solve(assumptions=[-5]).satisfiable is False
        assert solver.solve(assumptions=[5]).satisfiable is True


class TestIncremental:
    def test_adding_clauses_between_solves(self):
        solver = CdclSolver()
        solver.add_clause([1, 2])
        assert solver.solve().satisfiable is True
        solver.add_clause([-1])
        result = solver.solve()
        assert result.satisfiable is True
        assert result.model[2] == 1
        solver.add_clause([-2])
        assert solver.solve().satisfiable is False

    def test_narrowing_to_unsat_then_stays_unsat(self):
        solver = CdclSolver()
        solver.add_clause([1])
        solver.add_clause([-1, 2])
        solver.add_clause([-2])
        assert solver.solve().satisfiable is False
        assert solver.solve().satisfiable is False


class TestBudgets:
    def test_max_conflicts_returns_unknown(self):
        result = CdclSolver(pigeonhole_cnf(7)).solve(max_conflicts=5)
        assert result.satisfiable is None

    def test_solver_usable_after_budget_exhaustion(self):
        solver = CdclSolver(pigeonhole_cnf(5))
        assert solver.solve(max_conflicts=2).satisfiable is None
        assert solver.solve().satisfiable is False


class TestEnumeration:
    def test_enumerate_all_projections(self):
        solver = CdclSolver()
        a, b, c = (solver.new_var() for _ in range(3))
        solver.add_clause([a, b])  # c is free
        models = list(enumerate_models(solver, [a, b]))
        assert sorted(tuple(m) for m in models) == [(0, 1), (1, 0), (1, 1)]

    def test_enumerate_respects_limit(self):
        solver = CdclSolver()
        for _ in range(4):
            solver.new_var()
        models = list(enumerate_models(solver, [1, 2, 3, 4], limit=5))
        assert len(models) == 5

    def test_count_models(self):
        solver = CdclSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([-a, -b])
        assert count_models(solver, [a, b]) == 3

    def test_enumeration_with_assumptions(self):
        solver = CdclSolver()
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        models = list(enumerate_models(solver, [a, b], assumptions=[-a]))
        assert models == [[0, 1]]


class TestSearchIdentity:
    """Exact search counters of three pinned instances.

    Every decision depends on watch-list order, clause literal order,
    VSIDS float arithmetic and the lazy heap's stale entries, so a
    change that keeps the search keeps these numbers exactly.  A change
    that means to alter the search records new ones.
    """

    @staticmethod
    def counters(stats):
        return (
            stats.conflicts,
            stats.decisions,
            stats.propagations,
            stats.learned,
            stats.deleted,
            stats.restarts,
        )

    def test_pigeonhole_through_rescale_and_reduction(self):
        # var_decay=0.5 crosses the 1e100 activity rescale twice and
        # reduce_base=50 runs the learned-clause reduction.
        solver = CdclSolver(pigeonhole_cnf(6), var_decay=0.5, reduce_base=50)
        assert solver.solve().satisfiable is False
        assert self.counters(solver.stats) == (994, 1204, 11952, 988, 26, 5)

    def test_multiplier_miter_through_rescale_with_stale_heap(self):
        # 504 variables cross one activity rescale, after which
        # variables whose heap entries all went stale stay out
        # of the heap until bumped again, so a heap rebuilt at the
        # rescale, one that re-admits such variables on backtrack, or a
        # rescale at another point changes these numbers where the
        # pigeonhole instance does not.
        solver = CdclSolver(multiplier_miter(7), var_decay=0.8)
        assert solver.solve(max_conflicts=1300).satisfiable is None
        assert self.counters(solver.stats) == (1300, 1887, 136236, 1299, 0, 6)

    def test_table2_s5378_cell(self):
        # One incremental session: assumptions, clause groups and
        # seed-candidate enumeration.
        from repro.api import resolve_profile
        from repro.core.dynunlock import DynUnlockConfig, dynunlock
        from repro.opt.pipeline import DEFAULT_LEVEL
        from repro.reports.cells import build_table2_lock

        profile = resolve_profile("quick")
        netlist, lock, _ = build_table2_lock(profile, "s5378", 0)
        result = dynunlock(
            netlist,
            lock.public_view(),
            lock.make_oracle(),
            DynUnlockConfig(
                timeout_s=profile.timeout_s,
                candidate_limit=profile.candidate_limit,
                opt_level=DEFAULT_LEVEL,
            ),
        )
        assert result.n_seed_candidates == 64
        stats = result.sat_result.solver_stats
        assert self.counters(stats) == (982, 8158, 80990, 965, 0, 5)


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]
