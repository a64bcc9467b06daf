"""The incremental session API: assumption solving must agree with
monolithic solving, learned clauses must persist across calls, clause
groups must activate/retire correctly, and failed-assumption cores must
be genuine cores."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat.cnf import Cnf
from repro.sat.incremental import IncrementalSolver
from repro.sat.solver import CdclSolver


def random_cnf(rng: random.Random, n_vars: int, n_clauses: int, width: int = 3) -> Cnf:
    cnf = Cnf(n_vars)
    for _ in range(n_clauses):
        clause_vars = rng.sample(range(1, n_vars + 1), min(width, n_vars))
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in clause_vars])
    return cnf


def monolithic_satisfiable(cnf: Cnf, assumptions: list[int]) -> bool:
    """Reference: fresh solver on the formula plus assumption units."""
    solver = CdclSolver(cnf)
    for lit in assumptions:
        solver.add_clause([lit])
    return solver.solve().satisfiable is True


class TestAssumptionsAgreeWithMonolithic:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_cnfs(self, seed):
        rng = random.Random(seed)
        n_vars = rng.randint(3, 10)
        cnf = random_cnf(rng, n_vars, rng.randint(1, 40))
        session = IncrementalSolver(cnf)
        # Several assumption sets against ONE session: persistence of the
        # learned-clause database must never change answers.
        for _ in range(4):
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n_vars + 1), rng.randint(0, n_vars))
            ]
            expected = monolithic_satisfiable(cnf, assumptions)
            result = session.solve(assumptions=assumptions)
            assert (result.satisfiable is True) == expected
            if result.satisfiable:
                model = result.model
                for lit in assumptions:
                    assert model[abs(lit)] == (1 if lit > 0 else 0)
                assert cnf.evaluate(model)

    def test_interleaved_clause_addition(self):
        rng = random.Random(7)
        session = IncrementalSolver()
        cnf = Cnf(8)
        for round_ in range(6):
            extra = random_cnf(rng, 8, 6)
            for clause in extra.clauses:
                cnf.add_clause(clause)
                session.add_clause(clause)
            assumptions = [rng.choice([1, -1]) * rng.randint(1, 8)]
            expected = monolithic_satisfiable(cnf, assumptions)
            got = session.solve(assumptions=assumptions).satisfiable
            if got is False and not expected:
                # Session may be globally UNSAT already; both agree.
                continue
            assert (got is True) == expected


def pigeonhole_cnf(holes: int) -> Cnf:
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


class TestLearnedClausePersistence:
    def test_learned_clauses_persist_and_speed_up_repeat_solves(self):
        cnf = pigeonhole_cnf(5)
        session = IncrementalSolver()
        guard = session.new_var()
        shift = guard  # pigeonhole vars come after the guard variable
        for clause in cnf.clauses:
            session.add_clause(
                [lit + shift if lit > 0 else lit - shift for lit in clause],
                group=guard,
            )
        first = session.solve(assumptions=[guard])
        assert first.satisfiable is False
        learned_after_first = session.stats.learned - session.stats.deleted
        conflicts_first = session.stats.conflicts
        assert conflicts_first > 0
        assert learned_after_first > 0

        second = session.solve(assumptions=[guard])
        assert second.satisfiable is False
        # The database was not wiped between calls...
        assert session.stats.learned - session.stats.deleted >= 1
        # ...and the repeat refutation reuses it: strictly less new search
        # than the first proof needed.
        conflicts_second = session.stats.conflicts - conflicts_first
        assert conflicts_second <= conflicts_first

        # Without the group the formula is satisfiable again.
        assert session.solve().satisfiable is True


class TestClauseGroups:
    def test_group_clauses_only_bind_when_active(self):
        session = IncrementalSolver()
        x = session.new_var()
        g = session.new_var()
        session.add_clause([-x], group=g)
        session.add_clause([x])
        assert session.solve(assumptions=[g]).satisfiable is False
        assert session.solve().satisfiable is True

    def test_release_group_retires_clauses_forever(self):
        session = IncrementalSolver()
        x = session.new_var()
        g = session.new_var()
        session.add_clause([-x], group=g)
        session.add_clause([x])
        session.release_group(g)
        assert session.solve(assumptions=[g]).satisfiable is False  # g pinned false
        assert session.solve().satisfiable is True
        # Clauses added to a released group are dropped outright.
        assert session.add_clause([-x], group=g) is True
        assert session.solve().satisfiable is True


class TestFailedAssumptionCores:
    def test_core_is_subset_and_unsat(self):
        session = IncrementalSolver()
        a, b, c, d = (session.new_var() for _ in range(4))
        session.add_clause([-a, b])
        session.add_clause([-b, -c])
        assumptions = [a, c, d]  # a -> b -> not c, so {a, c} conflict
        result = session.solve(assumptions=assumptions)
        assert result.satisfiable is False
        assert result.core is not None
        assert set(result.core) <= set(assumptions)
        assert d not in result.core  # d played no part
        # The core alone refutes: monolithic check.
        probe = CdclSolver()
        probe.add_clause([-a, b])
        probe.add_clause([-b, -c])
        for lit in result.core:
            probe.add_clause([lit])
        assert probe.solve().satisfiable is False

    def test_core_empty_when_formula_itself_unsat(self):
        session = IncrementalSolver()
        session.add_clause([1])
        session.add_clause([-1])
        result = session.solve(assumptions=[2])
        assert result.satisfiable is False
        assert result.core == []

    def test_opposite_assumptions_core(self):
        session = IncrementalSolver()
        v = session.new_var()
        result = session.solve(assumptions=[v, -v])
        assert result.satisfiable is False
        assert set(result.core) == {v, -v}

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_cores_refute(self, seed):
        rng = random.Random(seed)
        n_vars = rng.randint(3, 8)
        cnf = random_cnf(rng, n_vars, rng.randint(5, 30))
        assumptions = [
            v if rng.random() < 0.5 else -v for v in range(1, n_vars + 1)
        ]
        session = IncrementalSolver(cnf)
        result = session.solve(assumptions=assumptions)
        if result.satisfiable is False and result.core:
            assert set(result.core) <= set(assumptions)
            assert not monolithic_satisfiable(cnf, result.core)


class TestModelAccess:
    def test_values_reads_last_model(self):
        session = IncrementalSolver()
        a, b = session.new_var(), session.new_var()
        session.add_clause([a])
        session.add_clause([-a, b])
        assert session.solve().satisfiable is True
        assert session.value(a) == 1
        assert session.values([a, b]) == [1, 1]

    def test_value_raises_without_model(self):
        session = IncrementalSolver()
        with pytest.raises(RuntimeError):
            session.value(1)
        v = session.new_var()
        session.add_clause([v])
        session.add_clause([-v])
        session.solve()
        with pytest.raises(RuntimeError):
            session.value(v)


class TestAbsorb:
    def test_absorb_streams_only_the_suffix(self):
        cnf = Cnf()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, b])
        session = IncrementalSolver()
        synced = session.absorb(cnf)
        assert synced == 1
        assert session.solve().satisfiable is True
        cnf.add_clause([-a])
        cnf.add_clause([-b])
        synced = session.absorb(cnf, already_synced=synced)
        assert synced == 3
        assert session.solve().satisfiable is False
