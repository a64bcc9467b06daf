"""Tests for the CDCL solver: correctness against brute force, classic
hard instances, incrementality, assumptions, and enumeration."""

import itertools
import random
import shutil
from array import array
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import solver as solver_module
from repro.sat.cnf import Cnf
from repro.sat.enumerate import count_models, enumerate_models
from repro.sat.incremental import IncrementalSolver
from repro.sat.solver import CdclSolver, PythonCore, _luby, solver_core

HAS_CC = shutil.which("cc") is not None
needs_native = pytest.mark.skipif(
    not HAS_CC, reason="no C compiler on PATH: the native core is not built"
)


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

    x = [cnf.new_var() for _ in range(bits)]
    y = [cnf.new_var() for _ in range(bits)]
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
        vars_ = [cnf.new_var() for _ in range(n)]
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
    """Exact search counters of five pinned instances.

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

    @staticmethod
    def table2_cell(benchmark):
        # One incremental session: assumptions, clause groups, conflict
        # budgets and seed-candidate enumeration.
        from repro.api import resolve_profile
        from repro.core.dynunlock import DynUnlockConfig, dynunlock
        from repro.opt.pipeline import DEFAULT_LEVEL
        from repro.reports.cells import build_table2_lock

        profile = resolve_profile("quick")
        netlist, lock, _ = build_table2_lock(profile, benchmark, 0)
        return dynunlock(
            netlist,
            lock.public_view(),
            lock.make_oracle(),
            DynUnlockConfig(
                timeout_s=profile.timeout_s,
                candidate_limit=profile.candidate_limit,
                opt_level=DEFAULT_LEVEL,
            ),
        )

    def test_table2_s5378_cell(self):
        # The uniqueness check finds two keys and the miter solve resumes.
        result = self.table2_cell("s5378")
        assert result.n_seed_candidates == 64
        stats = result.sat_result.solver_stats
        assert self.counters(stats) == (572, 7068, 55227, 552, 0, 3)

    def test_table2_b21_cell(self):
        # The uniqueness check proves a single key left.
        result = self.table2_cell("b21")
        assert result.n_seed_candidates == 1
        stats = result.sat_result.solver_stats
        assert self.counters(stats) == (713, 1039, 87212, 712, 0, 4)

    def test_sarlock_dip_copies_over_key_only_logic(self):
        # SARLock's key comparator is key-only logic, and every wrong
        # key costs one DIP, so 31 DIP copies per side stamp over it.
        from repro.attack.satattack import SatAttack
        from repro.bench_suite.generator import GeneratorConfig, generate_circuit
        from repro.locking.sarlock import lock_with_sarlock
        from repro.sat.tseitin import encoding_for

        rng = random.Random(1)
        config = GeneratorConfig(n_flops=12, n_inputs=4, n_outputs=3)
        netlist = generate_circuit(config, rng, name="sar")
        lock = lock_with_sarlock(netlist, key_bits=5, rng=rng)
        attack = SatAttack(lock.locked, lock.key_inputs, lock.make_oracle().query)
        assert encoding_for(attack.locked, lock.key_inputs).prefix_clauses > 0
        result = attack.run()
        assert result.iterations == 31
        assert result.key_candidates == [list(lock.secret_key)]
        assert self.counters(result.solver_stats) == (451, 1700, 37207, 443, 0, 0)


class TestSearchIdentityOnReference(TestSearchIdentity):
    """The same pins on the pure-Python reference core."""

    @pytest.fixture(autouse=True)
    def reference_core(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_core_factory", lambda: PythonCore)


class TestCoreSelection:
    def test_native_core_whenever_cc_is_on_path(self):
        # CI's test, perf and bench jobs run where cc exists, so this
        # pins that they exercise and time the native core.
        expected = "native" if HAS_CC else "python"
        assert solver_core() == expected
        assert CdclSolver()._core.name == expected


@needs_native
class TestNativeBuild:
    def test_build_is_cached_by_source(self, tmp_path, monkeypatch):
        from repro.sat import _native

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        built = _native.build(shutil.which("cc"))
        assert built.parent == tmp_path / "dynunlock-repro"
        assert _native.build(shutil.which("cc")) == built  # cached
        edited = tmp_path / "edited.c"
        edited.write_text(_native.SOURCE.read_text() + "\n/* edit */\n")
        monkeypatch.setattr(_native, "SOURCE", edited)
        assert _native.build(shutil.which("cc")) != built

    def test_unwritable_cache_builds_in_a_temporary_directory(
        self, tmp_path, monkeypatch
    ):
        from repro.sat import _native

        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        built = _native.build(shutil.which("cc"))
        assert built.is_file() and blocker not in built.parents
        shutil.rmtree(built.parent)

    def test_failed_build_raises_with_compiler_output(self, tmp_path, monkeypatch):
        from repro.sat import _native

        broken = tmp_path / "broken.c"
        broken.write_text("int f(void) { return undeclared_name; }\n")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_native, "SOURCE", broken)
        with pytest.raises(RuntimeError, match="undeclared_name"):
            _native.build(shutil.which("cc"))
        assert not list((tmp_path / "dynunlock-repro").iterdir())


class _Alarm(Exception):
    pass


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
class TestInterruptible:
    def test_sigalrm_interrupts_a_long_solve(self):
        # A signal handler that raises (C-c, or SIGTERM through the CLI)
        # can only run when the search returns to the interpreter.
        def raise_alarm(signum, frame):
            raise _Alarm

        solver = CdclSolver(pigeonhole_cnf(10))
        previous = signal.signal(signal.SIGALRM, raise_alarm)
        started = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.2)
            with pytest.raises(_Alarm):
                solver.solve(max_conflicts=150_000)
            elapsed = time.perf_counter() - started
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert elapsed < 1.0
        conflicts = solver.stats.conflicts
        assert conflicts > 0
        assert solver.solve(max_conflicts=10).satisfiable is None
        assert solver.stats.conflicts == conflicts + 10


@needs_native
class TestNativeMatchesReference:
    """The native core against the reference, call by call.

    After every call both solvers must agree on the result, the model,
    the failed-assumption core, the variable count and every counter.
    """

    FIELDS = (
        "conflicts",
        "decisions",
        "propagations",
        "learned",
        "deleted",
        "restarts",
        "solve_calls",
    )

    @pytest.fixture
    def pair(self, monkeypatch):
        from repro.sat._native import NativeCore

        def make(cnf=None, **knobs):
            solvers = []
            for core in (NativeCore, PythonCore):
                with monkeypatch.context() as patch:
                    patch.setattr(solver_module, "_core_factory", lambda: core)
                    solvers.append(IncrementalSolver(cnf, **knobs))
            assert [s._core.name for s in solvers] == ["native", "python"]
            return solvers

        return make

    def same(self, native, reference, call, *args, **kwargs):
        got = getattr(native, call)(*args, **kwargs)
        want = getattr(reference, call)(*args, **kwargs)
        if call == "solve":
            got = (got.satisfiable, got.model, got.core)
            want = (want.satisfiable, want.model, want.core)
        assert got == want, (call, args, kwargs)
        assert self.state(native) == self.state(reference), (call, args, kwargs)
        return got

    def state(self, solver):
        stats = solver.stats
        return tuple(getattr(stats, name) for name in self.FIELDS), solver.n_vars

    def test_random_incremental_sequences(self, pair):
        # Random 3-SAT grown towards the threshold in batches, with small
        # reduce budgets and fast decay to exercise reduction and the
        # activity rescale; conflict budgets stop solves mid-search.
        for seed in range(30):
            rng = random.Random(seed)
            native, reference = pair(
                var_decay=rng.choice([0.5, 0.8, 0.95]),
                restart_base=rng.choice([8, 32, 128]),
                reduce_base=rng.choice([10, 40, 4000]),
            )
            n = rng.randint(100, 150)
            cnf = Cnf(n)
            synced = 0
            for _ in range(rng.randint(5, 10)):
                op = rng.random()
                if op < 0.4:
                    for _ in range(rng.randint(n, 2 * n)):
                        cnf.add_clause(
                            rng.choice([-1, 1]) * var
                            for var in rng.sample(range(1, n + 1), 3)
                        )
                    synced = self.same(native, reference, "absorb", cnf, synced)
                elif op < 0.5:
                    clause = [rng.choice([-1, 1]) * rng.randint(1, n + 4)
                              for _ in range(rng.randint(1, 3))]
                    self.same(native, reference, "add_clause", clause)
                elif op < 0.55:
                    self.same(native, reference, "new_var")
                else:
                    assumptions = [rng.choice([-1, 1]) * rng.randint(1, n)
                                   for _ in range(rng.randint(0, 3))]
                    self.same(
                        native,
                        reference,
                        "solve",
                        assumptions=assumptions,
                        max_conflicts=rng.choice([None, None, 1, 50, 500]),
                    )

    def test_clause_edge_cases_and_timeout(self, pair):
        native, reference = pair(pigeonhole_cnf(7))
        # A zero timeout expires at the first clock check, 64 conflicts in.
        assert self.same(native, reference, "solve", timeout_s=0.0)[0] is None
        assert native.stats.conflicts == 64
        # Tautology, duplicate literal, fresh variables, then a unit whose
        # negation empties a clause: the formula becomes trivially UNSAT.
        for clause in ([1, -1], [2, 2, 3], [-100, 101], [57], [-57], [5, 6]):
            self.same(native, reference, "add_clause", clause)
        assert self.same(native, reference, "solve", [1]) == (False, None, [])

    def test_flat_intake(self, pair):
        # Both cores take a suffix of the CNF's flat buffers: the first
        # absorb, then only the clauses added since, then an empty clause.
        native, reference = pair()
        cnf = Cnf()
        for clause in ([1, -2], [2, 3, -4], [-1, 4]):
            cnf.add_clause(clause)
        synced = self.same(native, reference, "absorb", cnf)
        with pytest.raises(ValueError, match=str(2**31)):
            cnf.add_clause([5, 2**31])
        assert (cnf.n_clauses, cnf.n_vars) == (3, 4)
        for clause in ([4, -5], [-3, 5, 1], [6]):
            cnf.add_clause(clause)
        synced = self.same(native, reference, "absorb", cnf, synced)
        assert synced == 6
        assert self.same(native, reference, "solve", [-6])[0] is False
        assert self.same(native, reference, "solve")[0] is True
        cnf.add_clause([])
        self.same(native, reference, "absorb", cnf, synced)
        assert self.same(native, reference, "solve") == (False, None, [])

    def test_literal_errors(self, pair):
        native, reference = pair()
        for solver_ in (native, reference):
            with pytest.raises(ValueError, match="literal 0"):
                solver_.add_clause([1, 0])
        # Literal codes 2v and 2v+1 must fit the core's 32-bit integers.
        with pytest.raises(ValueError, match="out of range"):
            native.add_clause([1, -(2**30)])
        with pytest.raises(ValueError, match="out of range"):
            native.solve(assumptions=[2**30])
        # The flat intake checks its buffers before the C core reads them.
        with pytest.raises(ValueError, match="lengths"):
            native._core.add_clauses(array("i", [1, 2]), array("i", [3]), 2)
        with pytest.raises(TypeError, match="C ints"):
            native._core.add_clauses(array("q", [1]), array("i", [1]), 1)
        assert native.solve(assumptions=[1]).model[1] == 1

    def test_table2_cell_cnf_dump(self, pair, tmp_path):
        # The DIMACS snapshot CnfDumper writes for the s5378 Table II
        # cell: the final miter query (the UNSAT proof that ends the
        # attack), then key recovery with the miter off.
        from repro.api import resolve_profile
        from repro.attack.satattack import SatAttack
        from repro.core.cnf_dump import CnfDumper
        from repro.core.dynunlock import DynUnlock
        from repro.reports.cells import build_table2_lock

        netlist, lock, _ = build_table2_lock(resolve_profile("quick"), "s5378", 0)
        driver = DynUnlock(netlist, lock.public_view(), lock.make_oracle())
        model = driver._build_model(1)
        attack = SatAttack(
            model.netlist, model.key_inputs, driver._oracle_fn(model, 1)
        )
        attack.config.iteration_hook = CnfDumper(attack, directory=tmp_path)
        attack.run()
        dump = sorted(tmp_path.glob("iteration_*.cnf"))[-1]
        native, reference = pair(Cnf.load(dump))
        act = attack.act_var
        assert self.same(native, reference, "solve", [act])[0] is False
        assert self.same(native, reference, "solve", [-act])[0] is True
        self.same(native, reference, "solve", [act], max_conflicts=5)


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]
