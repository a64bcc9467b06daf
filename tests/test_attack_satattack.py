"""Tests for the base oracle-guided SAT attack on combinational locks."""

import random

import pytest

from repro.api import resolve_profile
from repro.attack.satattack import IterationRecord, SatAttack, SatAttackConfig
from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.core.modeling import build_combinational_model
from repro.locking.effdyn import lock_with_effdyn
from repro.locking.rll import lock_combinational_rll
from repro.locking.sarlock import lock_with_sarlock
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.netlist.transform import extract_combinational_core
from repro.observability import begin_job_span, end_job_span
from repro.reports.cells import build_table2_lock
from repro.sat.enumerate import enumerate_models
from repro.sat.solver import CdclSolver, SolveResult
from repro.sim.logicsim import CombinationalSimulator


def make_rll_case(seed: int, key_bits: int = 5):
    rng = random.Random(seed)
    config = GeneratorConfig(n_flops=5, n_inputs=5, n_outputs=4)
    netlist = generate_circuit(config, rng, name=f"case{seed}")
    core, _, _ = extract_combinational_core(netlist)
    lock = lock_combinational_rll(core, key_bits=key_bits, rng=rng)
    oracle_sim = CombinationalSimulator(core)
    x_inputs = [n for n in lock.locked.inputs if n not in set(lock.key_inputs)]

    def oracle_fn(x_bits):
        values = oracle_sim.run(dict(zip(x_inputs, x_bits)))
        return [values[n] for n in core.outputs]

    return core, lock, oracle_fn, x_inputs


class TestSatAttackOnRll:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_recovers_functionally_correct_key(self, seed):
        core, lock, oracle_fn, x_inputs = make_rll_case(seed)
        attack = SatAttack(lock.locked, lock.key_inputs, oracle_fn)
        result = attack.run()
        assert result.converged
        assert result.key_candidates, "converged attack must yield candidates"
        # Every surviving candidate must be functionally correct on random
        # patterns (the SAT attack guarantee).
        rng = random.Random(seed + 999)
        locked_sim = CombinationalSimulator(lock.locked)
        for candidate in result.key_candidates[:4]:
            for _ in range(10):
                x_bits = [rng.randrange(2) for _ in x_inputs]
                inputs = dict(zip(x_inputs, x_bits))
                inputs.update(zip(lock.key_inputs, candidate))
                values = locked_sim.run(inputs)
                assert [
                    values[n] for n in lock.locked.outputs
                ] == oracle_fn(x_bits)

    def test_secret_key_among_candidates(self):
        core, lock, oracle_fn, _ = make_rll_case(11)
        result = SatAttack(lock.locked, lock.key_inputs, oracle_fn).run()
        assert list(lock.secret_key) in result.key_candidates

    def test_session_stays_usable_after_enumeration(self):
        # Enumeration blocks candidates through a retractable group, so
        # the public incremental session must still see every candidate
        # after run() returns.
        core, lock, oracle_fn, x_inputs = make_rll_case(13)
        attack = SatAttack(lock.locked, lock.key_inputs, oracle_fn)
        result = attack.run()
        assert result.converged and result.key_candidates

        def current_key():
            # Any key consistent with every constraint, miter disabled.
            solved = attack.solver.solve(assumptions=[-attack.act_var])
            assert solved.satisfiable is True
            return attack.solver.values(attack.key_vars_a)

        key = current_key()
        assert key in result.key_candidates
        # The session must also survive further growth: stamping another
        # constraint copy after run() (variable ids must not collide with
        # the enumeration group's activation variable).
        rng = random.Random(77)
        for _ in range(4):
            x_bits = [rng.randrange(2) for _ in x_inputs]
            attack.add_dip_constraint(x_bits, oracle_fn(x_bits))
            assert current_key() in result.key_candidates

    def test_iteration_hook_fires(self):
        core, lock, oracle_fn, _ = make_rll_case(12)
        records: list[IterationRecord] = []
        config = SatAttackConfig(iteration_hook=records.append)
        result = SatAttack(lock.locked, lock.key_inputs, oracle_fn, config).run()
        assert len(records) == result.iterations
        for i, record in enumerate(records, start=1):
            assert record.iteration == i
            assert record.n_clauses > 0

    def test_fixed_key_bits_constrain_candidates(self):
        core, lock, oracle_fn, _ = make_rll_case(13)
        forced = {0: lock.secret_key[0]}
        result = SatAttack(
            lock.locked, lock.key_inputs, oracle_fn, fixed_key_bits=forced
        ).run()
        assert result.converged
        for candidate in result.key_candidates:
            assert candidate[0] == lock.secret_key[0]

    def test_span_counts_match_solver_stats(self):
        core, lock, oracle_fn, _ = make_rll_case(15)
        span = begin_job_span("test", "solver-counters")
        try:
            result = SatAttack(lock.locked, lock.key_inputs, oracle_fn).run()
        finally:
            counts = end_job_span(span)["counts"]
        stats = result.solver_stats
        assert stats.propagations > 0
        assert counts["solver_conflicts"] == stats.conflicts
        assert counts["solver_decisions"] == stats.decisions
        assert counts["solver_propagations"] == stats.propagations

    def test_max_iterations_budget(self):
        core, lock, oracle_fn, _ = make_rll_case(14)
        config = SatAttackConfig(max_iterations=0)
        result = SatAttack(lock.locked, lock.key_inputs, oracle_fn, config).run()
        assert not result.converged
        assert result.iterations == 0

    def test_spent_time_budget_starts_no_solve(self):
        # This case converges within the solver's first clock-check
        # interval, so only a check before solve() stops it.
        core, lock, oracle_fn, _ = make_rll_case(1)
        calls = []

        def counting_oracle(x_bits):
            calls.append(x_bits)
            return oracle_fn(x_bits)

        config = SatAttackConfig(timeout_s=0.0)
        attack = SatAttack(lock.locked, lock.key_inputs, counting_oracle, config)
        result = attack.run()
        assert not result.converged
        assert result.iterations == 0
        assert calls == []
        assert attack.solver.stats.solve_calls == 0


class TestSatAttackValidation:
    def test_unknown_key_input_rejected(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_gate("y", GateType.BUF, ["a"])
        netlist.add_output("y")
        with pytest.raises(ValueError):
            SatAttack(netlist, ["nokey"], lambda x: x)

    def test_undriven_net_rejected(self):
        # A floating net is a free variable per miter copy, so two
        # same-key copies could disagree; the attack refuses such input.
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_input("k")
        netlist.add_gate("t1", GateType.XOR, ["a", "k"])
        netlist.add_gate("y", GateType.AND, ["t1", "floating"])
        netlist.add_output("y")
        with pytest.raises(ValueError, match="floating"):
            SatAttack(netlist, ["k"], lambda x: [0])

    def test_wrong_oracle_width_detected(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_input("k")
        netlist.add_gate("y", GateType.XOR, ["a", "k"])
        netlist.add_output("y")
        attack = SatAttack(netlist, ["k"], lambda x: [0, 1])
        with pytest.raises(ValueError):
            attack.run()


class TestKnownTinyLock:
    def test_single_xor_key(self):
        """y = a XOR k locked circuit, oracle says y = a: key must be 0."""
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_input("k")
        netlist.add_gate("y", GateType.XOR, ["a", "k"])
        netlist.add_output("y")
        result = SatAttack(netlist, ["k"], lambda x: [x[0]]).run()
        assert result.converged
        assert result.key_candidates == [[0]]
        assert result.fixed_key_bits == {0: 0}
        assert result.iterations >= 1

    def test_xnor_key(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_input("k")
        netlist.add_gate("y", GateType.XNOR, ["a", "k"])
        netlist.add_output("y")
        result = SatAttack(netlist, ["k"], lambda x: [x[0]]).run()
        assert result.key_candidates == [[1]]

    def test_unconstrained_key_gives_all_candidates(self):
        """A key that never reaches an output leaves the space intact."""
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_input("k")
        netlist.add_gate("dead", GateType.BUF, ["k"])
        netlist.add_gate("y", GateType.BUF, ["a"])
        netlist.add_output("y")
        result = SatAttack(netlist, ["k"], lambda x: [x[0]]).run()
        assert result.converged
        assert result.iterations == 0  # no DIP can exist
        assert sorted(result.key_candidates) == [[0], [1]]
        assert result.fixed_key_bits == {}


class TestKeyDifferenceLemma:
    """The active miter requires K_A != K_B.

    With both key copies assumed equal, unit propagation alone refutes
    the miter: no conflict is needed to show that two copies of one
    circuit under one key agree.
    """

    @staticmethod
    def same_key_miter_conflicts(locked, key_inputs, key):
        attack = SatAttack(locked, key_inputs, lambda x: [])
        same_key = [
            var if bit else -var
            for side in (attack.key_vars_a, attack.key_vars_b)
            for var, bit in zip(side, key)
        ]
        before = attack.solver.stats.conflicts
        result = attack.solver.solve(assumptions=same_key + [attack.act_var])
        assert result.satisfiable is False
        return attack.solver.stats.conflicts - before

    def test_rll_same_key_miter_refuted_without_conflicts(self):
        core, lock, oracle_fn, _ = make_rll_case(1)
        conflicts = self.same_key_miter_conflicts(
            lock.locked, lock.key_inputs, lock.secret_key
        )
        assert conflicts == 0

    def test_effdyn_model_same_key_miter_refuted_without_conflicts(self):
        rng = random.Random(9)
        config = GeneratorConfig(n_flops=10, n_inputs=3, n_outputs=2)
        netlist = generate_circuit(config, rng, name="lemma")
        lock = lock_with_effdyn(netlist, key_bits=5, rng=rng)
        view = lock.public_view()
        model = build_combinational_model(
            netlist, view.spec, view.lfsr_taps, view.lfsr_width
        )
        conflicts = self.same_key_miter_conflicts(
            model.netlist, model.key_inputs, lock.seed
        )
        assert conflicts == 0


def dynunlock_case(benchmark: str, lie_on_first_query: bool = False) -> SatAttack:
    """The first-round attack of a quick Table II cell (seed index 0).

    With ``lie_on_first_query`` the oracle flips the first output bit
    of its first answer.
    """
    profile = resolve_profile("quick")
    netlist, lock, _ = build_table2_lock(profile, benchmark, 0)
    view = lock.public_view()
    model = build_combinational_model(
        netlist, view.spec, view.lfsr_taps, view.lfsr_width
    )
    oracle = lock.make_oracle()
    n_a = len(model.a_inputs)

    def oracle_fn(x_bits):
        response = model.observe(oracle.query(x_bits[:n_a], x_bits[n_a:]))
        if lie_on_first_query and oracle.query_count == 1:
            response[0] ^= 1
        return response

    config = SatAttackConfig(candidate_limit=profile.candidate_limit)
    return SatAttack(model.netlist, model.key_inputs, oracle_fn, config)


def rll_case(seed: int) -> SatAttack:
    core, lock, oracle_fn, _ = make_rll_case(seed, key_bits=8)
    return SatAttack(lock.locked, lock.key_inputs, oracle_fn)


def sarlock_case(seed: int) -> SatAttack:
    rng = random.Random(seed)
    config = GeneratorConfig(n_flops=12, n_inputs=4, n_outputs=3)
    netlist = generate_circuit(config, rng, name=f"sar{seed}")
    lock = lock_with_sarlock(netlist, key_bits=4, rng=rng)
    oracle = lock.make_oracle()
    return SatAttack(lock.locked, lock.key_inputs, oracle.query)


def miter_until_unsat(attack: SatAttack) -> dict:
    """The DIP loop without the uniqueness check, as a reference.

    Miter solves run without a conflict budget until one answers UNSAT;
    every key left is then enumerated with the miter off.
    """
    iterations = 0
    while attack.solver.solve(assumptions=[attack.act_var]).satisfiable:
        dip = attack.solver.values(attack.x_vars)
        attack.add_dip_constraint(dip, list(attack.oracle_fn(dip)))
        iterations += 1
    limit = attack.config.candidate_limit
    candidates = sorted(
        enumerate_models(
            attack.solver,
            attack.key_vars_a,
            limit=limit,
            assumptions=[-attack.act_var],
        )
    )
    exhausted = len(candidates) >= limit
    fixed = {}
    if candidates and not exhausted:
        for index in range(len(attack.key_inputs)):
            if len({candidate[index] for candidate in candidates}) == 1:
                fixed[index] = candidates[0][index]
    return {
        "converged": True,
        "iterations": iterations,
        "key_candidates": candidates,
        "candidates_exhausted": exhausted,
        "fixed_key_bits": fixed,
    }


def outcome(result) -> dict:
    return {
        "converged": result.converged,
        "iterations": result.iterations,
        "key_candidates": sorted(result.key_candidates),
        "candidates_exhausted": result.candidates_exhausted,
        "fixed_key_bits": result.fixed_key_bits,
    }


@pytest.fixture
def miter_answers(monkeypatch):
    """Record (miter active, answer) for every solve while a test runs."""
    answers = []
    real_solve = CdclSolver.solve

    def spy(solver, assumptions=(), **kwargs):
        assumptions = list(assumptions)
        result = real_solve(solver, assumptions, **kwargs)
        answers.append((bool(assumptions) and assumptions[0] > 0, result.satisfiable))
        return result

    monkeypatch.setattr(CdclSolver, "solve", spy)
    return answers


class TestUniquenessCheck:
    """A long miter solve after the first DIP yields to a check for a
    single key left (module docstring, step 3); every outcome stays the
    one that solving the miter to UNSAT gives.
    """

    @pytest.mark.parametrize(
        "make_attack",
        [
            pytest.param(lambda: dynunlock_case("b21"), id="dynunlock-b21"),
            pytest.param(lambda: dynunlock_case("s5378"), id="dynunlock-s5378"),
            pytest.param(lambda: dynunlock_case("s13207"), id="dynunlock-s13207"),
            pytest.param(lambda: rll_case(2), id="rll-2"),
            pytest.param(lambda: rll_case(8), id="rll-8"),
            pytest.param(lambda: sarlock_case(5), id="sarlock-5"),
        ],
    )
    def test_outcome_matches_solving_the_miter_to_unsat(self, make_attack):
        want = miter_until_unsat(make_attack())
        assert outcome(make_attack().run()) == want

    def test_unique_key_converges_without_a_miter_refutation(self, miter_answers):
        result = dynunlock_case("b21").run()
        assert result.converged and result.n_candidates == 1
        assert (True, None) in miter_answers  # the budget ran out
        assert (True, False) not in miter_answers

    def test_indeterminate_check_times_out(self, monkeypatch):
        attack = dynunlock_case("b21")
        attack.config.timeout_s = 3600.0
        real_solve = CdclSolver.solve
        check = -attack.act_var

        def check_runs_out_of_time(solver, assumptions=(), **kwargs):
            assumptions = list(assumptions)
            if assumptions and assumptions[0] == check:
                return SolveResult(satisfiable=None, stats=solver.stats)
            return real_solve(solver, assumptions, **kwargs)

        monkeypatch.setattr(CdclSolver, "solve", check_runs_out_of_time)
        result = attack.run()
        assert result.timed_out and not result.converged
        assert result.key_candidates == []

    def test_no_consistent_key_converges_empty(self, miter_answers):
        result = dynunlock_case("b21", lie_on_first_query=True).run()
        # The check, not a miter refutation, found the constraints UNSAT.
        assert (True, None) in miter_answers
        assert (True, False) not in miter_answers
        want = miter_until_unsat(dynunlock_case("b21", lie_on_first_query=True))
        assert outcome(result) == want
        assert result.converged and result.key_candidates == []
