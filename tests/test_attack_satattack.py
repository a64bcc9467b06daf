"""Tests for the base oracle-guided SAT attack on combinational locks."""

import random

import pytest

from repro.attack.satattack import IterationRecord, SatAttack, SatAttackConfig
from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.core.modeling import build_combinational_model
from repro.locking.effdyn import lock_with_effdyn
from repro.locking.rll import lock_combinational_rll
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.netlist.transform import extract_combinational_core
from repro.observability import begin_job_span, end_job_span
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
        key = attack.current_key()
        assert key is not None
        assert key in result.key_candidates
        # The session must also survive further growth: stamping another
        # constraint copy after run() (variable ids must not collide with
        # the enumeration group's activation variable).
        rng = random.Random(77)
        for _ in range(4):
            x_bits = [rng.randrange(2) for _ in x_inputs]
            attack.add_dip_constraint(x_bits, oracle_fn(x_bits))
            key = attack.current_key()
            assert key is not None
            assert key in result.key_candidates

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
