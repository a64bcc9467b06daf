"""Tests for per-iteration CNF dumping and early seed-bit probing."""

import random

from repro.attack.satattack import SatAttack
from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.core.cnf_dump import CnfDumper, probe_fixed_key_bits
from repro.core.modeling import build_combinational_model
from repro.locking.effdyn import lock_with_effdyn
from repro.sat.cnf import Cnf
from repro.sat.solver import CdclSolver


def make_attack(seed: int = 3):
    rng = random.Random(seed)
    config = GeneratorConfig(n_flops=7, n_inputs=3, n_outputs=2)
    netlist = generate_circuit(config, rng, name="dump")
    lock = lock_with_effdyn(netlist, key_bits=4, rng=rng)
    model = build_combinational_model(
        netlist, lock.spec, lock.lfsr_taps, lock.key_bits
    )
    oracle = lock.make_oracle()
    n_a = len(model.a_inputs)

    def oracle_fn(x):
        response = oracle.query(x[:n_a], x[n_a:])
        return list(response.scan_out) + list(response.primary_outputs)

    attack = SatAttack(model.netlist, model.key_inputs, oracle_fn)
    return attack, lock


class TestProbeFixedKeyBits:
    def test_unit_clauses_are_revealed(self):
        solver = CdclSolver()
        k1, k2, k3 = (solver.new_var() for _ in range(3))
        solver.add_clause([k1])
        solver.add_clause([-k2])
        fixed = probe_fixed_key_bits(solver, [k1, k2, k3])
        assert fixed == {0: 1, 1: 0}

    def test_implied_bits_are_revealed(self):
        solver = CdclSolver()
        a, k = solver.new_var(), solver.new_var()
        solver.add_clause([a])
        solver.add_clause([-a, k])  # a -> k
        assert probe_fixed_key_bits(solver, [k]) == {0: 1}

    def test_free_bits_not_reported(self):
        solver = CdclSolver()
        k = solver.new_var()
        assert probe_fixed_key_bits(solver, [k]) == {}


class TestCnfDumper:
    def test_snapshots_collected_in_memory(self):
        attack, lock = make_attack()
        dumper = CnfDumper(attack, directory=None, probe=False)
        attack.config.iteration_hook = dumper
        result = attack.run()
        assert len(dumper.snapshots) == result.iterations
        for snap in dumper.snapshots:
            assert snap.path is None
            assert snap.n_clauses > 0

    def test_snapshots_written_to_disk(self, tmp_path):
        attack, lock = make_attack(seed=4)
        dumper = CnfDumper(attack, directory=tmp_path)
        attack.config.iteration_hook = dumper
        result = attack.run()
        files = sorted(tmp_path.glob("iteration_*.cnf"))
        assert len(files) == result.iterations
        # Snapshots are valid DIMACS and grow monotonically.
        sizes = []
        for path in files:
            cnf = Cnf.load(path)
            sizes.append(cnf.n_clauses)
        assert sizes == sorted(sizes)

    def test_snapshot_holds_carried_seed_bits(self, tmp_path):
        # A restart round carries seed bit 0, here as the complement of
        # the true bit: the attack's solver and the last dumped CNF must
        # both refuse K_A[0] = true bit with the miter off.
        from repro.api import resolve_profile
        from repro.core.dynunlock import DynUnlock
        from repro.reports.cells import build_table2_lock

        netlist, lock, _ = build_table2_lock(resolve_profile("quick"), "s5378", 0)
        unlocker = DynUnlock(netlist, lock.public_view(), lock.make_oracle())
        model = unlocker._build_model(1)
        true_bit = lock.seed[0]
        attack = SatAttack(
            model.netlist,
            model.key_inputs,
            unlocker._oracle_fn(model, 1),
            fixed_key_bits={0: 1 - true_bit},
        )
        dumper = CnfDumper(attack, directory=tmp_path)
        attack.config.iteration_hook = dumper
        attack.run()
        key_a0 = attack.key_vars_a[0]
        assumptions = [-attack.act_var, key_a0 if true_bit else -key_a0]
        assert attack.solver.solve(assumptions).satisfiable is False
        last = dumper.snapshots[-1]
        dumped = Cnf.load(last.path)
        assert dumped.n_clauses == last.n_clauses
        assert CdclSolver(dumped).solve(assumptions).satisfiable is False

    def test_probe_reveals_bits_consistent_with_final_candidates(self):
        attack, lock = make_attack(seed=5)
        dumper = CnfDumper(attack, directory=None, probe=True)
        attack.config.iteration_hook = dumper
        result = attack.run()
        assert result.converged
        if dumper.snapshots:
            last = dumper.snapshots[-1]
            for index, value in last.revealed_bits.items():
                for candidate in result.key_candidates:
                    assert candidate[index] == value
