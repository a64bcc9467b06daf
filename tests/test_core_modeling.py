"""Tests for DynUnlock's combinational modeling -- the paper's core step.

The master invariant: evaluating the model with the *true* seed plugged
into its key inputs must reproduce the oracle's scrambled responses
exactly, for every pattern.  This is precisely the property that makes
the SAT attack sound.
"""

import random

import pytest

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.bench_suite.iscas import s27_netlist, s208_like_netlist
from repro.core.algorithm1 import (
    shift_in_crossings_closed_form,
    shift_out_crossings_closed_form,
)
from repro.core.modeling import (
    build_combinational_model,
    derive_shift_in_crossings,
    derive_shift_out_crossings,
)
from repro.locking.dos import lock_with_dos
from repro.locking.eff import lock_with_eff
from repro.locking.effdyn import lock_with_effdyn
from repro.netlist.validate import validate_netlist
from repro.scan.chain import ScanChainSpec
from repro.sim.logicsim import CombinationalSimulator
from repro.util.bitvec import random_bits


def random_spec(rng: random.Random) -> ScanChainSpec:
    n_flops = rng.randint(2, 14)
    max_gates = n_flops - 1
    n_gates = rng.randint(1, max_gates)
    positions = tuple(sorted(rng.sample(range(max_gates), n_gates)))
    return ScanChainSpec(n_flops=n_flops, keygate_positions=positions)


class TestCrossingDerivation:
    @pytest.mark.parametrize("trial", range(25))
    def test_symbolic_matches_closed_form_shift_in(self, trial):
        rng = random.Random(trial)
        spec = random_spec(rng)
        assert derive_shift_in_crossings(spec) == shift_in_crossings_closed_form(
            spec
        )

    @pytest.mark.parametrize("trial", range(25))
    def test_symbolic_matches_closed_form_shift_out(self, trial):
        rng = random.Random(100 + trial)
        spec = random_spec(rng)
        n_captures = rng.randint(1, 3)
        assert derive_shift_out_crossings(
            spec, n_captures=n_captures
        ) == shift_out_crossings_closed_form(spec, n_captures=n_captures)

    def test_fig1_geometry(self):
        """Paper Fig. 1: s208-style chain, gates after flops 1, 2, 5."""
        spec = ScanChainSpec.from_paper_positions(8, [1, 2, 5])
        crossings = derive_shift_in_crossings(spec)
        # Position 0 crosses nothing; the last position crosses all gates.
        assert crossings[0] == frozenset()
        assert len(crossings[7]) == 3

    def test_static_mode_collapses_cycles(self):
        spec = ScanChainSpec(n_flops=5, keygate_positions=(0, 2))
        crossings = derive_shift_in_crossings(spec, mode="static")
        for crossing in crossings:
            for cycle, _ in crossing:
                assert cycle == 0


class TestModelAgainstOracle:
    def check_model_matches_oracle(self, netlist, lock, oracle, mode, n_captures=1):
        model = build_combinational_model(
            netlist,
            spec=lock.spec,
            taps=getattr(lock, "lfsr_taps", None),
            key_bits=(
                len(lock.seed) if hasattr(lock, "seed") else lock.spec.n_keygates
            ),
            mode=mode,
            n_captures=n_captures,
        )
        validate_netlist(model.netlist)
        sim = CombinationalSimulator(model.netlist)
        key_value = list(lock.seed) if hasattr(lock, "seed") else list(
            lock.secret_key
        )
        rng = random.Random(999)
        for _ in range(8):
            pattern = random_bits(netlist.n_dffs, rng)
            pis = random_bits(len(netlist.inputs), rng)
            response = oracle.query(pattern, pis, n_captures=n_captures)
            inputs = dict(zip(model.a_inputs, pattern))
            inputs.update(zip(model.pi_inputs, pis))
            inputs.update(zip(model.key_inputs, key_value))
            values = sim.run(inputs)
            assert [values[n] for n in model.b_outputs] == response.scan_out
            assert [
                values[n] for n in model.po_outputs
            ] == response.primary_outputs

    @pytest.mark.parametrize("trial", range(8))
    def test_dynamic_model_matches_oracle_on_random_circuits(self, trial):
        rng = random.Random(5000 + trial)
        config = GeneratorConfig(
            n_flops=rng.randint(3, 12),
            n_inputs=rng.randint(2, 5),
            n_outputs=rng.randint(1, 3),
        )
        netlist = generate_circuit(config, rng, name=f"m{trial}")
        key_bits = rng.randint(2, min(8, netlist.n_dffs - 1))
        lock = lock_with_effdyn(netlist, key_bits=key_bits, rng=rng)
        self.check_model_matches_oracle(
            netlist, lock, lock.make_oracle(), mode="dynamic"
        )

    def test_dynamic_model_matches_oracle_on_s27(self):
        netlist = s27_netlist()
        lock = lock_with_effdyn(netlist, key_bits=2, rng=random.Random(42))
        self.check_model_matches_oracle(
            netlist, lock, lock.make_oracle(), mode="dynamic"
        )

    def test_dynamic_model_with_two_captures(self):
        netlist = s27_netlist()
        lock = lock_with_effdyn(netlist, key_bits=2, rng=random.Random(43))
        self.check_model_matches_oracle(
            netlist, lock, lock.make_oracle(), mode="dynamic", n_captures=2
        )

    def test_dynamic_model_with_three_captures_synthetic(self):
        rng = random.Random(4242)
        config = GeneratorConfig(n_flops=6, n_inputs=3, n_outputs=2)
        netlist = generate_circuit(config, rng, name="cap3")
        lock = lock_with_effdyn(netlist, key_bits=3, rng=rng)
        self.check_model_matches_oracle(
            netlist, lock, lock.make_oracle(), mode="dynamic", n_captures=3
        )

    def test_static_model_matches_eff_oracle(self):
        rng = random.Random(31)
        config = GeneratorConfig(n_flops=9, n_inputs=4, n_outputs=2)
        netlist = generate_circuit(config, rng, name="st")
        lock = lock_with_eff(netlist, key_bits=4, rng=rng)
        self.check_model_matches_oracle(
            netlist, lock, lock.make_oracle(), mode="static"
        )

    def test_dos_restart_model_matches_dos_oracle(self):
        rng = random.Random(77)
        config = GeneratorConfig(n_flops=8, n_inputs=3, n_outputs=2)
        netlist = generate_circuit(config, rng, name="dos")
        lock = lock_with_dos(netlist, key_bits=4, rng=rng, period_p=1)
        self.check_model_matches_oracle(
            netlist, lock, lock.make_oracle(), mode="dos_restart"
        )

    def test_dos_with_larger_period(self):
        rng = random.Random(78)
        config = GeneratorConfig(n_flops=8, n_inputs=3, n_outputs=2)
        netlist = generate_circuit(config, rng, name="dosp")
        lock = lock_with_dos(netlist, key_bits=4, rng=rng, period_p=5)
        self.check_model_matches_oracle(
            netlist, lock, lock.make_oracle(), mode="dos_restart"
        )

    def test_s208_like_fig1_lock(self):
        """The paper's running example: 8 flops, gates after 1, 2 and 5."""
        netlist = s208_like_netlist()
        rng = random.Random(1)
        lock = lock_with_effdyn(
            netlist, key_bits=3, rng=rng, placement="random"
        )
        object.__setattr__  # silence linters; lock.spec is frozen
        lock = type(lock)(
            netlist=netlist,
            spec=ScanChainSpec.from_paper_positions(8, [1, 2, 5]),
            lfsr_taps=lock.lfsr_taps,
            seed=lock.seed,
            secret_key=lock.secret_key,
        )
        self.check_model_matches_oracle(
            netlist, lock, lock.make_oracle(), mode="dynamic"
        )


class TestEncodingEquivalence:
    @pytest.mark.parametrize("trial", range(4))
    def test_dense_and_unrolled_models_agree(self, trial):
        rng = random.Random(900 + trial)
        config = GeneratorConfig(n_flops=7, n_inputs=3, n_outputs=2)
        netlist = generate_circuit(config, rng, name=f"e{trial}")
        lock = lock_with_effdyn(netlist, key_bits=4, rng=rng)
        dense = build_combinational_model(
            netlist, lock.spec, lock.lfsr_taps, 4, encoding="dense"
        )
        unrolled = build_combinational_model(
            netlist, lock.spec, lock.lfsr_taps, 4, encoding="unrolled"
        )
        sim_d = CombinationalSimulator(dense.netlist)
        sim_u = CombinationalSimulator(unrolled.netlist)
        for _ in range(6):
            pattern = random_bits(7, rng)
            pis = random_bits(3, rng)
            seed = random_bits(4, rng)
            inputs_d = dict(zip(dense.a_inputs, pattern))
            inputs_d.update(zip(dense.pi_inputs, pis))
            inputs_d.update(zip(dense.key_inputs, seed))
            inputs_u = dict(zip(unrolled.a_inputs, pattern))
            inputs_u.update(zip(unrolled.pi_inputs, pis))
            inputs_u.update(zip(unrolled.key_inputs, seed))
            out_d = sim_d.run(inputs_d)
            out_u = sim_u.run(inputs_u)
            assert [out_d[n] for n in dense.b_outputs] == [
                out_u[n] for n in unrolled.b_outputs
            ]


class TestModelValidation:
    def test_wrong_flop_count_rejected(self):
        netlist = s27_netlist()
        with pytest.raises(ValueError):
            build_combinational_model(
                netlist, ScanChainSpec(n_flops=5), (0, 1), 2
            )

    def test_dynamic_mode_requires_taps(self):
        netlist = s27_netlist()
        spec = ScanChainSpec(n_flops=3, keygate_positions=(0,))
        with pytest.raises(ValueError):
            build_combinational_model(netlist, spec, None, 1)

    def test_key_width_must_cover_gates(self):
        netlist = s27_netlist()
        spec = ScanChainSpec(n_flops=3, keygate_positions=(0, 1))
        with pytest.raises(ValueError):
            build_combinational_model(netlist, spec, (0,), 1)

    def test_captures_must_be_positive(self):
        netlist = s27_netlist()
        spec = ScanChainSpec(n_flops=3, keygate_positions=(0,))
        with pytest.raises(ValueError):
            build_combinational_model(netlist, spec, (0,), 1, n_captures=0)

    def test_x_inputs_property_order(self):
        netlist = s27_netlist()
        lock = lock_with_effdyn(netlist, key_bits=2, rng=random.Random(3))
        model = build_combinational_model(
            netlist, lock.spec, lock.lfsr_taps, 2
        )
        non_key = [
            net for net in model.netlist.inputs if net not in set(model.key_inputs)
        ]
        assert model.x_inputs == non_key
