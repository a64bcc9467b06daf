"""Tests for the multi-chain scan extension: spec, oracle, model, attack."""

import random

import pytest

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.core.multichain import (
    build_multichain_model,
    derive_multichain_crossings,
    dynunlock_multichain,
)
from repro.locking.eff import ConstantKeystream
from repro.prng.lfsr import FibonacciLfsr, Keystream
from repro.prng.polynomials import default_taps
from repro.scan.multichain import MultiChainScanOracle, MultiChainSpec
from repro.sim.logicsim import CombinationalSimulator
from repro.sim.seqsim import SequentialSimulator
from repro.util.bitvec import random_bits


def make_case(seed: int, n_flops: int = 9, n_chains: int = 3, n_gates: int = 4):
    rng = random.Random(seed)
    config = GeneratorConfig(n_flops=n_flops, n_inputs=3, n_outputs=2)
    netlist = generate_circuit(config, rng, name=f"mc{seed}")
    spec = MultiChainSpec.balanced(n_flops, n_chains)
    # Scatter key gates over all chains.
    sites = [
        (chain, position)
        for chain in range(spec.n_chains)
        for position in range(spec.chain_lengths[chain] - 1)
    ]
    keygates = tuple(sorted(rng.sample(sites, min(n_gates, len(sites)))))
    spec = MultiChainSpec(chain_lengths=spec.chain_lengths, keygates=keygates)
    width = max(2, spec.n_keygates)
    taps = default_taps(width)
    seed_bits = random_bits(width, rng)
    while not any(seed_bits):
        seed_bits = random_bits(width, rng)
    keystream = Keystream(
        FibonacciLfsr(width=width, seed_bits=seed_bits, taps=taps)
    )
    oracle = MultiChainScanOracle(netlist, spec, keystream)
    return netlist, spec, taps, width, seed_bits, oracle, rng


class TestMultiChainSpec:
    def test_balanced_split(self):
        spec = MultiChainSpec.balanced(10, 3)
        assert spec.chain_lengths == (4, 3, 3)
        assert spec.n_flops == 10
        assert spec.max_length == 4

    def test_flop_index_roundtrip(self):
        spec = MultiChainSpec.balanced(10, 3)
        for flop in range(10):
            chain, position = spec.chain_of(flop)
            assert spec.flop_index(chain, position) == flop

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            MultiChainSpec(chain_lengths=())
        with pytest.raises(ValueError):
            MultiChainSpec(chain_lengths=(3,), keygates=((0, 2),))
        with pytest.raises(ValueError):
            MultiChainSpec(chain_lengths=(3,), keygates=((1, 0),))
        with pytest.raises(ValueError):
            MultiChainSpec(chain_lengths=(3, 3), keygates=((0, 0), (0, 0)))
        with pytest.raises(ValueError):
            MultiChainSpec.balanced(4, 5)

    def test_gates_in_chain(self):
        spec = MultiChainSpec(
            chain_lengths=(4, 4), keygates=((1, 2), (0, 0), (1, 0))
        )
        assert spec.gates_in_chain(0) == [(1, 0)]
        assert spec.gates_in_chain(1) == [(2, 0), (0, 2)]


class TestMultiChainOracle:
    def test_transparent_with_zero_keys(self):
        """Zero keystream: load/capture/unload equals a plain step."""
        rng = random.Random(1)
        config = GeneratorConfig(n_flops=8, n_inputs=3, n_outputs=2)
        netlist = generate_circuit(config, rng, name="mcz")
        spec = MultiChainSpec.balanced(8, 3, keygates=((0, 0), (1, 1)))
        oracle = MultiChainScanOracle(netlist, spec, ConstantKeystream([0, 0]))
        for _ in range(6):
            pattern = random_bits(8, rng)
            pis = random_bits(3, rng)
            response = oracle.query(pattern, pis)
            sim = SequentialSimulator(netlist)
            sim.set_state_vector(pattern)
            values = sim.step(dict(zip(netlist.inputs, pis)))
            assert response.scan_out == sim.get_state_vector()
            assert response.primary_outputs == [
                values[n] for n in netlist.outputs
            ]

    def test_unequal_chain_lengths_transparent(self):
        rng = random.Random(2)
        config = GeneratorConfig(n_flops=7, n_inputs=2, n_outputs=2)
        netlist = generate_circuit(config, rng, name="mcu")
        spec = MultiChainSpec(chain_lengths=(4, 2, 1))
        oracle = MultiChainScanOracle(netlist, spec, ConstantKeystream([0]))
        pattern = random_bits(7, rng)
        response = oracle.query(pattern)
        sim = SequentialSimulator(netlist)
        sim.set_state_vector(pattern)
        sim.step({net: 0 for net in netlist.inputs})
        assert response.scan_out == sim.get_state_vector()

    def test_queries_repeatable(self):
        netlist, spec, taps, width, seed_bits, oracle, rng = make_case(3)
        pattern = random_bits(netlist.n_dffs, rng)
        assert oracle.query(pattern).scan_out == oracle.query(pattern).scan_out

    def test_scrambling_active(self):
        netlist, spec, taps, width, seed_bits, oracle, rng = make_case(4)
        diffs = 0
        for _ in range(6):
            pattern = random_bits(netlist.n_dffs, rng)
            locked = oracle.query(pattern).scan_out
            oracle.obfuscation_enabled = False
            clean = oracle.query(pattern).scan_out
            oracle.obfuscation_enabled = True
            diffs += locked != clean
        assert diffs > 0


class TestMultiChainModel:
    @pytest.mark.parametrize("trial", range(6))
    def test_model_matches_oracle(self, trial):
        netlist, spec, taps, width, seed_bits, oracle, rng = make_case(
            100 + trial,
            n_flops=rng_flops(trial),
            n_chains=2 + trial % 3,
        )
        model = build_multichain_model(netlist, spec, taps, width)
        sim = CombinationalSimulator(model.netlist)
        for _ in range(6):
            pattern = random_bits(netlist.n_dffs, rng)
            pis = random_bits(len(netlist.inputs), rng)
            response = oracle.query(pattern, pis)
            inputs = dict(zip(model.a_inputs, pattern))
            inputs.update(zip(model.pi_inputs, pis))
            inputs.update(zip(model.key_inputs, seed_bits))
            values = sim.run(inputs)
            assert [values[n] for n in model.b_outputs] == response.scan_out
            assert [
                values[n] for n in model.po_outputs
            ] == response.primary_outputs

    def test_single_chain_reduces_to_base_case(self):
        """A 1-chain MultiChainSpec must equal the single-chain crossings."""
        from repro.core.algorithm1 import (
            shift_in_crossings_closed_form,
            shift_out_crossings_closed_form,
        )
        from repro.scan.chain import ScanChainSpec

        single = ScanChainSpec(n_flops=6, keygate_positions=(0, 2, 4))
        multi = MultiChainSpec(
            chain_lengths=(6,), keygates=((0, 0), (0, 2), (0, 4))
        )
        mc_in, mc_out = derive_multichain_crossings(multi)
        assert mc_in == shift_in_crossings_closed_form(single)
        assert mc_out == shift_out_crossings_closed_form(single)


def rng_flops(trial: int) -> int:
    return 7 + (trial * 3) % 8


class TestMultiChainAttack:
    @pytest.mark.parametrize("trial", range(3))
    def test_seed_recovery(self, trial):
        netlist, spec, taps, width, seed_bits, oracle, rng = make_case(
            200 + trial, n_flops=10, n_chains=3, n_gates=5
        )
        result = dynunlock_multichain(
            netlist, spec, taps, width, oracle, timeout_s=300
        )
        assert result.success
        assert seed_bits in result.key_candidates
