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
from repro.prng.nonlinear import NonlinearPrng
from repro.prng.polynomials import default_taps
from repro.scan.chain import ScanChainSpec, shift_cycle, xor_int
from repro.scan.multichain import MultiChainScanOracle, MultiChainSpec
from repro.scan.oracle import ScanResponse
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


def per_edge_multichain_query(
    netlist, spec, keystream, scan_in, primary_inputs, n_captures, obfuscated
) -> ScanResponse:
    """Reference: restart the keystream and clock every padded shift edge."""
    chains = []
    for chain, length in enumerate(spec.chain_lengths):
        gates = spec.gates_in_chain(chain)
        chains.append(
            (
                ScanChainSpec(length, tuple(pos for _, pos in gates)),
                [key_index for key_index, _ in gates],
            )
        )

    def split(bits):
        offsets = [sum(spec.chain_lengths[:c]) for c in range(spec.n_chains)]
        return [
            list(bits[offset: offset + length])
            for offset, length in zip(offsets, spec.chain_lengths)
        ]

    def shift_all(states, bits, key):
        return [
            shift_cycle(
                chain_spec,
                state,
                bit,
                [key[i] if obfuscated else 0 for i in key_indices],
                xor_int,
            )
            for (chain_spec, key_indices), state, bit in zip(chains, states, bits)
        ]

    keystream.restart()
    sim = SequentialSimulator(netlist)
    patterns = split(scan_in)
    max_len = spec.max_length
    states = [[0] * length for length in spec.chain_lengths]
    for t in range(max_len):
        bits = [
            0 if t < max_len - length else patterns[chain][max_len - 1 - t]
            for chain, length in enumerate(spec.chain_lengths)
        ]
        states = shift_all(states, bits, keystream.next_key())
    sim.set_state_vector([bit for state in states for bit in state])
    inputs = dict(zip(netlist.inputs, primary_inputs))
    primary_outputs: list[int] = []
    for _ in range(n_captures):
        keystream.next_key()
        values = sim.step(inputs)
        primary_outputs = [values[net] for net in netlist.outputs]
    states = split(sim.get_state_vector())
    observed = [[None] * length for length in spec.chain_lengths]
    for chain, state in enumerate(states):
        observed[chain][-1] = state[-1]
    for j in range(max_len - 1):
        states = shift_all(states, [0] * spec.n_chains, keystream.next_key())
        for chain, state in enumerate(states):
            position = len(state) - 2 - j
            if position >= 0:
                observed[chain][position] = state[-1]
    return ScanResponse(
        scan_out=[bit for chain_bits in observed for bit in chain_bits],
        primary_outputs=primary_outputs,
    )


class TestMaskedMultiChainQueries:
    @pytest.mark.parametrize(
        "lengths", [(4, 2, 1), (3, 3, 3), (4, 3)], ids=["4-2-1", "3x3", "4-3"]
    )
    @pytest.mark.parametrize("prng", ["lfsr", "nonlinear"])
    def test_matches_per_edge_reference(self, lengths, prng):
        """Queries with the obfuscation flag toggled between them equal
        the per-edge protocol on a freshly built keystream."""
        rng = random.Random(f"mc-mask/{lengths}/{prng}")
        n_flops = sum(lengths)
        netlist = generate_circuit(
            GeneratorConfig(n_flops=n_flops, n_inputs=3, n_outputs=2),
            rng,
            name="mcmask",
        )
        sites = [
            (chain, position)
            for chain, length in enumerate(lengths)
            for position in range(length - 1)
        ]
        keygates = tuple(rng.sample(sites, min(4, len(sites))))
        spec = MultiChainSpec(chain_lengths=lengths, keygates=keygates)
        width = max(2, spec.n_keygates)
        seed = random_bits(width, rng)
        seed[0] = 1

        def make():
            if prng == "lfsr":
                return Keystream(FibonacciLfsr(width, seed))
            return NonlinearPrng(width, seed)

        oracle = MultiChainScanOracle(netlist, spec, make())
        for _ in range(12):
            oracle.obfuscation_enabled = rng.random() < 0.6
            pattern = random_bits(n_flops, rng)
            pis = random_bits(len(netlist.inputs), rng)
            n_captures = rng.randint(1, 3)
            got = oracle.query(pattern, pis, n_captures=n_captures)
            expected = per_edge_multichain_query(
                netlist,
                spec,
                make(),
                pattern,
                pis,
                n_captures,
                oracle.obfuscation_enabled,
            )
            assert got == expected


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
