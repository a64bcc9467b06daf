"""Bit-parallel packed evaluation must agree with the scalar reference
everywhere it is used: plain simulation and candidate refinement."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.netlist.transform import extract_combinational_core
from repro.sim.logicsim import (
    BitParallelSimulator,
    CombinationalSimulator,
    broadcast_inputs,
)
from repro.util.bitvec import (
    PACK_WORD_BITS,
    broadcast_bit,
    lane_mask,
    pack_lanes,
    unpack_lanes,
)


def random_core(seed: int, n_flops: int = 5, n_inputs: int = 4, n_outputs: int = 3):
    rng = random.Random(seed)
    config = GeneratorConfig(n_flops=n_flops, n_inputs=n_inputs, n_outputs=n_outputs)
    core, _, _ = extract_combinational_core(
        generate_circuit(config, rng, name="bp")
    )
    return core, rng


class TestPacking:
    def test_roundtrip(self):
        rows = [[1, 0, 1], [0, 0, 1], [1, 1, 0], [0, 1, 1]]
        assert unpack_lanes(pack_lanes(rows), len(rows)) == rows

    def test_empty(self):
        assert pack_lanes([]) == []

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            pack_lanes([[1, 0], [1]])

    def test_broadcast(self):
        assert broadcast_bit(1, 5) == 0b11111
        assert broadcast_bit(0, 5) == 0
        assert lane_mask(0) == 0


class TestAgainstScalarSimulation:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_packed_lanes_match_scalar(self, seed):
        core, rng = random_core(seed)
        scalar = CombinationalSimulator(core)
        packed_sim = BitParallelSimulator(core)
        n_lanes = rng.randint(1, 80)  # deliberately crosses one word
        patterns = [
            {net: rng.randrange(2) for net in core.inputs}
            for _ in range(n_lanes)
        ]
        got = packed_sim.run_patterns(patterns)
        for pattern, outputs in zip(patterns, got):
            assert outputs == scalar.run_outputs(pattern)

    def test_run_packed_all_nets(self):
        core, rng = random_core(11)
        scalar = CombinationalSimulator(core)
        packed_sim = BitParallelSimulator(core)
        patterns = [
            {net: rng.randrange(2) for net in core.inputs} for _ in range(7)
        ]
        packed = {
            net: pack_lanes([[p[net]] for p in patterns])[0]
            for net in core.inputs
        }
        values = packed_sim.run_packed(packed, n_lanes=len(patterns))
        for lane, pattern in enumerate(patterns):
            reference = scalar.run(pattern)
            for net, word in values.items():
                assert (word >> lane) & 1 == reference[net], net

    def test_missing_input_rejected(self):
        core, _ = random_core(3)
        sim = BitParallelSimulator(core)
        with pytest.raises(Exception):
            sim.run_packed({}, n_lanes=1)

    def test_mux_and_constants(self):
        netlist = Netlist("m")
        for net in ("s", "a", "b"):
            netlist.add_input(net)
        netlist.add_gate("y", GateType.MUX, ["s", "a", "b"])
        netlist.add_gate("one", GateType.CONST1, [])
        netlist.add_gate("zero", GateType.CONST0, [])
        for net in ("y", "one", "zero"):
            netlist.add_output(net)
        sim = BitParallelSimulator(netlist)
        # lanes: (s,a,b) over all 8 combinations
        rows = [[(i >> 2) & 1, (i >> 1) & 1, i & 1] for i in range(8)]
        s, a, b = pack_lanes(rows)
        values = sim.run_packed({"s": s, "a": a, "b": b}, n_lanes=8)
        for lane, (sv, av, bv) in enumerate(rows):
            assert (values["y"] >> lane) & 1 == (bv if sv else av)
            assert (values["one"] >> lane) & 1 == 1
            assert (values["zero"] >> lane) & 1 == 0

    def test_broadcast_inputs_helper(self):
        assert broadcast_inputs(["a", "b"], [1, 0], 3) == {"a": 7, "b": 0}


class TestPartialFinalChunk:
    """Batch widths straddling the 64-lane word boundary.

    Regression for the partial-final-word masking: widths 63 and 65
    exercise a lone partial word and a full word followed by a 1-lane
    word in the chunk loop of ``run_patterns``.
    """

    WIDTHS = (PACK_WORD_BITS - 1, PACK_WORD_BITS, PACK_WORD_BITS + 1)

    def test_scalar_path(self):
        core, rng = random_core(21)
        scalar = CombinationalSimulator(core)
        sim = BitParallelSimulator(core)
        for width in self.WIDTHS:
            patterns = [
                {net: rng.randrange(2) for net in core.inputs}
                for _ in range(width)
            ]
            got = sim.run_patterns(patterns)
            assert len(got) == width
            for pattern, outputs in zip(patterns, got):
                assert outputs == scalar.run_outputs(pattern)
