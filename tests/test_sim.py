"""Tests for the combinational and sequential simulators."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.bench_suite.iscas import s27_netlist
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist, NetlistError
from repro.sim.logicsim import (
    BitParallelSimulator,
    CombinationalSimulator,
    evaluate,
    evaluate_many,
)
from repro.sim.seqsim import SequentialSimulator
from repro.util.bitvec import random_bits


def tiny_circuit() -> Netlist:
    netlist = Netlist("tiny")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_gate("n", GateType.NAND, ["a", "b"])
    netlist.add_gate("y", GateType.XOR, ["n", "a"])
    netlist.add_output("y")
    return netlist


class TestCombinationalEvaluate:
    def test_truth_table(self):
        netlist = tiny_circuit()
        expected = {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 1}
        for (a, b), y in expected.items():
            values = evaluate(netlist, {"a": a, "b": b})
            assert values["y"] == y

    def test_missing_input_rejected(self):
        with pytest.raises(NetlistError):
            evaluate(tiny_circuit(), {"a": 1})

    def test_missing_state_rejected(self):
        with pytest.raises(NetlistError):
            evaluate(s27_netlist(), {"G0": 0, "G1": 0, "G2": 0, "G3": 0})

    def test_non_bit_rejected(self):
        with pytest.raises(NetlistError):
            evaluate(tiny_circuit(), {"a": 2, "b": 0})

    def test_constants(self):
        netlist = Netlist("c")
        netlist.add_gate("one", GateType.CONST1, [])
        netlist.add_gate("zero", GateType.CONST0, [])
        netlist.add_output("one")
        values = evaluate(netlist, {})
        assert values["one"] == 1
        assert values["zero"] == 0


class TestVectorisedEvaluate:
    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_vectorised_matches_scalar(self, seed):
        """The numpy path must agree with the scalar path bit-for-bit."""
        rng = random.Random(seed)
        config = GeneratorConfig(n_flops=6, n_inputs=4, n_outputs=3)
        netlist = generate_circuit(config, rng, name="v")
        sim = CombinationalSimulator(netlist)

        n_patterns = 17
        columns = {
            net: np.array(random_bits(n_patterns, rng), dtype=np.uint8)
            for net in list(netlist.inputs) + list(netlist.dffs)
        }
        vec_values = sim.run_many(columns)
        for p in range(n_patterns):
            scalar = sim.run(
                {net: int(columns[net][p]) for net in netlist.inputs},
                {net: int(columns[net][p]) for net in netlist.dffs},
            )
            for net in netlist.outputs:
                assert int(vec_values[net][p]) == scalar[net]

    def test_missing_column_rejected(self):
        with pytest.raises(NetlistError):
            evaluate_many(tiny_circuit(), {"a": np.zeros(4, dtype=np.uint8)})

    def test_ragged_columns_rejected(self):
        with pytest.raises(NetlistError):
            evaluate_many(
                tiny_circuit(),
                {
                    "a": np.zeros(4, dtype=np.uint8),
                    "b": np.zeros(5, dtype=np.uint8),
                },
            )


class TestSequentialSimulator:
    def test_reset_and_state_access(self):
        sim = SequentialSimulator(s27_netlist())
        assert sim.get_state_vector() == [0, 0, 0]
        sim.set_state_vector([1, 0, 1])
        assert sim.get_state_vector() == [1, 0, 1]
        sim.reset()
        assert sim.get_state_vector() == [0, 0, 0]

    def test_bad_state_vector_length(self):
        sim = SequentialSimulator(s27_netlist())
        with pytest.raises(NetlistError):
            sim.set_state_vector([0, 1])

    def test_bad_state_bit(self):
        sim = SequentialSimulator(s27_netlist())
        with pytest.raises(NetlistError):
            sim.set_state_vector([0, 1, 2])

    def test_step_clocks_all_flops_simultaneously(self):
        """Classic shift-register check: Q values move one stage per edge."""
        netlist = Netlist("sr")
        netlist.add_input("si")
        netlist.add_dff("q0", "si")
        netlist.add_dff("q1", "q0")
        netlist.add_dff("q2", "q1")
        sim = SequentialSimulator(netlist)
        stream = [1, 0, 1, 1]
        seen = []
        for bit in stream:
            sim.step({"si": bit})
            seen.append(sim.get_state_vector())
        assert seen[0] == [1, 0, 0]
        assert seen[1] == [0, 1, 0]
        assert seen[2] == [1, 0, 1]
        assert seen[3] == [1, 1, 0]

    def test_outputs_before_clock(self):
        netlist = Netlist("t")
        netlist.add_input("d")
        netlist.add_dff("q", "d")
        netlist.add_gate("y", GateType.BUF, ["q"])
        netlist.add_output("y")
        sim = SequentialSimulator(netlist)
        # Output reflects current state, not the incoming D value.
        assert sim.outputs({"d": 1}) == [0]
        sim.step({"d": 1})
        assert sim.outputs({"d": 0}) == [1]

    def test_run_collects_trace(self):
        netlist = Netlist("t")
        netlist.add_input("d")
        netlist.add_dff("q", "d")
        netlist.add_gate("y", GateType.BUF, ["q"])
        netlist.add_output("y")
        sim = SequentialSimulator(netlist)
        trace = sim.run([{"d": 1}, {"d": 0}, {"d": 0}])
        assert trace == [[0], [1], [0]]

    def test_s27_functional_behaviour_is_deterministic(self):
        rng = random.Random(5)
        inputs = [dict(zip(s27_netlist().inputs, random_bits(4, rng))) for _ in range(30)]
        t1 = SequentialSimulator(s27_netlist()).run(inputs)
        t2 = SequentialSimulator(s27_netlist()).run(inputs)
        assert t1 == t2


# ----------------------------------------------------------------------
# the lowered gate program against the scalar reference walk
# ----------------------------------------------------------------------
def random_netlist(seed: int, n_inputs: int = 5, n_dffs: int = 4, n_gates: int = 40):
    """A netlist using every gate type, wide chained gates and flip-flops.

    It always holds a 3-input NAND ``nand3`` and a MUX ``mux`` (gates that
    lower to several instructions), which later gates may read.
    """
    rng = random.Random(seed)
    netlist = Netlist(f"rand{seed}")
    nets = [netlist.add_input(f"i{k}") for k in range(n_inputs)]
    nets += [f"q{k}" for k in range(n_dffs)]
    netlist.add_gate("nand3", GateType.NAND, ["i0", "i1", "q0"])
    netlist.add_gate("mux", GateType.MUX, ["i2", "nand3", "q1"])
    nets += ["nand3", "mux"]
    types = list(GateType) * (n_gates // len(GateType) + 1)
    rng.shuffle(types)
    for g, gtype in enumerate(types[:n_gates]):
        if gtype in (GateType.CONST0, GateType.CONST1):
            ins = []
        elif gtype in (GateType.NOT, GateType.BUF):
            ins = [rng.choice(nets)]
        elif gtype is GateType.MUX:
            ins = [rng.choice(nets) for _ in range(3)]
        else:
            ins = [rng.choice(nets) for _ in range(rng.randint(2, 5))]
        netlist.add_gate(f"g{g}", gtype, ins)
        nets.append(f"g{g}")
    gate_nets = nets[n_inputs + n_dffs:]
    for k in range(n_dffs):
        netlist.add_dff(f"q{k}", rng.choice(gate_nets))
    netlist.set_outputs(rng.sample(gate_nets, 4))
    return netlist


def random_assignment(netlist: Netlist, rng: random.Random):
    inputs = {net: rng.randrange(2) for net in netlist.inputs}
    state = {net: rng.randrange(2) for net in netlist.dffs}
    return inputs, state


def packed_assignment(netlist: Netlist, rng: random.Random, n_lanes: int):
    """Random packed words for every free net, plus each lane's scalars."""
    free = list(netlist.inputs) + list(netlist.dffs)
    words = {net: rng.getrandbits(n_lanes) for net in free}
    lanes = [
        (
            {net: (words[net] >> j) & 1 for net in netlist.inputs},
            {net: (words[net] >> j) & 1 for net in netlist.dffs},
        )
        for j in range(n_lanes)
    ]
    return words, lanes


class TestGateProgramMatchesEvaluate:
    SEEDS = range(12)

    def test_every_gate_type_is_exercised(self):
        used = {g.gtype for g in random_netlist(0).gates.values()}
        assert used == set(GateType)
        wide = [g for g in random_netlist(0).gates.values() if len(g.inputs) > 2]
        assert {g.gtype for g in wide} >= {GateType.NAND, GateType.MUX}

    def test_run_matches_evaluate(self):
        rng = random.Random(0)
        for seed in self.SEEDS:
            netlist = random_netlist(seed)
            sim = CombinationalSimulator(netlist)
            for _ in range(8):
                inputs, state = random_assignment(netlist, rng)
                got = sim.run(inputs, state)
                # Same nets, same bits, same order.
                assert list(got.items()) == list(
                    evaluate(netlist, inputs, state).items()
                )
                assert all(type(bit) is int for bit in got.values())

    def test_sequential_step_matches_evaluate(self):
        rng = random.Random(1)
        for seed in self.SEEDS:
            netlist = random_netlist(seed)
            sim = SequentialSimulator(netlist)
            for _ in range(6):
                inputs = {net: rng.randrange(2) for net in netlist.inputs}
                before = dict(sim.state)
                expected = evaluate(netlist, inputs, before)
                assert sim.step(inputs) == expected
                assert sim.state == {
                    q: expected[dff.d] for q, dff in netlist.dffs.items()
                }

    @pytest.mark.parametrize("n_lanes", [1, 64, 130])
    def test_packed_lanes_match_evaluate(self, n_lanes):
        rng = random.Random(n_lanes)
        for seed in self.SEEDS:
            netlist = random_netlist(seed)
            words, lanes = packed_assignment(netlist, rng, n_lanes)
            values = BitParallelSimulator(netlist).run_packed(words, n_lanes)
            for j, (inputs, state) in enumerate(lanes):
                reference = evaluate(netlist, inputs, state)
                assert values.keys() == reference.keys()
                for net, bit in reference.items():
                    assert (values[net] >> j) & 1 == bit, (seed, j, net)
            assert all(word >> n_lanes == 0 for word in values.values())

    def test_run_many_matches_evaluate(self):
        rng = random.Random(2)
        netlist = random_netlist(5)
        n_patterns = 9
        assignments = [random_assignment(netlist, rng) for _ in range(n_patterns)]
        columns = {
            net: np.array(
                [{**inputs, **state}[net] for inputs, state in assignments],
                dtype=np.uint8,
            )
            for net in list(netlist.inputs) + list(netlist.dffs)
        }
        values = CombinationalSimulator(netlist).run_many(columns)
        for p, (inputs, state) in enumerate(assignments):
            for net, bit in evaluate(netlist, inputs, state).items():
                assert int(values[net][p]) == bit, (p, net)


class TestGateProgramFollowsMutation:
    def test_add_gate_after_a_run(self):
        netlist = tiny_circuit()
        sim = CombinationalSimulator(netlist)
        pattern = {"a": 1, "b": 0}
        assert "z" not in sim.run(pattern)
        netlist.add_gate("z", GateType.NOR, ["y", "b", "n"])
        assert sim.run(pattern) == evaluate(netlist, pattern)
        assert "z" in sim.run(pattern)

    def test_set_outputs_after_a_run(self):
        netlist = tiny_circuit()
        sim = CombinationalSimulator(netlist)
        packed = BitParallelSimulator(netlist)
        pattern = {"a": 1, "b": 1}
        assert sim.run_outputs(pattern) == [1]
        assert packed.run_packed_outputs({"a": 1, "b": 1}, 1) == [1]
        netlist.set_outputs(["n", "y"])
        reference = evaluate(netlist, pattern)
        assert sim.run_outputs(pattern) == [reference["n"], reference["y"]]
        assert packed.run_packed_outputs({"a": 1, "b": 1}, 1) == [0, 1]


class TestRunKeepsEvaluateChecks:
    def test_missing_input(self):
        with pytest.raises(NetlistError, match="primary input 'b'"):
            CombinationalSimulator(tiny_circuit()).run({"a": 1})

    def test_missing_state(self):
        sim = CombinationalSimulator(s27_netlist())
        inputs = {"G0": 0, "G1": 0, "G2": 0, "G3": 0}
        with pytest.raises(NetlistError, match="flip-flop"):
            sim.run(inputs)
        with pytest.raises(NetlistError, match="flip-flop"):
            sim.run(inputs, {"G5": 0})

    def test_non_bit_rejected(self):
        sim = CombinationalSimulator(tiny_circuit())
        with pytest.raises(NetlistError, match="0/1"):
            sim.run({"a": 2, "b": 0})
        with pytest.raises(NetlistError, match="0/1"):
            sim.run({"a": [1], "b": 0})

    def test_bit_like_values_become_ints(self):
        sim = CombinationalSimulator(tiny_circuit())
        values = sim.run({"a": True, "b": np.uint8(1)})
        assert values == evaluate(tiny_circuit(), {"a": 1, "b": 1})
        assert all(type(bit) is int for bit in values.values())
