"""Tests for the combinational and sequential simulators."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.bench_suite.iscas import s27_netlist
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist, NetlistError
from repro.sim.logicsim import CombinationalSimulator, evaluate, evaluate_many
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
