"""Tests for structural netlist transforms."""

import random

import pytest

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.bench_suite.iscas import s27_netlist
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist, NetlistError
from repro.netlist.transform import (
    copy_netlist,
    copy_with_prefix,
    extract_combinational_core,
    strip_outputs,
)
from repro.netlist.validate import validate_netlist
from repro.sim.logicsim import evaluate
from repro.sim.seqsim import SequentialSimulator
from repro.util.bitvec import random_bits


class TestCopy:
    def test_prefix_applies_to_all_nets(self):
        copied = copy_with_prefix(s27_netlist(), "X/")
        assert all(net.startswith("X/") for net in copied.inputs)
        assert all(net.startswith("X/") for net in copied.gates)
        assert all(net.startswith("X/") for net in copied.dffs)
        validate_netlist(copied)

    def test_copy_is_independent(self):
        original = s27_netlist()
        clone = copy_netlist(original)
        clone.add_input("extra")
        assert "extra" not in original.inputs


class TestExtractCombinationalCore:
    def test_core_has_no_flops(self):
        core, ppi, ppo = extract_combinational_core(s27_netlist())
        assert core.n_dffs == 0
        assert len(ppi) == 3
        assert len(ppo) == 3
        validate_netlist(core)

    def test_core_agrees_with_sequential_step(self):
        """One functional clock == core evaluation with ppi = state."""
        netlist = s27_netlist()
        core, ppi_nets, ppo_nets = extract_combinational_core(netlist)
        rng = random.Random(11)
        for _ in range(20):
            state = random_bits(3, rng)
            pis = random_bits(4, rng)

            sim = SequentialSimulator(netlist)
            sim.set_state_vector(state)
            pre_edge = sim.step(dict(zip(netlist.inputs, pis)))
            expected_next = sim.get_state_vector()
            expected_outs = [pre_edge[net] for net in netlist.outputs]

            inputs = dict(zip(netlist.inputs, pis))
            inputs.update(zip(ppi_nets, state))
            values = evaluate(core, inputs)
            assert [values[net] for net in ppo_nets] == expected_next
            assert [values[net] for net in netlist.outputs] == expected_outs

    def test_core_agreement_on_synthetic_circuit(self):
        config = GeneratorConfig(n_flops=12, n_inputs=5, n_outputs=4)
        netlist = generate_circuit(config, random.Random(3), name="syn")
        core, ppi_nets, ppo_nets = extract_combinational_core(netlist)
        rng = random.Random(4)
        for _ in range(10):
            state = random_bits(12, rng)
            pis = random_bits(5, rng)
            sim = SequentialSimulator(netlist)
            sim.set_state_vector(state)
            sim.step(dict(zip(netlist.inputs, pis)))
            inputs = dict(zip(netlist.inputs, pis))
            inputs.update(zip(ppi_nets, state))
            values = evaluate(core, inputs)
            assert [values[net] for net in ppo_nets] == sim.get_state_vector()


class TestStripOutputs:
    def test_keeps_subset(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_gate("x", GateType.NOT, ["a"])
        netlist.add_gate("y", GateType.BUF, ["a"])
        netlist.add_output("x")
        netlist.add_output("y")
        stripped = strip_outputs(netlist, ["y"])
        assert stripped.outputs == ["y"]

    def test_rejects_non_output(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            strip_outputs(netlist, ["a"])
