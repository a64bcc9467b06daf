"""Tests for the stuck-at fault model, fault simulator and SAT ATPG."""

import random

import pytest

from repro.atpg.atpg import generate_test, generate_test_set
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import StuckAtFault, enumerate_faults
from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.bench_suite.iscas import s27_netlist
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist, NetlistError
from repro.netlist.transform import extract_combinational_core


def and_gate() -> Netlist:
    netlist = Netlist("and")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_gate("y", GateType.AND, ["a", "b"])
    netlist.add_output("y")
    return netlist


class TestFaultModel:
    def test_bad_stuck_value(self):
        with pytest.raises(ValueError):
            StuckAtFault("x", 2)

    def test_str(self):
        assert str(StuckAtFault("n1", 0)) == "n1/SA0"

    def test_enumeration_covers_both_polarities(self):
        faults = list(enumerate_faults(and_gate()))
        assert len(faults) == 6  # (a, b, y) x (SA0, SA1)
        assert StuckAtFault("y", 1) in faults

    def test_enumeration_without_inputs(self):
        faults = list(enumerate_faults(and_gate(), include_inputs=False))
        assert len(faults) == 2


class TestFaultSimulator:
    def test_detection_on_and_gate(self):
        sim = FaultSimulator(and_gate())
        # Pattern (1,1) detects y/SA0.
        assert sim.detects({"a": 1, "b": 1}, StuckAtFault("y", 0))
        # Pattern (0,0) does not detect y/SA0 (output already 0).
        assert not sim.detects({"a": 0, "b": 0}, StuckAtFault("y", 0))
        # Input fault a/SA1 needs a=0, b=1.
        assert sim.detects({"a": 0, "b": 1}, StuckAtFault("a", 1))
        assert not sim.detects({"a": 0, "b": 0}, StuckAtFault("a", 1))

    def test_sequential_rejected(self):
        with pytest.raises(NetlistError):
            FaultSimulator(s27_netlist())


class TestSatAtpg:
    def test_generates_detecting_pattern(self):
        netlist = and_gate()
        fault = StuckAtFault("y", 0)
        pattern = generate_test(netlist, fault)
        assert pattern == {"a": 1, "b": 1}

    def test_input_fault(self):
        netlist = and_gate()
        pattern = generate_test(netlist, StuckAtFault("a", 1))
        assert pattern == {"a": 0, "b": 1}

    def test_untestable_fault_returns_none(self):
        # y = a OR (a AND b): the AND output stuck-at-0 is masked... build
        # a genuinely redundant node: y = a OR (a AND b) -> (a AND b)/SA0
        # is undetectable because y == a whenever the AND matters.
        netlist = Netlist("red")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_gate("ab", GateType.AND, ["a", "b"])
        netlist.add_gate("y", GateType.OR, ["a", "ab"])
        netlist.add_output("y")
        assert generate_test(netlist, StuckAtFault("ab", 0)) is None

    def test_sequential_rejected(self):
        with pytest.raises(NetlistError):
            generate_test(s27_netlist(), StuckAtFault("G10", 0))

    def test_unknown_site_rejected(self):
        with pytest.raises(NetlistError):
            generate_test(and_gate(), StuckAtFault("zzz", 0))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generated_patterns_verified_by_fault_sim(self, seed):
        """Every ATPG pattern must actually detect its target fault."""
        rng = random.Random(seed)
        config = GeneratorConfig(n_flops=5, n_inputs=4, n_outputs=3)
        core, _, _ = extract_combinational_core(
            generate_circuit(config, rng, name=f"atpg{seed}")
        )
        sim = FaultSimulator(core)
        faults = list(enumerate_faults(core))[:30]
        for fault in faults:
            pattern = generate_test(core, fault)
            if pattern is not None:
                assert sim.detects(pattern, fault)

    def test_generate_test_set_coverage(self):
        rng = random.Random(9)
        config = GeneratorConfig(n_flops=4, n_inputs=4, n_outputs=3)
        core, _, _ = extract_combinational_core(
            generate_circuit(config, rng, name="set")
        )
        faults = list(enumerate_faults(core))[:40]
        result = generate_test_set(core, faults)
        assert result.coverage > 0.5
        assert len(result.detected) + len(result.untestable) + len(
            result.aborted
        ) == len(faults)
        # Patterns from the set must jointly cover all detected faults.
        sim = FaultSimulator(core)
        assert all(
            any(sim.detects(pattern, fault) for pattern in result.patterns)
            for fault in result.detected
        )
