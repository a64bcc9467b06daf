"""Tests for whole-netlist validation."""

import pytest

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist, NetlistError
from repro.netlist.validate import validate_netlist


def valid_netlist() -> Netlist:
    netlist = Netlist("v")
    netlist.add_input("a")
    netlist.add_gate("x", GateType.NOT, ["a"])
    netlist.add_dff("q", "x")
    netlist.add_gate("y", GateType.AND, ["q", "a"])
    netlist.add_output("y")
    return netlist


class TestValidate:
    def test_valid_netlist_report(self):
        report = validate_netlist(valid_netlist())
        assert report["gates"] == 2
        assert report["dffs"] == 1

    def test_undriven_gate_input(self):
        netlist = Netlist("u")
        netlist.add_gate("y", GateType.NOT, ["ghost"])
        netlist.add_output("y")
        with pytest.raises(NetlistError, match="undriven"):
            validate_netlist(netlist)

    def test_undriven_dff_d(self):
        netlist = Netlist("u")
        netlist.add_dff("q", "ghost")
        with pytest.raises(NetlistError, match="undriven"):
            validate_netlist(netlist)

    def test_undriven_output(self):
        netlist = Netlist("u")
        netlist.add_input("a")
        netlist.add_output("nowhere")
        with pytest.raises(NetlistError, match="undriven"):
            validate_netlist(netlist)

    def test_cycle_detected(self):
        netlist = Netlist("c")
        netlist.add_gate("a", GateType.NOT, ["b"])
        netlist.add_gate("b", GateType.NOT, ["a"])
        with pytest.raises(NetlistError, match="cycle"):
            validate_netlist(netlist)
