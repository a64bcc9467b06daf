"""Unit tests for the netlist IR and gate library."""

import pytest

from repro.netlist.gates import (
    GATE_ARITY,
    GateType,
    bench_name,
    check_arity,
    evaluate_gate,
)
from repro.netlist.netlist import NetNamer, Netlist, NetlistError


class TestGateEvaluation:
    def test_and(self):
        assert evaluate_gate(GateType.AND, [1, 1]) == 1
        assert evaluate_gate(GateType.AND, [1, 0]) == 0

    def test_nand(self):
        assert evaluate_gate(GateType.NAND, [1, 1]) == 0
        assert evaluate_gate(GateType.NAND, [0, 1]) == 1

    def test_or(self):
        assert evaluate_gate(GateType.OR, [0, 0]) == 0
        assert evaluate_gate(GateType.OR, [0, 1]) == 1

    def test_nor(self):
        assert evaluate_gate(GateType.NOR, [0, 0]) == 1
        assert evaluate_gate(GateType.NOR, [1, 0]) == 0

    def test_xor_multi_input(self):
        assert evaluate_gate(GateType.XOR, [1, 1, 1]) == 1
        assert evaluate_gate(GateType.XOR, [1, 1, 0]) == 0

    def test_xnor(self):
        assert evaluate_gate(GateType.XNOR, [1, 0]) == 0
        assert evaluate_gate(GateType.XNOR, [1, 1]) == 1

    def test_not_buf(self):
        assert evaluate_gate(GateType.NOT, [0]) == 1
        assert evaluate_gate(GateType.BUF, [1]) == 1

    def test_mux(self):
        # MUX(sel, in0, in1)
        assert evaluate_gate(GateType.MUX, [0, 1, 0]) == 1
        assert evaluate_gate(GateType.MUX, [1, 1, 0]) == 0

    def test_constants(self):
        assert evaluate_gate(GateType.CONST0, []) == 0
        assert evaluate_gate(GateType.CONST1, []) == 1

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            evaluate_gate(GateType.NOT, [0, 1])
        with pytest.raises(ValueError):
            evaluate_gate(GateType.AND, [1])
        with pytest.raises(ValueError):
            evaluate_gate(GateType.MUX, [1, 0])

    def test_arity_table_covers_all_types(self):
        for gtype in GateType:
            assert gtype in GATE_ARITY
            required = GATE_ARITY[gtype]
            check_arity(gtype, 2 if required is None else required)

    def test_bench_name_spelling(self):
        assert bench_name(GateType.BUF) == "BUFF"
        assert bench_name(GateType.NAND) == "NAND"


class TestNetlistConstruction:
    def test_basic_construction(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_gate("y", GateType.AND, ["a", "b"])
        netlist.add_output("y")
        assert netlist.n_gates == 1
        assert netlist.inputs == ["a", "b"]
        assert netlist.outputs == ["y"]

    def test_duplicate_driver_rejected(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_gate("a", GateType.CONST0, [])

    def test_duplicate_dff_rejected(self):
        netlist = Netlist("t")
        netlist.add_dff("q", "d")
        with pytest.raises(NetlistError):
            netlist.add_dff("q", "d2")

    def test_duplicate_output_marker_rejected(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_output("a")
        with pytest.raises(NetlistError):
            netlist.add_output("a")

    def test_duplicate_output_check_follows_set_outputs(self):
        netlist = Netlist("t")
        for net in ("a", "b", "c"):
            netlist.add_input(net)
        netlist.add_output("a")
        netlist.set_outputs(["b", "c"])
        with pytest.raises(NetlistError):
            netlist.add_output("c")
        netlist.add_output("a")  # dropped by set_outputs, so free again
        assert netlist.outputs == ["b", "c", "a"]

    def test_forward_references_allowed(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_gate("y", GateType.NOT, ["z"])  # z defined later
        netlist.add_gate("z", GateType.NOT, ["a"])
        order = [g.output for g in netlist.topological_gates()]
        assert order.index("z") < order.index("y")

    def test_dff_q_nets_order_is_insertion_order(self):
        netlist = Netlist("t")
        netlist.add_dff("q1", "d1")
        netlist.add_dff("q0", "d0")
        assert netlist.dff_q_nets() == ["q1", "q0"]
        assert netlist.dff_d_nets() == ["d1", "d0"]

    def test_combinational_cycle_detected(self):
        netlist = Netlist("t")
        netlist.add_gate("x", GateType.NOT, ["y"])
        netlist.add_gate("y", GateType.NOT, ["x"])
        with pytest.raises(NetlistError):
            netlist.topological_gates()

    def test_cycle_through_dff_is_fine(self):
        netlist = Netlist("t")
        netlist.add_dff("q", "d")
        netlist.add_gate("d", GateType.NOT, ["q"])
        assert len(netlist.topological_gates()) == 1

    def test_stats(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_gate("y", GateType.NOT, ["a"])
        netlist.add_dff("q", "y")
        stats = netlist.stats()
        assert stats["gates"] == 1
        assert stats["dffs"] == 1
        assert stats["gate_NOT"] == 1

    def test_topo_cache_invalidated_by_mutation(self):
        netlist = Netlist("t")
        netlist.add_input("a")
        netlist.add_gate("x", GateType.NOT, ["a"])
        assert len(netlist.topological_gates()) == 1
        netlist.add_gate("y", GateType.NOT, ["x"])
        assert len(netlist.topological_gates()) == 2


class TestCacheInvalidation:
    @staticmethod
    def _base() -> Netlist:
        netlist = Netlist("inv")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_gate("x", GateType.AND, ["a", "b"])
        netlist.add_gate("y", GateType.OR, ["x", "b"])
        netlist.add_output("y")
        return netlist

    def test_mutators_invalidate_topo_cache(self):
        """Every mutator drops the topological order and bumps ``version``."""
        mutations = [
            lambda n: n.add_gate("z", GateType.NOT, ["x"]),
            lambda n: n.add_input("c"),
            lambda n: n.add_output("x"),
            lambda n: n.set_outputs(["x"]),
            lambda n: n.add_dff(q="q0", d="x"),
            lambda n: n.remove_gate("y"),
        ]
        for mutate in mutations:
            netlist = self._base()
            netlist.topological_gates()
            assert netlist._topo_cache is not None
            version = netlist.version
            mutate(netlist)
            assert netlist._topo_cache is None, mutate
            assert netlist.version > version, mutate


class TestNetNamer:
    def test_avoids_existing_nets(self):
        netlist = Netlist("t")
        netlist.add_input("p_0")
        namer = NetNamer(netlist, prefix="p_")
        fresh = namer.fresh()
        assert fresh != "p_0"

    def test_never_repeats(self):
        namer = NetNamer(Netlist("t"), prefix="n")
        names = {namer.fresh() for _ in range(100)}
        assert len(names) == 100
