"""Gate-level netlist substrate.

The netlist IR is deliberately small: named nets, single-output gates from
a fixed primitive library, D flip-flops, primary inputs and outputs.  It is
rich enough to represent the ISCAS-89 / ITC-99 style benchmarks the paper
evaluates, the key-gate-locked variants the defenses produce, and the
unrolled combinational attack models DynUnlock constructs.
"""

from repro.netlist.gates import GateType, evaluate_gate, GATE_ARITY
from repro.netlist.netlist import Gate, Netlist, NetlistError
from repro.netlist.bench_io import parse_bench, write_bench, load_bench_file
from repro.netlist.verilog_io import parse_verilog, write_verilog
from repro.netlist.transform import (
    copy_with_prefix,
    extract_combinational_core,
)
from repro.netlist.validate import validate_netlist

__all__ = [
    "GateType",
    "evaluate_gate",
    "GATE_ARITY",
    "Gate",
    "Netlist",
    "NetlistError",
    "parse_bench",
    "write_bench",
    "load_bench_file",
    "parse_verilog",
    "write_verilog",
    "copy_with_prefix",
    "extract_combinational_core",
    "validate_netlist",
]
