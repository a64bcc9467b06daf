"""Structural Verilog export/import (subset).

Interop with standard EDA flows: export any netlist (including locked
designs and attack models) as a flat structural Verilog module using
primitive gate instantiations, and re-import the same subset.  The
supported subset is exactly what :class:`repro.netlist.Netlist` can
express: ``and/nand/or/nor/xor/xnor/not/buf`` primitives, a behavioural
2:1 mux via ``assign``, constants via ``1'b0/1'b1`` assigns, and DFFs as
``always @(posedge clk)`` blocks.
"""

from __future__ import annotations

import re

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist, NetlistError

_PRIMITIVES = {
    GateType.AND: "and",
    GateType.NAND: "nand",
    GateType.OR: "or",
    GateType.NOR: "nor",
    GateType.XOR: "xor",
    GateType.XNOR: "xnor",
    GateType.NOT: "not",
    GateType.BUF: "buf",
}
_PRIMITIVE_NAMES = {v: k for k, v in _PRIMITIVES.items()}

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")


def _escape(net: str) -> str:
    """Escape nets that are not plain Verilog identifiers."""
    if _ID_RE.fullmatch(net):
        return net
    return f"\\{net} "  # escaped identifier: backslash + trailing space


def write_verilog(netlist: Netlist) -> str:
    """Serialise a netlist as one flat structural Verilog module.

    A sequential netlist gets one clock input port, ``clk``.
    """
    clock = "clk"
    ports = [_escape(n) for n in netlist.inputs] + [
        _escape(n) for n in netlist.outputs
    ]
    if netlist.dffs:
        ports = [clock] + ports
    lines = [f"// generated by repro from {netlist.name}"]
    lines.append(f"module {netlist.name} ({', '.join(ports)});")
    if netlist.dffs:
        lines.append(f"  input {clock};")
    for net in netlist.inputs:
        lines.append(f"  input {_escape(net)};")
    for net in netlist.outputs:
        lines.append(f"  output {_escape(net)};")

    declared = set(netlist.inputs) | set(netlist.outputs)
    wires = [
        net
        for net in sorted(set(netlist.gates) | set(netlist.dffs))
        if net not in declared
    ]
    for net in wires:
        lines.append(f"  wire {_escape(net)};")
    for q, dff in netlist.dffs.items():
        lines.append(f"  reg {_escape(q)}_ff;")

    instance = 0
    for gate in netlist.gates.values():
        out = _escape(gate.output)
        ins = ", ".join(_escape(n) for n in gate.inputs)
        if gate.gtype in _PRIMITIVES:
            prim = _PRIMITIVES[gate.gtype]
            lines.append(f"  {prim} g{instance} ({out}, {ins});")
        elif gate.gtype is GateType.MUX:
            sel, in0, in1 = (_escape(n) for n in gate.inputs)
            lines.append(f"  assign {out} = {sel} ? {in1} : {in0};")
        elif gate.gtype is GateType.CONST0:
            lines.append(f"  assign {out} = 1'b0;")
        elif gate.gtype is GateType.CONST1:
            lines.append(f"  assign {out} = 1'b1;")
        else:  # pragma: no cover
            raise NetlistError(f"cannot export gate type {gate.gtype}")
        instance += 1

    for q, dff in netlist.dffs.items():
        q_escaped = _escape(q)
        lines.append(
            f"  always @(posedge {clock}) {q_escaped}_ff <= {_escape(dff.d)};"
        )
        lines.append(f"  assign {q_escaped} = {q_escaped}_ff;")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def parse_verilog(text: str) -> Netlist:
    """Parse the subset emitted by :func:`write_verilog`.

    Not a general Verilog frontend: it accepts flat modules with
    primitive instantiations, simple assigns (mux/constant/alias) and
    single-clock ``always @(posedge ...)`` non-blocking DFF assignments.
    """
    module = re.search(r"module\s+([\w$]+)\s*\(", text)
    if not module:
        raise NetlistError("no module declaration found")
    netlist = Netlist(name=module.group(1))

    def unescape(token: str) -> str:
        token = token.strip()
        if token.startswith("\\"):
            return token[1:]
        return token

    clock: str | None = None
    dff_regs: dict[str, str] = {}  # reg name -> D net
    reg_alias: dict[str, str] = {}  # q net -> reg name
    body = text

    for match in re.finditer(r"^\s*input\s+([^;]+);", body, re.M):
        for token in match.group(1).split(","):
            name = unescape(token)
            if clock is None and name == "clk":
                clock = name
                continue
            netlist.add_input(name)
    outputs = []
    for match in re.finditer(r"^\s*output\s+([^;]+);", body, re.M):
        outputs.extend(unescape(t) for t in match.group(1).split(","))

    for match in re.finditer(
        r"^\s*(and|nand|or|nor|xor|xnor|not|buf)\s+[\w$]+\s*\(([^;]+)\);",
        body,
        re.M,
    ):
        gtype = _PRIMITIVE_NAMES[match.group(1)]
        terminals = [unescape(t) for t in match.group(2).split(",")]
        netlist.add_gate(terminals[0], gtype, terminals[1:])

    for match in re.finditer(r"^\s*assign\s+([^=]+)=\s*([^;]+);", body, re.M):
        lhs = unescape(match.group(1))
        rhs = match.group(2).strip()
        ternary = re.fullmatch(
            r"([\\\w$ ]+)\?\s*([\\\w$ ]+):\s*([\\\w$ ]+)", rhs
        )
        if rhs == "1'b0":
            netlist.add_gate(lhs, GateType.CONST0, [])
        elif rhs == "1'b1":
            netlist.add_gate(lhs, GateType.CONST1, [])
        elif ternary:
            sel = unescape(ternary.group(1))
            in1 = unescape(ternary.group(2))
            in0 = unescape(ternary.group(3))
            netlist.add_gate(lhs, GateType.MUX, [sel, in0, in1])
        elif rhs.endswith("_ff"):
            reg_alias[lhs] = rhs.strip()
        else:
            netlist.add_gate(lhs, GateType.BUF, [unescape(rhs)])

    for match in re.finditer(
        r"always\s*@\(posedge\s+[\w$]+\)\s*([\\\w$ ]+_ff)\s*<=\s*([^;]+);",
        body,
    ):
        dff_regs[match.group(1).strip()] = unescape(match.group(2))

    for q_net, reg_name in reg_alias.items():
        if reg_name not in dff_regs:
            raise NetlistError(f"register {reg_name} has no always block")
        netlist.add_dff(q=q_net, d=dff_regs[reg_name])

    for net in outputs:
        netlist.add_output(net)
    return netlist
