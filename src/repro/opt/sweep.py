"""Dead-logic elimination by cone-of-influence analysis.

Roots are the nets the outside world can observe: primary outputs,
flip-flop D pins (scan cells capture them), and any caller-pinned nets.
Every gate outside the transitive fan-in of a root is unobservable and
is dropped; inputs, outputs and flip-flops are never touched.

The pass also *reports* (never removes) the primary inputs that drive
nothing after the sweep -- on a locked attack model those are exactly
the unused key gates: key inputs whose overlay cancelled out or whose
cone was constant-folded away, which the SAT attack would otherwise
still branch on.
"""

from __future__ import annotations

from repro.netlist.netlist import Netlist


def cone_of_influence(
    netlist: Netlist, pinned: frozenset[str] = frozenset()
) -> set[str]:
    """Gate-output nets reachable backwards from any observable root."""
    roots = list(netlist.outputs)
    roots.extend(dff.d for dff in netlist.dffs.values())
    roots.extend(pinned)
    gates = netlist.gates
    keep: set[str] = set()
    stack = [net for net in roots if net in gates]
    while stack:
        net = stack.pop()
        if net in keep:
            continue
        keep.add(net)
        for operand in gates[net].inputs:
            if operand in gates and operand not in keep:
                stack.append(operand)
    return keep


def sweep(
    netlist: Netlist, pinned: frozenset[str] = frozenset()
) -> tuple[Netlist, dict]:
    """Drop every gate outside the cone of influence of the roots.

    Returns ``(swept, stats)`` where stats reports the removed gate
    count and the now-unused primary inputs (``unused_inputs``).  The
    input netlist is never mutated; interface names and order are
    preserved exactly.
    """
    keep = cone_of_influence(netlist, pinned)
    out = Netlist(name=netlist.name)
    for net in netlist.inputs:
        out.add_input(net)
    for dff in netlist.dffs.values():
        out.add_dff(q=dff.q, d=dff.d)
    for gate in netlist.gates.values():
        if gate.output in keep:
            out.add_gate(gate.output, gate.gtype, gate.inputs)
    for net in netlist.outputs:
        out.add_output(net)

    read: set[str] = set(out.outputs)
    read.update(dff.d for dff in out.dffs.values())
    for gate in out.gates.values():
        read.update(gate.inputs)
    unused = [net for net in out.inputs if net not in read]
    return out, {
        "removed_gates": len(netlist.gates) - len(out.gates),
        "unused_inputs": unused,
    }
