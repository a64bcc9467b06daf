"""Whole-netlist consistency checks.

Run after construction or transformation; raises
:class:`repro.netlist.NetlistError` with an explanation on the first
violation found, or returns a small report dict when everything is sound.
"""

from __future__ import annotations

from repro.netlist.netlist import Netlist, NetlistError


def validate_netlist(netlist: Netlist) -> dict[str, int]:
    """Check structural invariants.

    * every gate/DFF input and every primary output is driven;
    * the combinational part is acyclic (delegated to topological_gates);
    * no net is simultaneously a primary input and driven by logic
      (guaranteed by construction, re-checked here for transformed nets).
    """
    driven: set[str] = set(netlist.inputs) | set(netlist.gates) | set(netlist.dffs)

    undriven: list[str] = []
    for gate in netlist.gates.values():
        for net in gate.inputs:
            if net not in driven:
                undriven.append(net)
    for dff in netlist.dffs.values():
        if dff.d not in driven:
            undriven.append(dff.d)
    for net in netlist.outputs:
        if net not in driven:
            undriven.append(net)
    if undriven:
        sample = sorted(set(undriven))[:10]
        raise NetlistError(f"undriven nets: {sample}")

    # Acyclicity check (raises on cycles).
    order = netlist.topological_gates()

    overlap = set(netlist.inputs) & (set(netlist.gates) | set(netlist.dffs))
    if overlap:
        raise NetlistError(f"nets are both primary inputs and driven: {sorted(overlap)[:10]}")

    return {
        "nets": len(netlist.all_nets()),
        "gates": len(order),
        "dffs": netlist.n_dffs,
    }
