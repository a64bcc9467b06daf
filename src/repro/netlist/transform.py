"""Structural netlist transforms.

These are the building blocks for both the defenses (inserting key gates
into a scan path) and the attacks (duplicating the locked circuit to build
a miter, turning flip-flops into pseudo-I/O for combinational modeling).
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist, NetlistError


def rename_nets(netlist: Netlist, mapper: Callable[[str], str]) -> Netlist:
    """Return a new netlist with every net name passed through ``mapper``."""
    renamed = Netlist(name=netlist.name)
    for net in netlist.inputs:
        renamed.add_input(mapper(net))
    for dff in netlist.dffs.values():
        renamed.add_dff(q=mapper(dff.q), d=mapper(dff.d))
    for gate in netlist.gates.values():
        renamed.add_gate(
            mapper(gate.output), gate.gtype, [mapper(n) for n in gate.inputs]
        )
    for net in netlist.outputs:
        renamed.add_output(mapper(net))
    return renamed


def copy_with_prefix(netlist: Netlist, prefix: str) -> Netlist:
    """Deep-copy a netlist, prefixing every net name (for miter copies)."""
    return rename_nets(netlist, lambda n: f"{prefix}{n}")


def copy_netlist(netlist: Netlist) -> Netlist:
    """Plain deep copy."""
    return rename_nets(netlist, lambda n: n)


def extract_combinational_core(
    netlist: Netlist,
) -> tuple[Netlist, list[str], list[str]]:
    """Cut all flip-flops, exposing them as pseudo-primary I/O.

    This is the classic full-scan transformation: each DFF Q net becomes a
    pseudo-primary input (``ppi_<i>``) and each DFF D net is observed as a
    pseudo-primary output (``ppo_<i>``), in the netlist's canonical flop
    order.  Returns ``(core, ppi_nets, ppo_nets)``.

    The original Q net names are preserved as BUF aliases of the new PPI
    nets so that internal gate connectivity is untouched.
    """
    core = Netlist(name=f"{netlist.name}_comb")
    for net in netlist.inputs:
        core.add_input(net)

    ppi_nets: list[str] = []
    ppo_nets: list[str] = []
    for index, q_net in enumerate(netlist.dff_q_nets()):
        ppi = f"ppi_{index}"
        core.add_input(ppi)
        # Alias the old Q name so downstream gates keep their connections.
        core.add_gate(q_net, GateType.BUF, [ppi])
        ppi_nets.append(ppi)

    for gate in netlist.gates.values():
        core.add_gate(gate.output, gate.gtype, gate.inputs)

    for index, q_net in enumerate(netlist.dff_q_nets()):
        d_net = netlist.dffs[q_net].d
        ppo = f"ppo_{index}"
        core.add_gate(ppo, GateType.BUF, [d_net])
        core.add_output(ppo)
        ppo_nets.append(ppo)

    for net in netlist.outputs:
        core.add_output(net)
    return core, ppi_nets, ppo_nets


def strip_outputs(netlist: Netlist, keep: Iterable[str]) -> Netlist:
    """Copy of ``netlist`` keeping only the listed primary outputs."""
    keep_set = set(keep)
    missing = keep_set - set(netlist.outputs)
    if missing:
        raise NetlistError(f"cannot keep non-outputs: {sorted(missing)}")
    clone = copy_netlist(netlist)
    # set_outputs (not direct assignment) so derived caches invalidate.
    clone.set_outputs([net for net in clone.outputs if net in keep_set])
    return clone
