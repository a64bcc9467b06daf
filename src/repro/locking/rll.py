"""Random XOR/XNOR logic locking (RLL).

The classic combinational locking scheme the original SAT attack was
demonstrated on: key gates spliced onto random internal nets, XOR for a
secret key bit of 0 and XNOR for 1, so the circuit computes its original
function exactly when the correct key is applied.

In this repo RLL serves two roles: the baseline workload for our
reimplementation of the SAT attack, and the payload lock of the DFS
defense model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.util.bitvec import random_bits

KEY_INPUT_PREFIX = "keyin_"


@dataclass
class RllLock:
    """A netlist locked with random XOR/XNOR key gates."""

    locked: Netlist
    original: Netlist
    key_inputs: list[str]
    secret_key: tuple[int, ...]

    @property
    def key_bits(self) -> int:
        return len(self.secret_key)


def lock_combinational_rll(
    netlist: Netlist,
    key_bits: int,
    rng: random.Random,
) -> RllLock:
    """Insert ``key_bits`` XOR/XNOR key gates on random gate outputs.

    Works on sequential netlists too (locking the combinational logic);
    candidate sites are gate outputs, never primary inputs or flop Q nets,
    so consumers can be left untouched: the original driver is renamed to
    ``<net>__pre`` and the key gate re-drives the original net name.
    """
    candidates = sorted(netlist.gates.keys())
    if key_bits > len(candidates):
        raise ValueError(
            f"cannot insert {key_bits} key gates into {len(candidates)} gates"
        )
    sites = sorted(rng.sample(candidates, key_bits))
    secret_key = tuple(random_bits(key_bits, rng))
    site_to_index = {net: i for i, net in enumerate(sites)}

    locked = Netlist(name=f"{netlist.name}_rll")
    for net in netlist.inputs:
        locked.add_input(net)
    key_inputs = [f"{KEY_INPUT_PREFIX}{i}" for i in range(key_bits)]
    for net in key_inputs:
        locked.add_input(net)
    for dff in netlist.dffs.values():
        locked.add_dff(q=dff.q, d=dff.d)
    for gate in netlist.gates.values():
        index = site_to_index.get(gate.output)
        if index is None:
            locked.add_gate(gate.output, gate.gtype, gate.inputs)
        else:
            pre_net = f"{gate.output}__pre"
            locked.add_gate(pre_net, gate.gtype, gate.inputs)
            gtype = GateType.XNOR if secret_key[index] else GateType.XOR
            locked.add_gate(gate.output, gtype, [pre_net, key_inputs[index]])
    for net in netlist.outputs:
        locked.add_output(net)
    return RllLock(
        locked=locked,
        original=netlist,
        key_inputs=key_inputs,
        secret_key=secret_key,
    )
