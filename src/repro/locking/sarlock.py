"""SARLock-style point-function locking (extension beyond the paper).

SARLock (Yasin et al., HOST 2016) and Anti-SAT counter the SAT attack by
making every wrong key err on exactly *one* input pattern: a comparator
flips a protected output when the applied input equals the key value and
the key is not the correct one.  Each distinguishing input then rules
out a single wrong key, so the DIP loop needs ~2^k iterations instead of
~k -- the output-corruption/SAT-resilience trade-off the later
literature dubbed "point functions".

This implementation locks the full-scan combinational core of a
sequential benchmark (the same substrate :mod:`repro.locking.iolock`
uses for RLL), comparing the first ``key_bits`` core inputs against the
key:

    flip = (X[:k] == K) AND (K != K_secret)
    Y0   = Y0_original XOR flip

With the correct key ``flip`` is constantly 0 and the chip computes its
original function.  The matrix registry pairs it with the plain SAT
attack and the brute-force attack, so the resilience grid *measures*
the exponential-iterations behaviour instead of asserting it.
"""

from __future__ import annotations

import random

from repro.locking.iolock import IoLock
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.netlist.transform import extract_combinational_core
from repro.util.bitvec import random_bits

KEY_INPUT_PREFIX = "sarkey_"


def lock_with_sarlock(
    netlist: Netlist,
    key_bits: int,
    rng: random.Random,
) -> IoLock:
    """Apply the point-function lock to ``netlist``'s combinational core.

    ``key_bits`` comparator taps are taken from the core's first inputs
    (primary inputs first, then pseudo-primary state inputs); the
    protected output is the core's first output.  Requires at
    least 2 key bits (the comparator is an AND tree) and no more than
    the core has inputs.
    """
    core, _, _ = extract_combinational_core(netlist)
    if key_bits < 2:
        raise ValueError("SARLock needs at least 2 key bits")
    if key_bits > len(core.inputs):
        raise ValueError(
            f"cannot tap {key_bits} comparator inputs from "
            f"{len(core.inputs)} core inputs"
        )
    secret_key = tuple(random_bits(key_bits, rng))
    x_taps = list(core.inputs[:key_bits])
    target = core.outputs[0]
    if target not in core.gates:
        raise ValueError(f"protected output {target!r} has no gate driver")

    locked = Netlist(name=f"{netlist.name}_sarlock")
    for net in core.inputs:
        locked.add_input(net)
    key_inputs = [f"{KEY_INPUT_PREFIX}{i}" for i in range(key_bits)]
    for net in key_inputs:
        locked.add_input(net)

    pre_net = "sar_protected__pre"
    for gate in core.gates.values():
        if gate.output == target:
            locked.add_gate(pre_net, gate.gtype, gate.inputs)
        else:
            locked.add_gate(gate.output, gate.gtype, gate.inputs)

    # match_x = AND_i XNOR(x_i, k_i): the applied input equals the key.
    cmp_nets = []
    for i, (x_net, k_net) in enumerate(zip(x_taps, key_inputs)):
        cmp_net = f"sar_cmpx_{i}"
        locked.add_gate(cmp_net, GateType.XNOR, [x_net, k_net])
        cmp_nets.append(cmp_net)
    locked.add_gate("sar_match_x", GateType.AND, cmp_nets)

    # key_ok = AND over per-bit agreement with the secret (constants
    # folded into the gate choice, as in RLL's XOR/XNOR selection).
    ok_nets = []
    for i, secret_bit in enumerate(secret_key):
        if secret_bit:
            ok_nets.append(key_inputs[i])
        else:
            inv_net = f"sar_keyinv_{i}"
            locked.add_gate(inv_net, GateType.NOT, [key_inputs[i]])
            ok_nets.append(inv_net)
    locked.add_gate("sar_key_ok", GateType.AND, ok_nets)
    locked.add_gate("sar_key_wrong", GateType.NOT, ["sar_key_ok"])

    locked.add_gate("sar_flip", GateType.AND, ["sar_match_x", "sar_key_wrong"])
    locked.add_gate(target, GateType.XOR, [pre_net, "sar_flip"])

    for net in core.outputs:
        locked.add_output(net)
    return IoLock(
        locked=locked,
        original=core,
        key_inputs=key_inputs,
        secret_key=secret_key,
    )
