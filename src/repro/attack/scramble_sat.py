"""SAT attack on keyed scan-chain scrambling.

The scramble defense (:mod:`repro.locking.scramble`) routes the tester's
scan slots through key-controlled chain swaps.  Because the permutation
is static per key, one oracle query collapses to a combinational map

    observed = P_k( F( P_k(pattern), PI ) )

with ``P_k`` the key-selected involution and ``F`` the circuit's
next-state/output core.  That is a plain MUX-locked combinational
circuit: each swappable position becomes a 2:1 multiplexer selected by
its key bit, on the way in (driving the core's pseudo-primary inputs)
and again on the way out (reading its pseudo-primary outputs).  The
standard oracle-guided SAT attack then recovers the routing key, and
bit-parallel oracle replay verifies the survivors -- the same
:func:`repro.attack.bruteforce.attack_and_replay` pipeline as ScanSAT on
static EFF.
"""

from __future__ import annotations

from repro.attack.bruteforce import attack_and_replay
from repro.attack.satattack import AttackResult
from repro.core.modeling import CombinationalModel
from repro.locking.scramble import ScramblePublicView
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.netlist.transform import extract_combinational_core
from repro.util.timing import Stopwatch


def build_scramble_model(
    netlist: Netlist, view: ScramblePublicView
) -> CombinationalModel:
    """Build the MUX-locked model of one scrambled-scan query."""
    chains = view.chains
    if chains.n_flops != netlist.n_dffs:
        raise ValueError("chain geometry does not match the netlist flop count")
    n = chains.n_flops
    core, _, _ = extract_combinational_core(netlist)

    # partner[g] = (partner index, key bit) for swappable positions.
    partner: dict[int, tuple[int, int]] = {}
    for t, (c1, c2) in enumerate(view.swap_pairs):
        base1 = chains.flop_index(c1, 0)
        base2 = chains.flop_index(c2, 0)
        for p in range(chains.chain_lengths[c1]):
            partner[base1 + p] = (base2 + p, t)
            partner[base2 + p] = (base1 + p, t)

    model = Netlist(name=f"{netlist.name}_scramble_model")
    a_inputs = [f"scr_a{g}" for g in range(n)]
    for net in a_inputs:
        model.add_input(net)
    pi_inputs = list(netlist.inputs)
    for net in pi_inputs:
        model.add_input(net)
    key_inputs = [f"scr_key{t}" for t in range(view.key_bits)]
    for net in key_inputs:
        model.add_input(net)

    # Routing-in MUXes drive the core's pseudo-primary inputs directly
    # (the core's ppi_* names become gate outputs here, not inputs).
    for g in range(n):
        if g in partner:
            other, t = partner[g]
            model.add_gate(
                f"ppi_{g}",
                GateType.MUX,
                [key_inputs[t], a_inputs[g], a_inputs[other]],
            )
        else:
            model.add_gate(f"ppi_{g}", GateType.BUF, [a_inputs[g]])

    for gate in core.gates.values():
        model.add_gate(gate.output, gate.gtype, gate.inputs)

    # Routing-out MUXes read the captured state back through the same
    # permutation (the swap is an involution, so in/out share the map).
    b_outputs = [f"scr_b{g}" for g in range(n)]
    for g in range(n):
        if g in partner:
            other, t = partner[g]
            model.add_gate(
                b_outputs[g],
                GateType.MUX,
                [key_inputs[t], f"ppo_{g}", f"ppo_{other}"],
            )
        else:
            model.add_gate(b_outputs[g], GateType.BUF, [f"ppo_{g}"])
        model.add_output(b_outputs[g])

    po_outputs = []
    for net in netlist.outputs:
        model.add_output(net)
        po_outputs.append(net)

    return CombinationalModel(
        netlist=model,
        a_inputs=a_inputs,
        pi_inputs=pi_inputs,
        key_inputs=key_inputs,
        b_outputs=b_outputs,
        po_outputs=po_outputs,
    )


def scramble_sat_attack(
    netlist: Netlist,
    public_view: ScramblePublicView,
    oracle,
    candidate_limit: int = 256,
    timeout_s: float | None = None,
    opt_level: int | None = None,
) -> AttackResult:
    """Recover a scramble routing key through the scan oracle."""
    watch = Stopwatch().start()
    model = build_scramble_model(netlist, public_view)
    return attack_and_replay(
        model,
        lambda scan_in, pi: model.observe(oracle.query(scan_in, pi)),
        watch,
        candidate_limit=candidate_limit,
        timeout_s=timeout_s,
        opt_level=opt_level,
        verify_patterns=16,
        rng_seed=0x5C2A,
    )
