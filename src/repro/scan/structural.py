"""Structural view of a locked scan design.

Where :mod:`repro.scan.oracle` applies the obfuscation at the protocol
level, this module emits the *gate-level* design the paper's Fig. 1 shows:
scan multiplexers in front of every flop, XOR key gates spliced into the
scan path, and SE/SI/SO test pins plus parallel key-control inputs.

The structural netlist serves three purposes: it can be exported to
``.bench`` for inspection, it drives the figure-reproduction examples, and
-- most importantly -- simulating it cycle-by-cycle gives an *independent*
implementation of the scan semantics against which the protocol oracle is
cross-checked in the integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.scan.chain import ScanChainSpec
from repro.scan.oracle import KeystreamLike, ScanResponse
from repro.sim.seqsim import SequentialSimulator


@dataclass
class ScanPins:
    """Names of the test-access pins of a structural scan netlist."""

    scan_enable: str
    scan_in: str
    scan_out: str
    key_inputs: list[str]


def build_scan_netlist(
    netlist: Netlist, spec: ScanChainSpec
) -> tuple[Netlist, ScanPins]:
    """Insert a locked scan chain into a sequential netlist.

    Chain order follows the netlist's canonical flop order.  Returns the
    new netlist and the pin-name record: ``scan_SE``, ``scan_SI``,
    ``scan_SO`` and one key input ``scan_KG<g>`` per key gate.  The key
    inputs are primary inputs: during simulation they are driven with the
    dynamic key of the current cycle (shift) or the secret key (capture
    -- irrelevant since the gates only feed scan muxes).
    """
    if spec.n_flops != netlist.n_dffs:
        raise ValueError("chain spec does not match the flop count")

    locked = Netlist(name=f"{netlist.name}_scan")
    for net in netlist.inputs:
        locked.add_input(net)
    se_net, si_net, so_net = "scan_SE", "scan_SI", "scan_SO"
    locked.add_input(se_net)
    locked.add_input(si_net)
    key_nets = [f"scan_KG{g}" for g in range(spec.n_keygates)]
    for net in key_nets:
        locked.add_input(net)

    q_nets = netlist.dff_q_nets()
    # Scan source for position 0 is the SI pin; for p+1 it is the possibly
    # key-gated output of position p.
    scan_src: list[str] = [si_net]
    for p in range(spec.n_flops - 1):
        gate = spec.gate_at(p)
        if gate is None:
            scan_src.append(q_nets[p])
        else:
            xor_net = f"scan_KG{gate}_xor"
            locked.add_gate(xor_net, GateType.XOR, [q_nets[p], key_nets[gate]])
            scan_src.append(xor_net)

    for position, q_net in enumerate(q_nets):
        d_net = netlist.dffs[q_net].d
        mux_net = f"scan_mux_{position}"
        # MUX(sel, in0, in1): functional D when SE=0, scan path when SE=1.
        locked.add_gate(mux_net, GateType.MUX, [se_net, d_net, scan_src[position]])
        locked.add_dff(q=q_net, d=mux_net)

    for gate in netlist.gates.values():
        locked.add_gate(gate.output, gate.gtype, gate.inputs)
    for net in netlist.outputs:
        locked.add_output(net)
    locked.add_gate(so_net, GateType.BUF, [q_nets[-1]])
    locked.add_output(so_net)

    pins = ScanPins(
        scan_enable=se_net, scan_in=si_net, scan_out=so_net, key_inputs=key_nets
    )
    return locked, pins


class StructuralScanSimulator:
    """Drives a structural scan netlist through the full test protocol.

    Behaviourally equivalent to :class:`repro.scan.oracle.ScanOracle`; the
    integration tests assert bit-exact agreement on random circuits, which
    pins down the protocol semantics from two independent directions.
    """

    def __init__(
        self,
        locked: Netlist,
        pins: ScanPins,
        spec: ScanChainSpec,
        keystream: KeystreamLike,
        functional_inputs: Sequence[str],
    ):
        self.locked = locked
        self.pins = pins
        self.spec = spec
        self.keystream = keystream
        self.functional_inputs = list(functional_inputs)
        self._sim = SequentialSimulator(locked)

    def _cycle_inputs(
        self,
        se: int,
        si: int,
        key: Sequence[int],
        primary_inputs: Sequence[int],
    ) -> dict[str, int]:
        inputs = dict(zip(self.functional_inputs, primary_inputs))
        inputs[self.pins.scan_enable] = se
        inputs[self.pins.scan_in] = si
        for net, bit in zip(self.pins.key_inputs, key):
            inputs[net] = bit
        return inputs

    def query(
        self,
        scan_in: Sequence[int],
        primary_inputs: Sequence[int] | None = None,
    ) -> ScanResponse:
        n = self.spec.n_flops
        if len(scan_in) != n:
            raise ValueError(f"scan_in must have {n} bits")
        pi = list(primary_inputs) if primary_inputs is not None else [
            0
        ] * len(self.functional_inputs)
        if len(pi) != len(self.functional_inputs):
            raise ValueError("primary input width mismatch")

        self.keystream.restart()
        self._sim.reset()

        # Load: n shift edges, farthest bit first.
        for c in range(n):
            key = self.keystream.next_key()
            gate_key = key[: self.spec.n_keygates]
            self._sim.step(
                self._cycle_inputs(1, scan_in[n - 1 - c], gate_key, pi)
            )

        # Capture edge (SE = 0); PRNG still advances.
        self.keystream.next_key()
        values = self._sim.step(
            self._cycle_inputs(0, 0, [0] * self.spec.n_keygates, pi)
        )
        primary_outputs = [
            values[net] for net in self.locked.outputs if net != self.pins.scan_out
        ]

        # Unload: read SO before each of n-1 edges plus once at the end.
        observed: list[int] = []
        for j in range(n - 1):
            so_values = self._sim.evaluate_combinational(
                self._cycle_inputs(1, 0, [0] * self.spec.n_keygates, pi)
            )
            observed.append(so_values[self.pins.scan_out])
            key = self.keystream.next_key()
            gate_key = key[: self.spec.n_keygates]
            self._sim.step(self._cycle_inputs(1, 0, gate_key, pi))
        so_values = self._sim.evaluate_combinational(
            self._cycle_inputs(1, 0, [0] * self.spec.n_keygates, pi)
        )
        observed.append(so_values[self.pins.scan_out])

        by_position = [observed[n - 1 - l] for l in range(n)]
        return ScanResponse(scan_out=by_position, primary_outputs=primary_outputs)
