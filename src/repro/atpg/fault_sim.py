"""Fault simulation: does a pattern detect a stuck-at fault?

Implementation is evaluation with a net override: the faulty copy forces
the fault site to its stuck value and everything downstream recomputes.
Works on combinational netlists (use
:func:`repro.netlist.transform.extract_combinational_core` first for
sequential designs, which is exactly what scan-based testing does).
"""

from __future__ import annotations

from typing import Mapping

from repro.atpg.faults import StuckAtFault
from repro.netlist.gates import evaluate_gate
from repro.netlist.netlist import Netlist, NetlistError
from repro.sim.logicsim import CombinationalSimulator


class FaultSimulator:
    """Evaluates a combinational netlist under injected stuck-at faults."""

    def __init__(self, netlist: Netlist):
        if netlist.dffs:
            raise NetlistError(
                "fault simulation operates on the combinational core"
            )
        self.netlist = netlist
        self._good_sim = CombinationalSimulator(netlist)
        self._order = netlist.topological_gates()

    def good_outputs(self, inputs: Mapping[str, int]) -> list[int]:
        """Fault-free output bits for one pattern."""
        values = self._good_sim.run(inputs)
        return [values[net] for net in self.netlist.outputs]

    def faulty_outputs(
        self, inputs: Mapping[str, int], fault: StuckAtFault
    ) -> list[int]:
        """Outputs with the fault injected."""
        values: dict[str, int] = {}
        for net in self.netlist.inputs:
            values[net] = inputs[net]
        if fault.net in values:
            values[fault.net] = fault.stuck_value
        for gate in self._order:
            result = evaluate_gate(gate.gtype, [values[n] for n in gate.inputs])
            if gate.output == fault.net:
                result = fault.stuck_value
            values[gate.output] = result
        return [values[net] for net in self.netlist.outputs]

    def detects(self, inputs: Mapping[str, int], fault: StuckAtFault) -> bool:
        """True when the pattern produces a fault-free/faulty mismatch."""
        return self.good_outputs(inputs) != self.faulty_outputs(inputs, fault)
