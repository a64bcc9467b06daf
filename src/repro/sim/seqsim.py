"""Cycle-accurate sequential simulation.

The sequential simulator owns the flip-flop state of a netlist and applies
one clock edge at a time.  The scan package builds the shift/capture
protocol on top of it; keeping the clocking primitive here means the scan
oracle and the functional-mode simulation cannot diverge.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.netlist.netlist import Netlist, NetlistError
from repro.sim.logicsim import CombinationalSimulator


class SequentialSimulator:
    """Simulates a netlist with explicit flip-flop state.

    State is a dict ``q_net -> bit``.  ``step`` evaluates the combinational
    logic under the current state and primary inputs, then clocks every DFF
    (Q <= D simultaneously); every flop powers on at 0.
    ``set_state_vector``/``get_state_vector`` give the scan machinery
    direct access, mimicking physical scan chain load/unload.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._comb = CombinationalSimulator(netlist)
        self.state: dict[str, int] = {q: 0 for q in netlist.dffs}

    # -- state access ---------------------------------------------------
    def get_state_vector(self) -> list[int]:
        """State bits in canonical flop order."""
        return [self.state[q] for q in self.netlist.dff_q_nets()]

    def set_state_vector(self, bits: Sequence[int]) -> None:
        q_nets = self.netlist.dff_q_nets()
        if len(bits) != len(q_nets):
            raise NetlistError(
                f"state vector length {len(bits)} != flop count {len(q_nets)}"
            )
        for q_net, bit in zip(q_nets, bits):
            if bit not in (0, 1):
                raise NetlistError("state bits must be 0/1")
            self.state[q_net] = int(bit)

    def reset(self) -> None:
        """Return every flop to its power-on 0."""
        for q_net in self.state:
            self.state[q_net] = 0

    # -- evaluation -----------------------------------------------------
    def evaluate_combinational(self, inputs: Mapping[str, int]) -> dict[str, int]:
        """Settle the combinational logic without clocking."""
        return self._comb.run(inputs, self.state)

    def outputs(self, inputs: Mapping[str, int]) -> list[int]:
        values = self.evaluate_combinational(inputs)
        return [values[net] for net in self.netlist.outputs]

    def step(self, inputs: Mapping[str, int]) -> dict[str, int]:
        """Apply one clock edge; returns the pre-edge net valuation."""
        values = self.evaluate_combinational(inputs)
        next_state = {q: values[dff.d] for q, dff in self.netlist.dffs.items()}
        self.state = next_state
        return values

    def run(
        self, input_sequence: Sequence[Mapping[str, int]]
    ) -> list[list[int]]:
        """Clock through an input sequence, returning outputs per cycle."""
        trace: list[list[int]] = []
        for inputs in input_sequence:
            values = self.step(inputs)
            trace.append([values[net] for net in self.netlist.outputs])
        return trace
