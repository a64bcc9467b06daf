"""Combinational logic evaluation.

Three paths share one gate semantics:

* the scalar path (:func:`evaluate`) is the reference;
* the numpy path (:meth:`CombinationalSimulator.run_many`) evaluates a
  uint8 pattern matrix, one byte per pattern-bit;
* the packed path (:class:`BitParallelSimulator`) pre-compiles the
  netlist to a flat instruction list over dense net indices and
  evaluates up to 64 patterns (lanes) per Python bitwise operation —
  the fast substrate under brute-force candidate refinement and fault
  simulation, where thousands of patterns are replayed per circuit.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.netlist.gates import GateType, evaluate_gate, evaluate_gate_vec
from repro.netlist.netlist import Netlist, NetlistError
from repro.util.bitvec import (
    PACK_WORD_BITS,
    broadcast_bit,
    lane_mask,
    pack_lanes,
)


def evaluate(
    netlist: Netlist,
    input_values: Mapping[str, int],
    state_values: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Evaluate every net of the combinational part once.

    ``input_values`` maps primary-input nets to bits; ``state_values`` maps
    DFF Q nets to bits (required when the netlist has flip-flops).  Returns
    the full net -> bit valuation, from which callers read outputs or DFF D
    pins.
    """
    values: dict[str, int] = {}
    for net in netlist.inputs:
        if net not in input_values:
            raise NetlistError(f"missing value for primary input {net!r}")
        values[net] = _as_bit(input_values[net], net)
    for q_net in netlist.dffs:
        if state_values is None or q_net not in state_values:
            raise NetlistError(f"missing state value for flip-flop {q_net!r}")
        values[q_net] = _as_bit(state_values[q_net], q_net)

    for gate in netlist.topological_gates():
        operands = [values[n] for n in gate.inputs]
        values[gate.output] = evaluate_gate(gate.gtype, operands)
    return values


def _as_bit(value: int, net: str) -> int:
    if value not in (0, 1):
        raise NetlistError(f"net {net!r}: bit value must be 0/1, got {value!r}")
    return int(value)


class CombinationalSimulator:
    """Reusable evaluator for a fixed netlist.

    Precomputes the topological order once; ``run`` then evaluates a single
    pattern, and ``run_many`` evaluates a whole pattern matrix vectorised.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._order = netlist.topological_gates()

    def run(
        self,
        input_values: Mapping[str, int],
        state_values: Mapping[str, int] | None = None,
    ) -> dict[str, int]:
        return evaluate(self.netlist, input_values, state_values)

    def run_outputs(
        self,
        input_values: Mapping[str, int],
        state_values: Mapping[str, int] | None = None,
    ) -> list[int]:
        values = self.run(input_values, state_values)
        return [values[net] for net in self.netlist.outputs]

    def run_many(self, input_matrix: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Vectorised evaluation.

        ``input_matrix`` must provide a uint8 array of identical length for
        every primary input *and* every DFF Q net.  Returns arrays for all
        nets.
        """
        values: dict[str, np.ndarray] = {}
        n_patterns: int | None = None
        for net in list(self.netlist.inputs) + list(self.netlist.dffs):
            if net not in input_matrix:
                raise NetlistError(f"missing pattern column for net {net!r}")
            arr = np.asarray(input_matrix[net], dtype=np.uint8)
            if n_patterns is None:
                n_patterns = arr.shape[0]
            elif arr.shape[0] != n_patterns:
                raise NetlistError("pattern columns have inconsistent lengths")
            values[net] = arr

        const_shape = n_patterns if n_patterns is not None else 1
        for gate in self._order:
            if gate.gtype is GateType.CONST0:
                values[gate.output] = np.zeros(const_shape, dtype=np.uint8)
            elif gate.gtype is GateType.CONST1:
                values[gate.output] = np.ones(const_shape, dtype=np.uint8)
            else:
                operands = [values[n] for n in gate.inputs]
                values[gate.output] = evaluate_gate_vec(gate.gtype, operands)
        return values


def evaluate_many(
    netlist: Netlist, input_matrix: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """One-shot vectorised evaluation (see CombinationalSimulator.run_many)."""
    return CombinationalSimulator(netlist).run_many(input_matrix)


class BitParallelSimulator:
    """Packed-integer bit-parallel evaluator for a fixed netlist.

    Construction compiles the netlist once: every net gets a dense index
    and the topological gate order becomes a flat instruction list, so
    each evaluation is a straight-line pass of Python bitwise operations
    with no dict lookups.  A *lane* is one pattern; all lanes of a net
    live in one ``int`` (bit ``j`` = lane ``j``), so a 64-lane run
    evaluates 64 patterns for the cost of one.

    Flip-flop Q nets are treated as extra inputs, mirroring
    :meth:`CombinationalSimulator.run_many`.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._free_nets = list(netlist.inputs) + list(netlist.dffs)
        index: dict[str, int] = {}
        for net in self._free_nets:
            index[net] = len(index)
        order = netlist.topological_gates()
        for gate in order:
            if gate.output not in index:
                index[gate.output] = len(index)
        self._net_index = index
        self._n_nets = len(index)
        self._program: list[tuple[GateType, int, tuple[int, ...]]] = [
            (gate.gtype, index[gate.output], tuple(index[n] for n in gate.inputs))
            for gate in order
        ]
        self._output_index = [index[net] for net in netlist.outputs]

    @property
    def net_index(self) -> Mapping[str, int]:
        """Net name -> dense slot index (stable for this simulator)."""
        return self._net_index

    def run_packed(
        self,
        packed_inputs: Mapping[str, int],
        n_lanes: int,
        force: Mapping[str, int] | None = None,
    ) -> dict[str, int]:
        """Evaluate ``n_lanes`` patterns in one pass.

        ``packed_inputs`` maps every primary input and DFF Q net to a
        packed word (lane ``j`` in bit ``j``).  ``force`` overrides nets
        with fixed packed words *after* their driver is evaluated — the
        stuck-at injection hook used by fault simulation.  Returns the
        packed word of every net.
        """
        slots = self._run_slots(packed_inputs, n_lanes, force)
        return {net: slots[slot] for net, slot in self._net_index.items()}

    def _run_slots(
        self,
        packed_inputs: Mapping[str, int],
        n_lanes: int,
        force: Mapping[str, int] | None = None,
    ) -> list[int]:
        """Straight-line packed evaluation; returns the raw slot array."""
        mask = lane_mask(n_lanes)
        slots = [0] * self._n_nets
        index = self._net_index
        for net in self._free_nets:
            word = packed_inputs.get(net)
            if word is None:
                raise NetlistError(f"missing packed value for net {net!r}")
            slots[index[net]] = word & mask

        force_slots: dict[int, int] | None = None
        if force:
            force_slots = {index[net]: word & mask for net, word in force.items()}
            for slot, word in force_slots.items():
                slots[slot] = word

        for gtype, out, ins in self._program:
            if gtype is GateType.AND or gtype is GateType.NAND:
                acc = slots[ins[0]]
                for i in ins[1:]:
                    acc &= slots[i]
                if gtype is GateType.NAND:
                    acc ^= mask
            elif gtype is GateType.OR or gtype is GateType.NOR:
                acc = slots[ins[0]]
                for i in ins[1:]:
                    acc |= slots[i]
                if gtype is GateType.NOR:
                    acc ^= mask
            elif gtype is GateType.XOR or gtype is GateType.XNOR:
                acc = slots[ins[0]]
                for i in ins[1:]:
                    acc ^= slots[i]
                if gtype is GateType.XNOR:
                    acc ^= mask
            elif gtype is GateType.NOT:
                acc = slots[ins[0]] ^ mask
            elif gtype is GateType.BUF:
                acc = slots[ins[0]]
            elif gtype is GateType.MUX:
                sel = slots[ins[0]]
                acc = (slots[ins[1]] & ~sel) | (slots[ins[2]] & sel)
                acc &= mask
            elif gtype is GateType.CONST0:
                acc = 0
            else:  # CONST1
                acc = mask
            if force_slots is not None:
                forced = force_slots.get(out)
                if forced is not None:
                    acc = forced
            slots[out] = acc

        return slots

    def run_packed_outputs(
        self,
        packed_inputs: Mapping[str, int],
        n_lanes: int,
        force: Mapping[str, int] | None = None,
    ) -> list[int]:
        """Packed words of the primary outputs only (see :meth:`run_packed`).

        Skips the name -> word dict entirely — this is the per-fault hot
        path of fault simulation.
        """
        slots = self._run_slots(packed_inputs, n_lanes, force)
        return [slots[slot] for slot in self._output_index]

    def run_patterns(
        self, patterns: Sequence[Mapping[str, int]]
    ) -> list[list[int]]:
        """Evaluate scalar pattern dicts in 64-lane chunks.

        Returns one output-bit row per pattern, in the netlist's output
        order — the bit-parallel equivalent of calling
        :meth:`CombinationalSimulator.run_outputs` per pattern.  Each
        64-pattern chunk is packed into one word per free net and run
        through :meth:`run_packed_outputs`; the final chunk may be
        partial.
        """
        results: list[list[int]] = []
        nets = self._free_nets
        for start in range(0, len(patterns), PACK_WORD_BITS):
            chunk = patterns[start : start + PACK_WORD_BITS]
            n_lanes = len(chunk)
            rows = [[pattern[net] for net in nets] for pattern in chunk]
            packed = dict(zip(nets, pack_lanes(rows)))
            out_words = self.run_packed_outputs(packed, n_lanes)
            for lane in range(n_lanes):
                results.append([(word >> lane) & 1 for word in out_words])
        return results


def broadcast_inputs(
    nets: Sequence[str], bits: Sequence[int], n_lanes: int
) -> dict[str, int]:
    """Packed-input map replicating one scalar pattern across all lanes."""
    return {
        net: broadcast_bit(bit, n_lanes) for net, bit in zip(nets, bits)
    }
