"""Combinational logic evaluation.

One reference walk and one lowered program share the gate semantics of
:mod:`repro.netlist.gates`:

* :func:`evaluate` walks the topological gate list one scalar bit at a
  time.  It is the reference every other path is tested against.
* :func:`program_for` lowers a netlist once into a :class:`GateProgram`,
  a flat list of two-operand instructions ``(op, out, a, b)`` over dense
  slots, with ``op`` one of :func:`operator.and_`, :func:`operator.or_`
  and :func:`operator.xor`.  Every simulator runs it with the same loop,
  ``slots[out] = op(slots[a], slots[b])``, on whatever its slots hold:
  one-lane ints (:meth:`CombinationalSimulator.run`, hence
  :class:`~repro.sim.seqsim.SequentialSimulator` and every scan
  oracle's capture edge), packed lane words (:class:`BitParallelSimulator`,
  under brute-force replay and the fuzz invariants), or uint8 numpy
  columns (:meth:`CombinationalSimulator.run_many`).

Slot layout: the primary inputs, then the DFF Q nets, then one slot per
gate output in topological order, then two reserved slots -- the lane
mask (all lanes 1) and the constant 0.  Lowering:

* AND/OR/XOR chain their inputs pairwise, accumulating in the gate's own
  output slot (nothing reads that slot before the gate's last
  instruction, because the order is topological);
* NAND/NOR/XNOR add one XOR with the mask slot; NOT is one XOR with it;
* BUF is an OR with the zero slot, CONST0/CONST1 OR the zero or mask
  slot with the zero slot;
* MUX(sel, in0, in1) is ``in0 ^ (sel & (in0 ^ in1))``, three instructions.

Programs are cached per netlist object and
:attr:`~repro.netlist.netlist.Netlist.version` (like the Tseitin templates
of :func:`repro.sat.tseitin.encoding_for`) and built on first use, so a
simulator nobody runs costs nothing and every simulator of one netlist
shares one program.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence
from weakref import WeakKeyDictionary

import numpy as np

from repro.netlist.gates import GateType, evaluate_gate
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
    values = dict(
        zip(netlist.inputs, _checked_bits(netlist.inputs, input_values, _NO_INPUT))
    )
    values.update(
        zip(netlist.dffs, _checked_bits(netlist.dffs, state_values, _NO_STATE))
    )
    for gate in netlist.topological_gates():
        operands = [values[n] for n in gate.inputs]
        values[gate.output] = evaluate_gate(gate.gtype, operands)
    return values


_NO_INPUT = "missing value for primary input"
_NO_STATE = "missing state value for flip-flop"

#: Accepted scalar bit values -> the int stored (True, 1.0 and numpy
#: integers hash like the ints they equal).
_BIT = {0: 0, 1: 1}


def _checked_bits(
    nets: Sequence[str], values: Mapping[str, int] | None, missing: str
) -> list[int]:
    """``values`` of ``nets`` as 0/1 ints; NetlistError names the bad net."""
    bits = []
    for net in nets:
        if values is None or net not in values:
            raise NetlistError(f"{missing} {net!r}")
        bits.append(_as_bit(values[net], net))
    return bits


def _as_bit(value: int, net: str) -> int:
    if value not in (0, 1):
        raise NetlistError(f"net {net!r}: bit value must be 0/1, got {value!r}")
    return int(value)


# ----------------------------------------------------------------------
# the lowered gate program
# ----------------------------------------------------------------------
Op = Callable[[Any, Any], Any]
_AND, _OR, _XOR = operator.and_, operator.or_, operator.xor

#: Chained gate type -> (pairwise op, whether the result is inverted).
_CHAINS: dict[GateType, tuple[Op, bool]] = {
    GateType.AND: (_AND, False),
    GateType.NAND: (_AND, True),
    GateType.OR: (_OR, False),
    GateType.NOR: (_OR, True),
    GateType.XOR: (_XOR, False),
    GateType.XNOR: (_XOR, True),
}


@dataclass(frozen=True)
class GateProgram:
    """A netlist lowered to two-operand instructions (module docstring).

    ``nets[s]`` names slot ``s`` and ``index`` is its inverse.  The
    caller loads the ``free`` slots (``inputs``, then the DFF Q nets
    ``states``) and appends the two reserved slots after the named ones:
    the lane mask, then 0.  ``version`` is the netlist version the
    program was lowered from.
    """

    version: int
    inputs: tuple[str, ...]
    states: tuple[str, ...]
    free: tuple[str, ...]
    nets: tuple[str, ...]
    index: Mapping[str, int]
    code: tuple[tuple[Op, int, int, int], ...]

    def blank(self, fill: Any = 0) -> list:
        """Placeholders for the gate-output slots (appended after the free ones)."""
        return [fill] * (len(self.nets) - len(self.free))

    def execute(self, slots: list) -> None:
        """Run the program over ``slots`` in place."""
        for op, out, a, b in self.code:
            slots[out] = op(slots[a], slots[b])


def lower(netlist: Netlist) -> GateProgram:
    """Lower ``netlist`` into a fresh :class:`GateProgram` (no cache)."""
    inputs = tuple(netlist.inputs)
    states = tuple(netlist.dffs)
    order = netlist.topological_gates()
    free = inputs + states
    nets = free + tuple(gate.output for gate in order)
    index = {net: slot for slot, net in enumerate(nets)}
    mask, zero = len(nets), len(nets) + 1
    code: list[tuple[Op, int, int, int]] = []
    for gate in order:
        out = index[gate.output]
        ins = [index[net] for net in gate.inputs]
        gtype = gate.gtype
        if gtype is GateType.MUX:
            sel, in0, in1 = ins
            code.append((_XOR, out, in0, in1))
            code.append((_AND, out, out, sel))
            code.append((_XOR, out, out, in0))
        elif gtype is GateType.NOT:
            code.append((_XOR, out, ins[0], mask))
        elif gtype is GateType.BUF:
            code.append((_OR, out, ins[0], zero))
        elif gtype is GateType.CONST0:
            code.append((_OR, out, zero, zero))
        elif gtype is GateType.CONST1:
            code.append((_OR, out, mask, zero))
        else:
            op, invert = _CHAINS[gtype]
            code.append((op, out, ins[0], ins[1]))
            code.extend((op, out, out, x) for x in ins[2:])
            if invert:
                code.append((_XOR, out, out, mask))
    return GateProgram(
        version=netlist.version,
        inputs=inputs,
        states=states,
        free=free,
        nets=nets,
        index=index,
        code=tuple(code),
    )


_PROGRAM_CACHE: "WeakKeyDictionary[Netlist, GateProgram]" = WeakKeyDictionary()


def program_for(netlist: Netlist) -> GateProgram:
    """Cached :func:`lower`, keyed on the netlist object and its version.

    Every mutator bumps :attr:`~repro.netlist.netlist.Netlist.version`, so
    a netlist edited after lowering is lowered again on its next run.
    """
    program = _PROGRAM_CACHE.get(netlist)
    if program is None or program.version != netlist.version:
        program = lower(netlist)
        _PROGRAM_CACHE[netlist] = program
    return program


class CombinationalSimulator:
    """Reusable evaluator for a fixed netlist.

    ``run`` evaluates one pattern (the program as a one-lane word) and
    ``run_many`` a whole pattern matrix as uint8 numpy columns.  Both
    follow the netlist's mutations: each run uses the program of the
    netlist's current version.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._program: GateProgram | None = None

    def _lowered(self) -> GateProgram:
        program = self._program
        if program is None or program.version != self.netlist.version:
            program = self._program = program_for(self.netlist)
        return program

    def run(
        self,
        input_values: Mapping[str, int],
        state_values: Mapping[str, int] | None = None,
    ) -> dict[str, int]:
        """Same contract and errors as :func:`evaluate`."""
        program = self._lowered()
        try:
            slots = [_BIT[input_values[net]] for net in program.inputs]
            slots += [_BIT[state_values[net]] for net in program.states]
        except (KeyError, TypeError):
            # Missing or non-bit value: let the reference checks name it.
            slots = _checked_bits(program.inputs, input_values, _NO_INPUT)
            slots += _checked_bits(program.states, state_values, _NO_STATE)
        slots += program.blank()
        slots += (1, 0)
        program.execute(slots)
        return dict(zip(program.nets, slots))

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
        program = self._lowered()
        slots: list = []
        for net in program.free:
            if net not in input_matrix:
                raise NetlistError(f"missing pattern column for net {net!r}")
            arr = np.asarray(input_matrix[net], dtype=np.uint8)
            if slots and arr.shape[0] != slots[0].shape[0]:
                raise NetlistError("pattern columns have inconsistent lengths")
            slots.append(arr)
        n_patterns = slots[0].shape[0] if slots else 1
        slots += program.blank(None)
        slots.append(np.ones(n_patterns, dtype=np.uint8))
        slots.append(np.zeros(n_patterns, dtype=np.uint8))
        program.execute(slots)
        return dict(zip(program.nets, slots))


def evaluate_many(
    netlist: Netlist, input_matrix: Mapping[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """One-shot vectorised evaluation (see CombinationalSimulator.run_many)."""
    return CombinationalSimulator(netlist).run_many(input_matrix)


class BitParallelSimulator:
    """Packed-integer bit-parallel evaluator for a fixed netlist.

    Runs the netlist's :class:`GateProgram` on packed words: a *lane* is
    one pattern, and all lanes of a net live in one ``int`` (bit ``j`` =
    lane ``j``), so a 64-lane run evaluates 64 patterns for the cost of
    one.

    Flip-flop Q nets are treated as extra inputs, mirroring
    :meth:`CombinationalSimulator.run_many`.  The primary-output slots
    are resolved per simulator when it takes up a program, because
    assigning ``netlist.outputs`` directly does not bump the version.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._program: GateProgram | None = None
        self._output_index: list[int] = []

    def _lowered(self) -> GateProgram:
        program = self._program
        if program is None or program.version != self.netlist.version:
            program = self._program = program_for(self.netlist)
            self._output_index = [program.index[net] for net in self.netlist.outputs]
        return program

    def run_packed(
        self,
        packed_inputs: Mapping[str, int],
        n_lanes: int,
    ) -> dict[str, int]:
        """Evaluate ``n_lanes`` patterns in one pass.

        ``packed_inputs`` maps every primary input and DFF Q net to a
        packed word (lane ``j`` in bit ``j``).  Returns the packed word of
        every net.
        """
        program = self._lowered()
        slots = self._run_slots(program, packed_inputs, n_lanes)
        return dict(zip(program.nets, slots))

    def _run_slots(
        self,
        program: GateProgram,
        packed_inputs: Mapping[str, int],
        n_lanes: int,
    ) -> list[int]:
        """Packed evaluation; returns the raw slot array."""
        mask = lane_mask(n_lanes)
        try:
            slots = [packed_inputs[net] & mask for net in program.free]
        except KeyError:
            missing = next(net for net in program.free if net not in packed_inputs)
            raise NetlistError(f"missing packed value for net {missing!r}") from None
        slots += program.blank()
        slots += (mask, 0)
        program.execute(slots)
        return slots

    def run_packed_outputs(
        self,
        packed_inputs: Mapping[str, int],
        n_lanes: int,
    ) -> list[int]:
        """Packed words of the primary outputs only (see :meth:`run_packed`).

        Skips the name -> word dict entirely.
        """
        program = self._lowered()
        slots = self._run_slots(program, packed_inputs, n_lanes)
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
        nets = self._lowered().free
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
