"""Combinational modeling of dynamically locked scan chains.

The key observation of the paper: during shift, every scan cell holds one
payload bit XORed with a subset of keystream bits, and which subset is
fully determined by the chain geometry and the cycle schedule.  So the
sequential scramble collapses to two XOR *overlays* around the circuit's
combinational core:

* ``a'[l] = a[l] XOR (keystream bits crossed on the way in)``
* ``b[l]  = b'[l] XOR (keystream bits crossed on the way out)``

and every keystream bit is itself a known XOR of LFSR seed bits.  The
resulting netlist is a plain locked combinational circuit whose key inputs
are the seed — exactly what the SAT attack consumes (the paper's Fig. 4).

Rather than transcribing the index arithmetic of the paper's Algorithm 1
(whose pseudo-code has typos), the crossings are *derived* by running the
project's single shift implementation (:mod:`repro.scan.chain`) on
symbolic bits.  The oracle runs the same code on concrete bits, so the
model provably mirrors the hardware semantics; the literal Algorithm 1
transcription in :mod:`repro.core.algorithm1` is cross-checked against
this derivation in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.netlist.transform import copy_with_prefix, extract_combinational_core
from repro.prng.symbolic import LfsrUnrolling, SymbolicLfsr
from repro.scan.chain import ScanChainSpec, shift_in, shift_out
from repro.scan.oracle import ScanResponse

ObfuscationMode = Literal["dynamic", "static", "dos_restart"]


# ----------------------------------------------------------------------
# symbolic crossing derivation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _TraceBit:
    """A scan-cell value during symbolic shifting.

    ``base`` identifies the payload bit (("a", l), ("b", l) or None for
    the constant-zero fill); ``keys`` is the set of (cycle, gate)
    keystream bits XORed onto it (XOR over GF(2) = symmetric difference).
    """

    base: tuple[str, int] | None
    keys: frozenset[tuple[int, int]] = field(default=frozenset())


def _xor_trace(x: _TraceBit, y: _TraceBit) -> _TraceBit:
    if x.base is not None and y.base is not None:
        raise AssertionError(
            "two payload bits met in one scan cell; shift semantics broken"
        )
    return _TraceBit(base=x.base or y.base, keys=x.keys ^ y.keys)


def _symbolic_keys(
    n_edges: int, n_gates: int, cycle_of_edge, start_edge: int = 0
) -> list[list[_TraceBit]]:
    """Per-edge symbolic key vectors; ``cycle_of_edge`` maps edge -> tag."""
    return [
        [
            _TraceBit(base=None, keys=frozenset({(cycle_of_edge(start_edge + e), g)}))
            for g in range(n_gates)
        ]
        for e in range(n_edges)
    ]


def derive_shift_in_crossings(
    spec: ScanChainSpec, mode: ObfuscationMode = "dynamic"
) -> list[frozenset[tuple[int, int]]]:
    """Keystream bits accumulated by each applied pattern bit.

    Returns ``crossings[l]`` = set of (absolute cycle, gate index) such
    that ``a'[l] = a[l] XOR keystream[cycle][gate] ...``.  Load edges run
    at absolute keystream cycles ``0 .. n_flops - 1``.
    """
    n = spec.n_flops
    cycle_of = (lambda e: e) if mode == "dynamic" else (lambda e: 0)
    keys = _symbolic_keys(n, spec.n_keygates, cycle_of)
    pattern = [_TraceBit(base=("a", l)) for l in range(n)]
    initial = [_TraceBit(base=None) for _ in range(n)]
    final = shift_in(spec, initial, pattern, keys, _xor_trace)
    crossings: list[frozenset[tuple[int, int]]] = []
    for l, bit in enumerate(final):
        if bit.base != ("a", l):
            raise AssertionError(
                f"shift-in permutation broken at position {l}: got {bit.base}"
            )
        crossings.append(bit.keys)
    return crossings


def derive_shift_out_crossings(
    spec: ScanChainSpec,
    n_captures: int = 1,
    mode: ObfuscationMode = "dynamic",
) -> list[frozenset[tuple[int, int]]]:
    """Keystream bits accumulated by each captured bit on its way out.

    Returns ``crossings[l]`` such that ``b[l] = b'[l] XOR ...``.  Unload
    edge ``j`` runs at absolute keystream cycle ``n_flops + n_captures +
    j`` (load consumed cycles ``0..n-1``, each capture edge one more).
    """
    n = spec.n_flops
    start = n + n_captures
    cycle_of = (lambda e: e) if mode == "dynamic" else (lambda e: 0)
    keys = _symbolic_keys(n - 1, spec.n_keygates, cycle_of, start_edge=start)
    captured = [_TraceBit(base=("b", l)) for l in range(n)]
    observed = shift_out(
        spec, captured, keys, _xor_trace, fill_bit=_TraceBit(base=None)
    )
    crossings: list[frozenset[tuple[int, int]]] = []
    for l, bit in enumerate(observed):
        if bit.base != ("b", l):
            raise AssertionError(
                f"shift-out permutation broken at position {l}: got {bit.base}"
            )
        crossings.append(bit.keys)
    return crossings


# ----------------------------------------------------------------------
# model construction
# ----------------------------------------------------------------------
@dataclass
class CombinationalModel:
    """The SAT-attack-ready combinational model of one scan query.

    ``netlist`` has inputs ``a_inputs + pi_inputs + key_inputs`` and
    outputs ``b_outputs + po_outputs``; the ``key_inputs`` are the LFSR
    seed bits in dynamic modes, the static key bits in static mode, or
    the routing key of the scramble model.  Every scan attack runs the
    SAT attack and the replay refinement on this one type.
    """

    netlist: Netlist
    a_inputs: list[str]
    pi_inputs: list[str]
    key_inputs: list[str]
    b_outputs: list[str]
    po_outputs: list[str]

    @property
    def x_inputs(self) -> list[str]:
        """Attacker-controlled inputs, in the order the oracle adapter uses."""
        return self.a_inputs + self.pi_inputs

    @property
    def observed_outputs(self) -> list[str]:
        return self.b_outputs + self.po_outputs

    def observe(self, response: ScanResponse) -> list[int]:
        """The chip's answer to one query in :attr:`observed_outputs` order:
        scan-out by position, then the primary outputs."""
        return list(response.scan_out) + list(response.primary_outputs)


def build_combinational_model(
    netlist: Netlist,
    spec: ScanChainSpec,
    taps: Sequence[int] | None,
    key_bits: int,
    mode: ObfuscationMode = "dynamic",
    n_captures: int = 1,
    encoding: Literal["dense", "unrolled"] = "dense",
) -> CombinationalModel:
    """Build the locked combinational model (the paper's modeling step).

    ``netlist`` is the reverse-engineered functional netlist; ``spec`` the
    key-gate geometry; ``taps``/``key_bits`` the reverse-engineered LFSR
    (``taps`` may be None in ``static`` mode).  ``n_captures`` unrolls the
    functional core that many times, the paper's "new capture cycle"
    restart refinement.

    ``encoding`` selects how keystream bits appear in the netlist:

    * ``"unrolled"`` mirrors the paper's Fig. 4 -- the LFSR is unrolled
      into one XOR gate per update and overlay gates reference those
      shared nets;
    * ``"dense"`` (default) pre-reduces every overlay term to its GF(2)
      expression over the seed bits, producing shallow independent XOR
      trees.

    The two encodings are logically equivalent (asserted by the test
    suite), and neither searches less everywhere: quick-profile Table II
    takes fewer conflicts under ``dense``, while paper-scale s5378 at 32
    and 40 key bits breaks in seconds under ``unrolled`` and times out
    under ``dense``.
    """
    if spec.n_flops != netlist.n_dffs:
        raise ValueError("chain spec does not match the netlist flop count")
    if mode in ("dynamic", "dos_restart") and taps is None:
        raise ValueError(f"mode {mode!r} requires the LFSR taps")
    if key_bits < spec.n_keygates:
        raise ValueError("key width smaller than the number of key gates")
    if n_captures < 1:
        raise ValueError("at least one capture cycle is required")

    if mode == "static":
        key_inputs = [f"dyn_key{g}" for g in range(spec.n_keygates)]
    else:
        key_inputs = [f"dyn_seed{j}" for j in range(key_bits)]

    # Crossing sets: the closed forms (repro.core.algorithm1) are proven
    # equal to the symbolic derivation by the test suite and are O(n*K)
    # instead of O(n^2 * K) set churn, which matters at paper scale.
    if mode == "dynamic":
        from repro.core.algorithm1 import (
            shift_in_crossings_closed_form,
            shift_out_crossings_closed_form,
        )

        crossings_in = shift_in_crossings_closed_form(spec)
        crossings_out = shift_out_crossings_closed_form(
            spec, n_captures=n_captures
        )
    else:
        crossings_in = derive_shift_in_crossings(spec, mode="static")
        crossings_out = derive_shift_out_crossings(
            spec, n_captures=n_captures, mode="static"
        )

    return assemble_model(
        netlist,
        f"{netlist.name}_model_{mode}",
        key_inputs,
        crossings_in,
        crossings_out,
        taps,
        mode=mode,
        n_captures=n_captures,
        encoding=encoding,
    )


def assemble_model(
    netlist: Netlist,
    name: str,
    key_inputs: list[str],
    crossings_in: Sequence[frozenset],
    crossings_out: Sequence[frozenset],
    taps: Sequence[int] | None,
    mode: ObfuscationMode = "dynamic",
    n_captures: int = 1,
    encoding: Literal["dense", "unrolled"] = "dense",
) -> CombinationalModel:
    """Wire the XOR overlays around ``n_captures`` copies of the core.

    ``crossings_in[l]`` / ``crossings_out[l]`` hold the (keystream cycle,
    key index) pairs that scan cell ``l`` crosses on its way in and out;
    the other arguments are as for :func:`build_combinational_model`.
    """
    n = netlist.n_dffs
    core, _, _ = extract_combinational_core(netlist)
    model = Netlist(name=name)

    a_inputs = [f"dyn_a{l}" for l in range(n)]
    for net in a_inputs:
        model.add_input(net)
    pi_inputs = [f"c0::{net}" for net in netlist.inputs]

    # Core copies, one per capture cycle; PIs shared via BUF aliases.
    for k in range(n_captures):
        prefix = f"c{k}::"
        core_copy = copy_with_prefix(core, prefix)
        if k == 0:
            for net in core_copy.inputs:
                if net.startswith(f"{prefix}ppi_"):
                    continue  # driven by the shift-in overlay below
                model.add_input(net)
        else:
            for orig in netlist.inputs:
                model.add_gate(f"{prefix}{orig}", GateType.BUF, [f"c0::{orig}"])
            for idx in range(n):
                model.add_gate(
                    f"{prefix}ppi_{idx}",
                    GateType.BUF,
                    [f"c{k - 1}::ppo_{idx}"],
                )
        for gate in core_copy.gates.values():
            model.add_gate(gate.output, gate.gtype, gate.inputs)

    # Key inputs go in after the core's inputs for a stable public order.
    for net in key_inputs:
        model.add_input(net)

    # Overlay operand resolution: map a crossing set to the nets XORed
    # onto the payload bit, per the selected keystream encoding.
    if mode == "static":
        def overlay_operands(crossings: frozenset) -> list[str]:
            return [key_inputs[g] for (_, g) in sorted(crossings)]
    elif encoding == "dense":
        # Batch-reduce every crossing to its seed-space row in a single
        # ascending sweep over keystream cycles (random-order access would
        # cost a matrix power per backward jump at paper scale).
        sym = SymbolicLfsr(width=len(key_inputs), taps=tuple(taps or ()))
        dense_rows: dict[frozenset, np.ndarray] = {}
        wanted: dict[int, list[tuple[frozenset, int]]] = {}
        for crossing in list(crossings_in) + list(crossings_out):
            if crossing in dense_rows:
                continue
            dense_rows[crossing] = np.zeros(len(key_inputs), dtype=np.uint8)
            for cycle, key_index in crossing:
                actual = 0 if mode == "dos_restart" else cycle
                wanted.setdefault(actual, []).append((crossing, key_index))
        for cycle, rows in sym.iter_rows(wanted.keys()):
            for crossing, key_index in wanted[cycle]:
                dense_rows[crossing] ^= rows[key_index]

        def overlay_operands(crossings: frozenset) -> list[str]:
            row = dense_rows[crossings]
            return [key_inputs[j] for j in np.nonzero(row)[0]]
    else:
        unrolling = LfsrUnrolling(
            model, seed_nets=key_inputs, taps=tuple(taps or ())
        )

        def overlay_operands(crossings: frozenset) -> list[str]:
            actual = (
                [(0, g) for (_, g) in sorted(crossings)]
                if mode == "dos_restart"
                else sorted(crossings)
            )
            return [unrolling.key_net(c, g) for (c, g) in actual]

    # Shift-in overlay drives the first core copy's pseudo-inputs.
    for l in range(n):
        target = f"c0::ppi_{l}"
        operands = [a_inputs[l]] + overlay_operands(crossings_in[l])
        if len(operands) == 1:
            model.add_gate(target, GateType.BUF, operands)
        else:
            model.add_gate(target, GateType.XOR, operands)

    # Shift-out overlay reads the last core copy's pseudo-outputs.
    last = f"c{n_captures - 1}::"
    b_outputs = [f"dyn_b{l}" for l in range(n)]
    for l in range(n):
        operands = [f"{last}ppo_{l}"] + overlay_operands(crossings_out[l])
        if len(operands) == 1:
            model.add_gate(b_outputs[l], GateType.BUF, operands)
        else:
            model.add_gate(b_outputs[l], GateType.XOR, operands)
        model.add_output(b_outputs[l])

    po_outputs: list[str] = []
    for net in netlist.outputs:
        po_net = f"{last}{net}"
        model.add_output(po_net)
        po_outputs.append(po_net)

    return CombinationalModel(
        netlist=model,
        a_inputs=a_inputs,
        pi_inputs=pi_inputs,
        key_inputs=key_inputs,
        b_outputs=b_outputs,
        po_outputs=po_outputs,
    )
