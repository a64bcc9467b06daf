"""The attacker's oracle: a working chip with dynamically locked scan.

Implements the exact query protocol assumed by the paper's threat model:
the attacker supplies an (incorrect) test key, so the PRNG drives the key
gates during every shift; each query is preceded by a power-on reset so
the PRNG restarts from its secret seed; the capture edge also advances the
PRNG but the key gates only sit on the scan path, so capture itself is
clean.

Two facts of that protocol reduce the obfuscation to a pair of XOR masks.
The reset replays the same per-edge keys on every query with the same
number of capture edges, and the scan path holds only XOR key gates, so a
load is affine in the pattern bits and an unload in the captured bits:
the chip applies ``scan_in XOR M_in`` and the tester observes ``captured
XOR M_out``.  Each oracle therefore runs its per-edge shift protocol once
per (capture count, obfuscation flag) on all-zero data, caches ``M_in``
and ``M_out``, and answers every query with the two masks around the
capture edges.  This is exact for any keystream, linear or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.netlist.netlist import Netlist, NetlistError
from repro.scan.chain import ScanChainSpec, shift_in, shift_out, xor_int
from repro.sim.seqsim import SequentialSimulator


class KeystreamLike(Protocol):
    """Anything producing per-cycle dynamic keys (LFSR, nonlinear PRNG)."""

    width: int

    def next_key(self) -> list[int]: ...

    def restart(self) -> None: ...


@dataclass
class ScanResponse:
    """Result of one scan query."""

    scan_out: list[int]
    primary_outputs: list[int]


#: (``M_in``, ``M_out``): the XOR masks one load and one unload apply.
ScanMasks = tuple[list[int], list[int]]


class MaskedScan:
    """The query body the scan oracles share: cached masks around capture.

    A subclass sets ``netlist``, ``obfuscation_enabled``, ``_sim`` (a
    :class:`SequentialSimulator` over ``netlist``) and ``_masks = {}``,
    and provides ``_input_map`` and ``_shift_masks(n_captures)``: its own
    per-edge shift protocol, run right after ``keystream.restart()`` on
    all-zero data (all-zero masks when obfuscation is off).
    """

    netlist: Netlist
    obfuscation_enabled: bool
    _sim: SequentialSimulator
    _masks: dict[tuple[int, bool], ScanMasks]

    def _masked_capture(
        self,
        scan_in: Sequence[int],
        primary_inputs: Sequence[int] | None,
        n_captures: int,
    ) -> ScanResponse:
        """Apply ``scan_in XOR M_in``, clock the captures, unmask with ``M_out``."""
        key = (n_captures, self.obfuscation_enabled)
        masks = self._masks.get(key)
        if masks is None:
            masks = self._masks[key] = self._shift_masks(n_captures)
        load_mask, unload_mask = masks
        self._sim.set_state_vector(
            [bit ^ mask for bit, mask in zip(scan_in, load_mask)]
        )
        inputs = self._input_map(primary_inputs)
        primary_outputs: list[int] = []
        for _ in range(n_captures):
            pre_edge_values = self._sim.step(inputs)
            primary_outputs = [
                pre_edge_values[net] for net in self.netlist.outputs
            ]
        captured = self._sim.get_state_vector()
        return ScanResponse(
            scan_out=[bit ^ mask for bit, mask in zip(captured, unload_mask)],
            primary_outputs=primary_outputs,
        )


class ScanOracle(MaskedScan):
    """Protocol-level simulation of the locked chip.

    ``netlist`` is the *unlocked* functional netlist; the obfuscation is
    applied by the scan protocol layer, which is behaviourally identical
    to inserting physical XOR key gates in the scan path (the structural
    emitter in :mod:`repro.scan.structural` is cross-checked against this
    in the test suite).  The per-edge shift (:func:`shift_in` and
    :func:`shift_out` under the keystream) runs once per capture count to
    build the load and unload masks; queries then cost O(flops) plus the
    capture edges (see the module docstring for why this is exact).
    """

    def __init__(
        self,
        netlist: Netlist,
        spec: ScanChainSpec,
        keystream: KeystreamLike,
        obfuscation_enabled: bool = True,
    ):
        if spec.n_flops != netlist.n_dffs:
            raise NetlistError(
                f"chain length {spec.n_flops} != flop count {netlist.n_dffs}"
            )
        if keystream.width < spec.n_keygates:
            raise ValueError(
                "keystream width smaller than the number of key gates"
            )
        self.netlist = netlist
        self.spec = spec
        self.keystream = keystream
        self.obfuscation_enabled = obfuscation_enabled
        self._sim = SequentialSimulator(netlist)
        self._masks = {}
        self.query_count = 0
        self.shift_cycles = 0

    # ------------------------------------------------------------------
    @property
    def n_flops(self) -> int:
        return self.spec.n_flops

    @property
    def n_primary_inputs(self) -> int:
        return len(self.netlist.inputs)

    def _input_map(self, primary_inputs: Sequence[int] | None) -> dict[str, int]:
        nets = self.netlist.inputs
        if primary_inputs is None:
            return {net: 0 for net in nets}
        if len(primary_inputs) != len(nets):
            raise ValueError(
                f"expected {len(nets)} primary input bits, got {len(primary_inputs)}"
            )
        return dict(zip(nets, primary_inputs))

    def _shift_masks(self, n_captures: int) -> ScanMasks:
        n = self.spec.n_flops
        zeros = [0] * n
        if not self.obfuscation_enabled:
            return zeros, zeros
        # Power-on reset, then one key per edge: n load edges, the
        # capture edges (PRNG advances, scan path idle), n - 1 unload.
        self.keystream.restart()
        load_keys = [self.keystream.next_key() for _ in range(n)]
        for _ in range(n_captures):
            self.keystream.next_key()
        unload_keys = [self.keystream.next_key() for _ in range(n - 1)]
        return (
            shift_in(self.spec, zeros, zeros, load_keys, xor_int),
            shift_out(self.spec, zeros, unload_keys, xor_int, fill_bit=0),
        )

    # ------------------------------------------------------------------
    def query(
        self,
        scan_in: Sequence[int],
        primary_inputs: Sequence[int] | None = None,
        n_captures: int = 1,
    ) -> ScanResponse:
        """One full test operation: reset, load, capture(s), unload.

        ``scan_in[l]`` is the pattern bit aimed at chain position ``l``;
        the returned ``scan_out[l]`` is what the tester observes for the
        response bit captured in position ``l`` (both corrupted by the
        dynamic obfuscation when enabled).  ``n_captures`` functional
        edges are applied back-to-back with the same primary inputs (the
        multi-capture protocol DynUnlock's restart refinement uses);
        primary outputs are sampled before the last capture edge.
        """
        n = self.spec.n_flops
        if len(scan_in) != n:
            raise ValueError(f"scan_in must have {n} bits, got {len(scan_in)}")
        if n_captures < 1:
            raise ValueError("at least one capture edge is required")
        self.query_count += 1
        self.shift_cycles += 2 * n + n_captures - 1
        return self._masked_capture(scan_in, primary_inputs, n_captures)

    # ------------------------------------------------------------------
    def unlocked_query(
        self,
        scan_in: Sequence[int],
        primary_inputs: Sequence[int] | None = None,
        n_captures: int = 1,
    ) -> ScanResponse:
        """Ground-truth query with obfuscation bypassed.

        This is what a trusted tester holding the secret key would see;
        used by tests and by the post-attack verification step ("does the
        recovered seed descramble real responses correctly").
        """
        previous = self.obfuscation_enabled
        self.obfuscation_enabled = False
        try:
            return self.query(scan_in, primary_inputs, n_captures=n_captures)
        finally:
            self.obfuscation_enabled = previous
