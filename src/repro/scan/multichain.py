"""Multiple parallel scan chains (extension beyond the paper).

Industrial designs stitch their flops into many chains driven by a shared
clock; a tester loads all chains simultaneously, shorter chains padded at
the front so every chain's last bit arrives on the final load edge.  The
defense generalises naturally -- key gates sprinkle across all chains,
all fed by the *one* LFSR -- and so does DynUnlock, because the per-cycle
keystream is still a linear function of the single seed.

Conventions (extending :mod:`repro.scan.chain`):

* flops in the netlist's canonical order are split into consecutive
  slices, one per chain; global flop index <-> (chain, position);
* a load takes ``max(chain_lengths)`` edges; chain ``c`` receives
  ``max_len - len_c`` zero-padding bits first;
* unloading takes ``max_len - 1`` edges; chain ``c``'s captured bit at
  position ``l`` is observed after ``len_c - 1 - l`` edges;
* key gate ``i`` (global numbering across chains) is driven by LFSR
  state bit ``i``, exactly like the single-chain case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.netlist.netlist import Netlist, NetlistError
from repro.scan.chain import ScanChainSpec, shift_cycle, xor_int
from repro.scan.oracle import KeystreamLike, MaskedScan, ScanMasks, ScanResponse
from repro.sim.seqsim import SequentialSimulator


@dataclass(frozen=True)
class MultiChainSpec:
    """Geometry of a multi-chain locked scan architecture.

    ``keygates`` lists (chain, position) pairs in global key-bit order:
    the ``i``-th entry is controlled by LFSR state bit ``i``.  Positions
    follow the single-chain rule (gate after flop ``position`` of that
    chain, ``0 <= position <= len_c - 2``).
    """

    chain_lengths: tuple[int, ...]
    keygates: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.chain_lengths:
            raise ValueError("at least one chain is required")
        for length in self.chain_lengths:
            if length < 1:
                raise ValueError("chains must hold at least one flop")
        seen: set[tuple[int, int]] = set()
        for chain, position in self.keygates:
            if not 0 <= chain < len(self.chain_lengths):
                raise ValueError(f"key gate references unknown chain {chain}")
            if not 0 <= position <= self.chain_lengths[chain] - 2:
                raise ValueError(
                    f"key gate position {position} out of range for chain "
                    f"{chain} (length {self.chain_lengths[chain]})"
                )
            if (chain, position) in seen:
                raise ValueError(f"duplicate key gate {(chain, position)}")
            seen.add((chain, position))

    @property
    def n_flops(self) -> int:
        return sum(self.chain_lengths)

    @property
    def n_chains(self) -> int:
        return len(self.chain_lengths)

    @property
    def n_keygates(self) -> int:
        return len(self.keygates)

    @property
    def max_length(self) -> int:
        return max(self.chain_lengths)

    @classmethod
    def balanced(
        cls, n_flops: int, n_chains: int, keygates: Sequence[tuple[int, int]] = ()
    ) -> "MultiChainSpec":
        """Split ``n_flops`` into ``n_chains`` near-equal chains."""
        if n_chains < 1 or n_chains > n_flops:
            raise ValueError("need 1 <= n_chains <= n_flops")
        base, extra = divmod(n_flops, n_chains)
        lengths = tuple(base + (1 if c < extra else 0) for c in range(n_chains))
        return cls(chain_lengths=lengths, keygates=tuple(keygates))

    # -- global flop index <-> (chain, position) -------------------------
    def chain_of(self, flop_index: int) -> tuple[int, int]:
        if flop_index < 0:
            raise ValueError("flop index must be non-negative")
        offset = 0
        for chain, length in enumerate(self.chain_lengths):
            if flop_index < offset + length:
                return chain, flop_index - offset
            offset += length
        raise ValueError(f"flop index {flop_index} out of range")

    def flop_index(self, chain: int, position: int) -> int:
        return sum(self.chain_lengths[:chain]) + position

    def gates_in_chain(self, chain: int) -> list[tuple[int, int]]:
        """[(global key index, position)] for one chain, sorted by position."""
        gates = [
            (key_index, position)
            for key_index, (c, position) in enumerate(self.keygates)
            if c == chain
        ]
        return sorted(gates, key=lambda item: item[1])


class MultiChainScanOracle(MaskedScan):
    """Protocol-level oracle for a multi-chain locked design.

    API mirrors :class:`repro.scan.oracle.ScanOracle`: patterns and
    responses use the *global* flop order, padding and per-chain routing
    are internal.  Like the single-chain oracle it answers queries with
    a cached load mask and unload mask per capture count (exact for the
    reasons in :mod:`repro.scan.oracle`); building them shifts each
    chain through :func:`repro.scan.chain.shift_cycle`, the shift the
    single-chain oracle and the attack model share.
    """

    def __init__(
        self,
        netlist: Netlist,
        spec: MultiChainSpec,
        keystream: KeystreamLike,
        obfuscation_enabled: bool = True,
    ):
        if spec.n_flops != netlist.n_dffs:
            raise NetlistError(
                f"chains hold {spec.n_flops} flops, netlist has {netlist.n_dffs}"
            )
        if keystream.width < spec.n_keygates:
            raise ValueError("keystream narrower than the key-gate count")
        self.netlist = netlist
        self.spec = spec
        self.keystream = keystream
        self.obfuscation_enabled = obfuscation_enabled
        self._sim = SequentialSimulator(netlist)
        self._masks = {}
        self.query_count = 0
        # Per chain: its single-chain geometry and the global key index
        # of each of its key gates, in position order.
        self._chains: list[tuple[ScanChainSpec, tuple[int, ...]]] = []
        for chain, length in enumerate(spec.chain_lengths):
            gates = spec.gates_in_chain(chain)
            self._chains.append(
                (
                    ScanChainSpec(
                        n_flops=length,
                        keygate_positions=tuple(pos for _, pos in gates),
                    ),
                    tuple(key_index for key_index, _ in gates),
                )
            )

    def _input_map(self, primary_inputs: Sequence[int] | None) -> dict[str, int]:
        nets = self.netlist.inputs
        if primary_inputs is None:
            return {net: 0 for net in nets}
        if len(primary_inputs) != len(nets):
            raise ValueError("primary input width mismatch")
        return dict(zip(nets, primary_inputs))

    def _shift_all_chains(
        self, states: list[list[int]], key: Sequence[int]
    ) -> list[list[int]]:
        """One simultaneous shift edge across every chain, zeros shifted in."""
        return [
            shift_cycle(chain_spec, state, 0, [key[i] for i in key_indices], xor_int)
            for (chain_spec, key_indices), state in zip(self._chains, states)
        ]

    def _shift_masks(self, n_captures: int) -> ScanMasks:
        spec = self.spec
        if not self.obfuscation_enabled:
            zeros = [0] * spec.n_flops
            return zeros, zeros
        self.keystream.restart()
        max_len = spec.max_length

        # Load: max_len edges; chain c's max_len - len_c padding bits and
        # its pattern bits are all zero here.
        states = [[0] * length for length in spec.chain_lengths]
        for _ in range(max_len):
            states = self._shift_all_chains(states, self.keystream.next_key())
        load_mask = [bit for state in states for bit in state]

        # Capture edges: the PRNG advances, the scan path is idle.
        for _ in range(n_captures):
            self.keystream.next_key()

        # Unload: max_len - 1 edges; chain c's position l is read after
        # len_c - 1 - l edges (sampled before the edge that would move it
        # past the scan-out pin).
        states = [[0] * length for length in spec.chain_lengths]
        scan_out_pins = [[state[-1] for state in states]]
        for _ in range(max_len - 1):
            states = self._shift_all_chains(states, self.keystream.next_key())
            scan_out_pins.append([state[-1] for state in states])
        unload_mask = [
            scan_out_pins[length - 1 - position][chain]
            for chain, length in enumerate(spec.chain_lengths)
            for position in range(length)
        ]
        return load_mask, unload_mask

    def query(
        self,
        scan_in: Sequence[int],
        primary_inputs: Sequence[int] | None = None,
        n_captures: int = 1,
    ) -> ScanResponse:
        spec = self.spec
        if len(scan_in) != spec.n_flops:
            raise ValueError(f"scan_in must have {spec.n_flops} bits")
        if n_captures < 1:
            raise ValueError("at least one capture edge is required")
        self.query_count += 1
        return self._masked_capture(scan_in, primary_inputs, n_captures)
