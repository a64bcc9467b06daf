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
from repro.scan.oracle import KeystreamLike, ScanResponse
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


class MultiChainScanOracle:
    """Protocol-level oracle for a multi-chain locked design.

    API mirrors :class:`repro.scan.oracle.ScanOracle`: patterns and
    responses use the *global* flop order, padding and per-chain routing
    are internal.  Each chain shifts through
    :func:`repro.scan.chain.shift_cycle`, the shift the single-chain
    oracle and the attack model share.
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

    def _split(self, bits: Sequence[int]) -> list[list[int]]:
        chunks: list[list[int]] = []
        offset = 0
        for length in self.spec.chain_lengths:
            chunks.append(list(bits[offset: offset + length]))
            offset += length
        return chunks

    def _shift_all_chains(
        self,
        states: list[list[int]],
        scan_in_bits: list[int],
        key: Sequence[int],
    ) -> list[list[int]]:
        """One simultaneous shift edge across every chain."""
        new_states: list[list[int]] = []
        for (chain_spec, key_indices), state, bit in zip(
            self._chains, states, scan_in_bits
        ):
            if self.obfuscation_enabled:
                chain_key = [key[i] for i in key_indices]
            else:
                chain_key = [0] * len(key_indices)
            new_states.append(shift_cycle(chain_spec, state, bit, chain_key, xor_int))
        return new_states

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
        self.keystream.restart()
        self._sim.reset(0)

        patterns = self._split(scan_in)
        max_len = spec.max_length
        states = [[0] * length for length in spec.chain_lengths]

        # Load: max_len edges; chain c is padded for max_len - len_c edges.
        for t in range(max_len):
            key = self.keystream.next_key()
            si_bits = []
            for chain, length in enumerate(spec.chain_lengths):
                pad = max_len - length
                if t < pad:
                    si_bits.append(0)
                else:
                    # Bit destined for position l enters at edge
                    # max_len - 1 - l; invert for the entering index.
                    si_bits.append(patterns[chain][max_len - 1 - t])
            states = self._shift_all_chains(states, si_bits, key)

        # Capture edges.
        applied: list[int] = []
        for state in states:
            applied.extend(state)
        self._sim.set_state_vector(applied)
        nets = self.netlist.inputs
        if primary_inputs is None:
            inputs = {net: 0 for net in nets}
        else:
            if len(primary_inputs) != len(nets):
                raise ValueError("primary input width mismatch")
            inputs = dict(zip(nets, primary_inputs))
        primary_outputs: list[int] = []
        for _ in range(n_captures):
            self.keystream.next_key()
            values = self._sim.step(inputs)
            primary_outputs = [values[net] for net in self.netlist.outputs]
        captured_global = self._sim.get_state_vector()
        states = self._split(captured_global)

        # Unload: max_len - 1 edges; chain c's position l is read after
        # len_c - 1 - l edges (sampled before the edge that would move it
        # past the scan-out pin).
        observed: list[list[int | None]] = [
            [None] * length for length in spec.chain_lengths
        ]
        for chain, state in enumerate(states):
            observed[chain][len(state) - 1] = state[-1]
        for j in range(max_len - 1):
            key = self.keystream.next_key()
            states = self._shift_all_chains(states, [0] * spec.n_chains, key)
            for chain, state in enumerate(states):
                length = len(state)
                position = length - 1 - (j + 1)
                if position >= 0:
                    observed[chain][position] = state[-1]

        scan_out: list[int] = []
        for chain_bits in observed:
            assert all(bit is not None for bit in chain_bits)
            scan_out.extend(int(bit) for bit in chain_bits)  # type: ignore[arg-type]
        return ScanResponse(scan_out=scan_out, primary_outputs=primary_outputs)
