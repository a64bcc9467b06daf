"""Keyed scan-chain scrambling (extension beyond the paper).

A different obfuscation family from the XOR overlays of EFF/DOS: instead
of corrupting the *values* travelling through the chain, the defense
scrambles *where* they go.  The flops are stitched into many parallel
chains (:mod:`repro.scan.multichain`) and a secret key drives routing
multiplexers at the scan pins: key bit ``t`` swaps the tester-visible
chain slots of one fixed pair of equal-length chains, so the tester's
pattern lands in permuted chains and the captured response is read back
through the same permutation.  With the correct key every swap is
inactive and the tester sees the chains in their documented order.

Threat model matches the rest of the repo: the multiplexer structure
(which pairs can swap) is reverse-engineerable, the key is not.  Because
the permutation is static and key-selected, the scheme reduces to a
MUX-locked combinational model that the plain SAT attack consumes --
implemented in :mod:`repro.attack.scramble_sat` and wired into the
matrix registry as this defense's characterizing attack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.locking.eff import ConstantKeystream
from repro.netlist.netlist import Netlist
from repro.scan.multichain import MultiChainScanOracle, MultiChainSpec
from repro.scan.oracle import ScanResponse
from repro.util.bitvec import random_bits


def balanced_swap_layout(
    n_flops: int, key_bits: int
) -> tuple[MultiChainSpec, tuple[tuple[int, int], ...]]:
    """Split ``n_flops`` into chains and pick one swap pair per key bit.

    Targets ``2 * key_bits`` balanced chains and pairs chains of *equal
    length* (a swap between unequal chains would not be a bijection on
    positions).  When the balanced split leaves an odd count at some
    length, the leftover chain stays unswapped, so the realised key may
    be one bit narrower than requested -- callers read the actual width
    off the returned pair list.
    """
    if key_bits < 1:
        raise ValueError("scramble locking needs at least one key bit")
    n_chains = min(2 * key_bits, n_flops)
    if n_chains < 2:
        raise ValueError(f"cannot scramble {n_flops} flop(s): need >= 2 chains")
    spec = MultiChainSpec.balanced(n_flops, n_chains)
    buckets: dict[int, list[int]] = {}
    for chain, length in enumerate(spec.chain_lengths):
        buckets.setdefault(length, []).append(chain)
    pairs: list[tuple[int, int]] = []
    for length in sorted(buckets, reverse=True):
        chains = buckets[length]
        for i in range(0, len(chains) - 1, 2):
            pairs.append((chains[i], chains[i + 1]))
    if not pairs:
        raise ValueError(
            f"no equal-length chain pair available for {n_flops} flops"
        )
    return spec, tuple(pairs[:key_bits])


def swap_index_map(
    chains: MultiChainSpec,
    swap_pairs: Sequence[tuple[int, int]],
    key: Sequence[int],
) -> list[int]:
    """Global-index routing under ``key``: slot ``g`` maps to ``m[g]``.

    The permutation is an involution (a product of disjoint equal-length
    chain swaps), so the same map routes patterns in and responses out.
    """
    if len(key) != len(swap_pairs):
        raise ValueError("one key bit per swap pair is required")
    mapping = list(range(chains.n_flops))
    for bit, (c1, c2) in zip(key, swap_pairs):
        if not bit:
            continue
        base1 = chains.flop_index(c1, 0)
        base2 = chains.flop_index(c2, 0)
        for p in range(chains.chain_lengths[c1]):
            mapping[base1 + p] = base2 + p
            mapping[base2 + p] = base1 + p
    return mapping


@dataclass(frozen=True)
class ScramblePublicView:
    """What reverse engineering reveals: geometry and swappable pairs."""

    chains: MultiChainSpec
    swap_pairs: tuple[tuple[int, int], ...]

    @property
    def key_bits(self) -> int:
        return len(self.swap_pairs)


class ScrambleScanOracle:
    """The chip: a multi-chain tester interface behind keyed routing MUXes.

    API mirrors :class:`repro.scan.oracle.ScanOracle`: ``query`` takes
    the tester's pattern in *slot* order and returns the response the
    tester observes -- both passed through the secret permutation.  The
    underlying protocol simulation is the unobfuscated multi-chain
    oracle, whose load and unload masks are all zero; the scramble layer
    only re-routes pins, exactly like the physical MUXes would.
    """

    def __init__(
        self,
        netlist: Netlist,
        chains: MultiChainSpec,
        swap_pairs: Sequence[tuple[int, int]],
        secret_key: Sequence[int],
    ):
        self._inner = MultiChainScanOracle(
            netlist, chains, ConstantKeystream([]), obfuscation_enabled=False
        )
        self._map = swap_index_map(chains, swap_pairs, secret_key)
        self.netlist = netlist
        self.chains = chains
        self.query_count = 0

    @property
    def n_flops(self) -> int:
        return self.chains.n_flops

    def query(
        self,
        scan_in: Sequence[int],
        primary_inputs: Sequence[int] | None = None,
        n_captures: int = 1,
    ) -> ScanResponse:
        if len(scan_in) != self.chains.n_flops:
            raise ValueError(f"scan_in must have {self.chains.n_flops} bits")
        self.query_count += 1
        m = self._map
        routed = [scan_in[m[g]] for g in range(len(m))]
        response = self._inner.query(routed, primary_inputs, n_captures=n_captures)
        observed = [response.scan_out[m[g]] for g in range(len(m))]
        return ScanResponse(
            scan_out=observed, primary_outputs=response.primary_outputs
        )


@dataclass
class ScrambleLock:
    """A circuit whose scan access is behind a keyed chain permutation."""

    netlist: Netlist
    chains: MultiChainSpec
    swap_pairs: tuple[tuple[int, int], ...]
    secret_key: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.secret_key) != len(self.swap_pairs):
            raise ValueError("one secret key bit per swap pair is required")

    @property
    def key_bits(self) -> int:
        return len(self.secret_key)

    def public_view(self) -> ScramblePublicView:
        return ScramblePublicView(chains=self.chains, swap_pairs=self.swap_pairs)

    def make_oracle(self) -> ScrambleScanOracle:
        return ScrambleScanOracle(
            self.netlist, self.chains, self.swap_pairs, self.secret_key
        )


def lock_with_scramble(
    netlist: Netlist,
    key_bits: int,
    rng: random.Random,
    secret_key: Sequence[int] | None = None,
) -> ScrambleLock:
    """Lock a sequential netlist with keyed chain scrambling.

    The realised key width is ``len(lock.swap_pairs)`` and may be
    narrower than ``key_bits`` when no further equal-length chain pair
    exists (see :func:`balanced_swap_layout`).
    """
    chains, pairs = balanced_swap_layout(netlist.n_dffs, key_bits)
    if secret_key is None:
        key = random_bits(len(pairs), rng)
    else:
        key = [int(b) for b in secret_key]
        if len(key) != len(pairs):
            raise ValueError(f"explicit secret key must have {len(pairs)} bits")
    return ScrambleLock(
        netlist=netlist,
        chains=chains,
        swap_pairs=pairs,
        secret_key=tuple(key),
    )
