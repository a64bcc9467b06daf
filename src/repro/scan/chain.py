"""Scan-chain geometry and generic shift semantics.

Conventions (fixed project-wide):

* chain positions are 0-indexed; position 0 is nearest the scan-in pin,
  position ``n_flops - 1`` drives the scan-out pin;
* a key gate "after flop p" XORs the bit travelling from position ``p`` to
  position ``p + 1`` during a shift cycle (``0 <= p <= n_flops - 2``);
  this matches the paper's Fig. 1 where gates sit *between* scan flops
  (the paper's 1-indexed "after the 1st flop" is our ``p = 0``);
* pattern bit ``a[l]`` is the value the attacker wants in chain position
  ``l`` when shifting completes, so the bit for the farthest position
  enters first;
* a full load takes ``n_flops`` shift edges; unloading all captured bits
  takes ``n_flops - 1`` further edges because the scan-out pin shows the
  last flop combinationally (bit 0 of the response is sampled before any
  unload edge);
* the dynamic key advances on *every* edge, including the capture edge.

The shift routines below are generic in the bit type: concrete ints for
the oracles, which run them once per key schedule on all-zero data to
build their load and unload masks (:mod:`repro.scan.oracle`), or any
object supporting the supplied ``xor`` callable (the symbolic derivation
passes GF(2) affine expressions).  This single implementation is what
guarantees the attack model and the oracle agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

Bit = TypeVar("Bit")


@dataclass(frozen=True)
class ScanChainSpec:
    """Geometry of one locked scan chain.

    ``keygate_positions[g]`` is the flop position whose output the ``g``-th
    key gate XORs; key gate ``g`` is controlled by dynamic-key bit ``g``
    (i.e. LFSR state bit ``g``), following the paper's Algorithm 1 where
    key bit ``i`` pairs with the ``i``-th locked flop location.
    """

    n_flops: int
    keygate_positions: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.n_flops <= 0:
            raise ValueError("a scan chain needs at least one flop")
        seen: set[int] = set()
        for pos in self.keygate_positions:
            if not 0 <= pos <= self.n_flops - 2:
                raise ValueError(
                    f"key gate position {pos} out of range 0..{self.n_flops - 2}"
                )
            if pos in seen:
                raise ValueError(f"duplicate key gate at position {pos}")
            seen.add(pos)
        if list(self.keygate_positions) != sorted(self.keygate_positions):
            raise ValueError("key gate positions must be sorted ascending")

    @property
    def n_keygates(self) -> int:
        return len(self.keygate_positions)

    @classmethod
    def from_paper_positions(
        cls, n_flops: int, after_flops_1indexed: Sequence[int]
    ) -> "ScanChainSpec":
        """Build from the paper's 1-indexed "after the k-th flop" notation.

        Fig. 1 of the paper locks s208 with gates after the 1st, 2nd and
        5th scan flops: ``from_paper_positions(8, [1, 2, 5])``.
        """
        return cls(
            n_flops=n_flops,
            keygate_positions=tuple(sorted(k - 1 for k in after_flops_1indexed)),
        )

    def gate_at(self, position: int) -> int | None:
        """Key-gate index sitting after flop ``position`` (None when clear)."""
        try:
            return self.keygate_positions.index(position)
        except ValueError:
            return None


def shift_cycle(
    spec: ScanChainSpec,
    state: list[Bit],
    scan_in_bit: Bit,
    key: Sequence[Bit],
    xor: Callable[[Bit, Bit], Bit],
) -> list[Bit]:
    """One shift edge: returns the new chain state.

    ``key`` is the dynamic key in effect during this edge, one entry per
    key gate.  Every bit moves one position towards scan-out; only the
    bits crossing a key gate are touched again, so an edge costs one
    list copy plus O(key gates) ``xor`` calls, made in position order.
    """
    if len(state) != spec.n_flops:
        raise ValueError("state length does not match chain length")
    if len(key) < spec.n_keygates:
        raise ValueError("key vector shorter than the number of key gates")
    new_state = [scan_in_bit, *state[:-1]]
    for gate, pos in enumerate(spec.keygate_positions):
        new_state[pos + 1] = xor(state[pos], key[gate])
    return new_state


def shift_in(
    spec: ScanChainSpec,
    initial_state: list[Bit],
    pattern: Sequence[Bit],
    keys: Sequence[Sequence[Bit]],
    xor: Callable[[Bit, Bit], Bit],
) -> list[Bit]:
    """Shift a full pattern in (``n_flops`` edges).

    ``pattern[l]`` targets chain position ``l``; ``keys[c]`` is the dynamic
    key during edge ``c``.  Returns the final chain state (what actually
    got applied to the circuit -- the paper's ``a'``).
    """
    n = spec.n_flops
    if len(pattern) != n:
        raise ValueError("pattern length does not match chain length")
    if len(keys) < n:
        raise ValueError(f"need {n} per-edge keys, got {len(keys)}")
    state = list(initial_state)
    for c in range(n):
        state = shift_cycle(spec, state, pattern[n - 1 - c], keys[c], xor)
    return state


def shift_out(
    spec: ScanChainSpec,
    captured_state: list[Bit],
    keys: Sequence[Sequence[Bit]],
    xor: Callable[[Bit, Bit], Bit],
    fill_bit: Bit,
) -> list[Bit]:
    """Unload the chain (``n_flops - 1`` edges), returning observed bits.

    Returns ``observed`` where ``observed[l]`` is what the tester records
    for the bit captured in position ``l`` (the paper's ``b``): position
    ``n-1`` is read immediately, position ``l`` after ``n - 1 - l`` edges.
    ``keys[j]`` is the key during unload edge ``j`` (0-based).
    """
    n = spec.n_flops
    if len(captured_state) != n:
        raise ValueError("state length does not match chain length")
    if len(keys) < n - 1:
        raise ValueError(f"need {n - 1} per-edge keys, got {len(keys)}")
    observed: list[Bit] = [captured_state[n - 1]]  # position n-1, zero edges
    state = list(captured_state)
    for j in range(n - 1):
        state = shift_cycle(spec, state, fill_bit, keys[j], xor)
        observed.append(state[n - 1])
    # observed[c] is the bit that started at position n-1-c; re-index by
    # original position.
    by_position: list[Bit] = [observed[n - 1 - l] for l in range(n)]
    return by_position


def shift_out_start_indices(n_flops: int) -> list[int]:
    """For docs/tests: unload edge count after which position ``l`` appears."""
    return [n_flops - 1 - l for l in range(n_flops)]


def xor_int(a: int, b: int) -> int:
    """Concrete-bit XOR used by the oracle."""
    return a ^ b
