"""Symbolic LFSR unrolling.

Two symbolic views of the same keystream, both rooted in the linearity of
the LFSR update:

* :class:`SymbolicLfsr` tracks, per cycle, the dense GF(2) dependence of
  every state bit on the seed bits (a width x width bit matrix).  This is
  what the overlay-matrix derivation and the affine candidate-counting
  analysis consume.
* :class:`LfsrUnrolling` materialises the keystream as XOR gates inside a
  netlist, with the seed bits as primary (key) inputs.  Because a shift
  register only creates one genuinely new bit per update, the unrolled
  network needs just *one* XOR gate per cycle -- all other state bits are
  aliases of earlier nets.  DynUnlock's combinational model references
  these nets directly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist, NetNamer
from repro.prng.matrix import companion_matrix


class SymbolicLfsr:
    """Seed-dependence matrices of the keystream, computed incrementally.

    ``rows_for_cycle(t)`` returns a ``width x width`` uint8 matrix ``R``
    such that the dynamic key during obfuscated cycle ``t`` equals
    ``R @ seed`` over GF(2) (i.e. ``R = T^(t+1)``).  The update is done
    with row shifts instead of matrix powers, costing O(width^2) per cycle.
    """

    def __init__(self, width: int, taps: Sequence[int]):
        self.width = width
        self.taps = tuple(sorted(taps))
        self._rows = np.eye(width, dtype=np.uint8)  # T^0
        self._updates = 0
        self._cache: dict[int, np.ndarray] = {}

    def _advance(self) -> None:
        new_row = np.zeros(self.width, dtype=np.uint8)
        for tap in self.taps:
            new_row ^= self._rows[tap]
        shifted = np.empty_like(self._rows)
        shifted[1:] = self._rows[:-1]
        shifted[0] = new_row
        self._rows = shifted
        self._updates += 1

    def rows_for_cycle(self, t: int) -> np.ndarray:
        """Dependence matrix of the key used during cycle ``t`` (>= 0)."""
        if t < 0:
            raise ValueError("cycle index must be >= 0")
        target = t + 1
        if target in self._cache:
            return self._cache[target]
        if target < self._updates:
            # Random access backwards: recompute via matrix power (rare).
            mat = companion_matrix(self.width, self.taps).pow(target)
            result = mat.data.copy()
            self._cache[target] = result
            return result
        while self._updates < target:
            self._advance()
        result = self._rows.copy()
        self._cache[target] = result
        return result

    def key_row(self, t: int, bit: int) -> np.ndarray:
        """Seed-dependence vector of key bit ``bit`` during cycle ``t``."""
        return self.rows_for_cycle(t)[bit]

    def iter_rows(self, cycles) -> "list[tuple[int, np.ndarray]]":
        """Yield ``(cycle, rows)`` for many cycles in one forward sweep.

        Cycles are visited in ascending order regardless of input order,
        advancing the register incrementally and *without* caching a
        snapshot per cycle -- the memory-friendly path for whole-overlay
        derivations (thousands of cycles at paper scale).  The yielded
        array is a live view; callers must copy if they retain it.
        """
        for t in sorted(set(int(c) for c in cycles)):
            if t < 0:
                raise ValueError("cycle index must be >= 0")
            target = t + 1
            if target < self._updates:
                yield t, self.rows_for_cycle(t)
                continue
            while self._updates < target:
                self._advance()
            yield t, self._rows


class LfsrUnrolling:
    """Keystream compiled into XOR gates of a netlist.

    ``key_net(t, i)`` names the net carrying key bit ``i`` of cycle ``t``.
    The construction is lazy: XOR gates for "new bits" are only created for
    updates actually referenced, so models of partially-covered chains stay
    small.
    """

    def __init__(
        self,
        netlist: Netlist,
        seed_nets: Sequence[str],
        taps: Sequence[int],
        namer: NetNamer | None = None,
    ):
        self.netlist = netlist
        self.seed_nets = list(seed_nets)
        self.width = len(seed_nets)
        self.taps = tuple(sorted(taps))
        self._namer = namer or NetNamer(netlist, prefix="lfsr_")
        self._newbit_nets: dict[int, str] = {}

    def key_net(self, t: int, bit: int) -> str:
        """Net of key bit ``bit`` used during obfuscated cycle ``t``.

        The key for cycle ``t`` is the state after ``t + 1`` updates; state
        bit ``i`` after ``u`` updates is the new bit of update ``u - i``
        when ``u - i >= 1`` and seed bit ``i - u`` otherwise.
        """
        if t < 0:
            raise ValueError("cycle index must be >= 0")
        if not 0 <= bit < self.width:
            raise ValueError(f"key bit {bit} out of range")
        return self._state_bit_net(updates=t + 1, bit=bit)

    def _state_bit_net(self, updates: int, bit: int) -> str:
        creation_update = updates - bit
        if creation_update <= 0:
            return self.seed_nets[bit - updates]
        return self._newbit_net(creation_update)

    def _newbit_net(self, update: int) -> str:
        existing = self._newbit_nets.get(update)
        if existing is not None:
            return existing
        operands = [
            self._state_bit_net(updates=update - 1, bit=tap) for tap in self.taps
        ]
        net = self._namer.fresh(hint=f"k{update}_")
        if len(operands) == 1:
            self.netlist.add_gate(net, GateType.BUF, operands)
        else:
            self.netlist.add_gate(net, GateType.XOR, operands)
        self._newbit_nets[update] = net
        return net

    @property
    def n_gates_created(self) -> int:
        return len(self._newbit_nets)
