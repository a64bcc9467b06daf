"""Linear feedback shift registers.

Conventions (matching the paper's Algorithm 1, where the new bit appears at
index 0 and older bits shift toward higher indices):

* state ``s[0..w-1]``; the *dynamic key* delivered to the key gates is the
  full state vector, key-gate ``i`` consuming state bit ``i``;
* one update computes ``new = XOR(s[t] for t in taps)`` and sets
  ``s = [new] + s[:-1]``;
* at power-on the register holds the seed; the key used during the first
  obfuscated clock cycle is the state *after one update*, i.e. ``T @ seed``
  (``k^1`` in the paper's notation).

The :class:`Keystream` wrapper pins down that off-by-one in exactly one
place so the oracle simulator and the symbolic attack model can never
disagree about it.
"""

from __future__ import annotations

from typing import Sequence

from repro.prng.polynomials import default_taps


class FibonacciLfsr:
    """External-feedback (Fibonacci) LFSR."""

    def __init__(
        self,
        width: int,
        seed_bits: Sequence[int],
        taps: Sequence[int] | None = None,
    ):
        if width < 2:
            raise ValueError("LFSR width must be at least 2")
        if len(seed_bits) != width:
            raise ValueError(f"seed length {len(seed_bits)} != width {width}")
        self.width = width
        self.taps: tuple[int, ...] = tuple(sorted(taps)) if taps else default_taps(width)
        if not self.taps:
            raise ValueError("at least one tap is required")
        for tap in self.taps:
            if not 0 <= tap < width:
                raise ValueError(f"tap {tap} out of range for width {width}")
        if (width - 1) not in self.taps:
            raise ValueError("the final stage (width-1) must be tapped")
        self.seed: list[int] = [_bit(b) for b in seed_bits]
        self.state: list[int] = list(self.seed)

    def advance(self) -> list[int]:
        """Apply one update; returns the new state."""
        new_bit = 0
        for tap in self.taps:
            new_bit ^= self.state[tap]
        self.state = [new_bit] + self.state[:-1]
        return self.state

    def reset(self) -> None:
        """Reload the seed (models power-on reset of the chip)."""
        self.state = list(self.seed)


class GaloisLfsr:
    """Internal-feedback (Galois) LFSR.

    Provided for completeness of the substrate: some DOS-style designs use
    Galois form.  The attack machinery only requires linearity, which both
    forms share; :class:`repro.prng.symbolic.SymbolicLfsr` accepts a
    generic update matrix and therefore covers this variant too.
    """

    def __init__(
        self,
        width: int,
        seed_bits: Sequence[int],
        taps: Sequence[int] | None = None,
    ):
        if width < 2:
            raise ValueError("LFSR width must be at least 2")
        if len(seed_bits) != width:
            raise ValueError(f"seed length {len(seed_bits)} != width {width}")
        self.width = width
        self.taps: tuple[int, ...] = tuple(sorted(taps)) if taps else default_taps(width)
        self.seed: list[int] = [_bit(b) for b in seed_bits]
        self.state: list[int] = list(self.seed)

    def advance(self) -> list[int]:
        # Standard Galois step: shift toward index 0; the bit falling off
        # re-enters through the tap mask.  The final stage is always
        # tapped (table invariant), which makes the update a bijection on
        # the state space.
        out = self.state[0]
        shifted = self.state[1:] + [0]
        if out:
            for tap in self.taps:
                shifted[tap] ^= 1
        self.state = shifted
        return self.state

    def reset(self) -> None:
        self.state = list(self.seed)


class Keystream:
    """The per-cycle dynamic key sequence of a PRNG.

    The ``t + 1``-th :meth:`next_key` is the key-gate control vector
    during obfuscated clock cycle ``t`` (t >= 0): the LFSR state after
    ``t + 1`` updates from the seed.  ``restart`` rewinds to power-on.
    """

    def __init__(self, lfsr: FibonacciLfsr | GaloisLfsr):
        self._lfsr = lfsr

    @property
    def width(self) -> int:
        return self._lfsr.width

    def next_key(self) -> list[int]:
        """Advance one clock cycle and return the key for it."""
        return list(self._lfsr.advance())

    def restart(self) -> None:
        self._lfsr.reset()


def _bit(value: int) -> int:
    if value not in (0, 1):
        raise ValueError(f"seed bits must be 0/1, got {value!r}")
    return int(value)
