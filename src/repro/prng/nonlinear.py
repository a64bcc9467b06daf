"""A deliberately non-linear PRNG stand-in.

Section V of the paper concedes that DynUnlock cannot break defenses whose
dynamic keys come from cryptographic functions or PUFs, because those
cannot be modelled as compact combinational (and in particular linear)
logic.  This module provides the stand-in used by the corresponding
ablation bench: a small nonlinear filter generator (LFSR state passed
through AND-mixing) whose keystream is *not* an affine function of the
seed, so the linear modeling step demonstrably fails.
"""

from __future__ import annotations

from typing import Sequence

from repro.prng.lfsr import FibonacciLfsr


class NonlinearPrng:
    """Filter generator: Fibonacci LFSR core + nonlinear output layer.

    Output bit ``i`` of each cycle is ``s[i] XOR (s[(i+1) % w] AND
    s[(i+3) % w])`` -- a bent-function-flavoured mix that breaks linearity
    while keeping the state update itself an ordinary LFSR (so periods stay
    long).  The class intentionally mirrors the
    :class:`repro.prng.lfsr.Keystream` interface so defenses can swap it in
    without code changes.
    """

    def __init__(
        self,
        width: int,
        seed_bits: Sequence[int],
        taps: Sequence[int] | None = None,
    ):
        self._lfsr = FibonacciLfsr(width=width, seed_bits=seed_bits, taps=taps)
        self.width = width

    def _filter(self, state: Sequence[int]) -> list[int]:
        w = self.width
        return [
            state[i] ^ (state[(i + 1) % w] & state[(i + 3) % w]) for i in range(w)
        ]

    def next_key(self) -> list[int]:
        return self._filter(self._lfsr.advance())

    def restart(self) -> None:
        self._lfsr.reset()
