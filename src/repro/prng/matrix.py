"""Matrix view of LFSR dynamics over GF(2).

A Fibonacci LFSR update is linear: ``s' = T s`` where ``T`` is the
companion matrix (row 0 = tap indicator, row j picks bit j-1).  The state
after ``t`` updates is ``T^t seed`` -- the algebraic fact DynUnlock's
combinational modeling compiles into XOR networks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.gf2.matrix import GF2Matrix


def companion_matrix(width: int, taps: Sequence[int]) -> GF2Matrix:
    """Update matrix of a Fibonacci LFSR (state as column vector)."""
    mat = np.zeros((width, width), dtype=np.uint8)
    for tap in taps:
        if not 0 <= tap < width:
            raise ValueError(f"tap {tap} out of range for width {width}")
        mat[0, tap] = 1
    for row in range(1, width):
        mat[row, row - 1] = 1
    return GF2Matrix(mat)


def lfsr_state_after(
    width: int, taps: Sequence[int], seed: Sequence[int], steps: int
) -> list[int]:
    """State after ``steps`` updates, computed via matrix power.

    Cross-checked in tests against iterating
    :class:`repro.prng.lfsr.FibonacciLfsr` -- the two must agree exactly.
    """
    t_matrix = companion_matrix(width, taps)
    return t_matrix.pow(steps).mul_vec(list(seed))
