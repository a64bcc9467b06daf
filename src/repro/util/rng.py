"""Stable seed derivation.

Every stochastic component in the library (benchmark generator, key-gate
placement, lock secrets, fuzz trials) draws from a :class:`random.Random`
its caller passes in.  The experiment grids, the fuzzer and the farm
seed it with :func:`hash_label` of an integer seed and a label naming
the cell, so every cell is exactly reproducible from its own parameters,
mirroring how the paper reports averages over ten fixed LFSR seeds.
"""

from __future__ import annotations


def hash_label(seed: int, label: str) -> int:
    """Stable 64-bit mix of an integer seed and a string label.

    ``hash()`` is salted per-process for strings, so we implement a small
    FNV-1a style mix that is stable across runs and platforms.
    """
    acc = (seed * 0x9E3779B97F4A7C15 + 0xCBF29CE484222325) & 0xFFFFFFFFFFFFFFFF
    for ch in label:
        acc ^= ord(ch)
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc
