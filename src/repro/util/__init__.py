"""Shared low-level utilities: bit vectors, deterministic RNG, timing."""

from repro.util.bitvec import (
    bits_from_str,
    bits_to_str,
    parity,
    random_bits,
)
from repro.util.rng import DeterministicRng
from repro.util.timing import Stopwatch

__all__ = [
    "bits_from_str",
    "bits_to_str",
    "parity",
    "random_bits",
    "DeterministicRng",
    "Stopwatch",
]
