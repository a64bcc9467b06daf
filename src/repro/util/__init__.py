"""Shared low-level utilities: bit vectors, stable seed derivation, timing."""

from repro.util.bitvec import (
    bits_to_str,
    parity,
    random_bits,
)
from repro.util.timing import Stopwatch

__all__ = [
    "bits_to_str",
    "parity",
    "random_bits",
    "Stopwatch",
]
