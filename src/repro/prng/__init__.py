"""PRNG substrate: LFSRs, their tap polynomials, and symbolic unrolling.

EFF-Dyn generates a fresh scan-obfuscation key every clock cycle from an
LFSR seeded with a secret.  The attack exploits the LFSR's *linearity*:
every keystream bit is a fixed GF(2) combination of the seed bits, so the
whole keystream can be represented symbolically and compiled into XOR
networks whose primary "key inputs" are the seed bits themselves.
"""

from repro.prng.lfsr import FibonacciLfsr, GaloisLfsr, Keystream
from repro.prng.polynomials import default_taps, PRIMITIVE_TAPS, is_maximal_length
from repro.prng.matrix import companion_matrix, lfsr_state_after
from repro.prng.symbolic import SymbolicLfsr
from repro.prng.nonlinear import NonlinearPrng

__all__ = [
    "FibonacciLfsr",
    "GaloisLfsr",
    "Keystream",
    "default_taps",
    "PRIMITIVE_TAPS",
    "is_maximal_length",
    "companion_matrix",
    "lfsr_state_after",
    "SymbolicLfsr",
    "NonlinearPrng",
]
