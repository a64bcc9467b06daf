"""GF(2) linear algebra substrate.

The dynamic scan obfuscation overlay is *affine over GF(2)* in the LFSR
seed: every scrambled bit equals the original bit XOR a fixed linear
combination of seed bits.  This package supplies the matrix machinery used
to (a) unroll LFSR state symbolically, (b) derive the scan overlay
matrices, and (c) count/enumerate the affine space of surviving seed
candidates after the SAT attack converges.
"""

from repro.gf2.matrix import GF2Matrix, identity, zeros
from repro.gf2.solve import (
    gaussian_eliminate,
    rank,
    solve_affine,
    nullspace_basis,
    enumerate_affine_solutions,
)

__all__ = [
    "GF2Matrix",
    "identity",
    "zeros",
    "gaussian_eliminate",
    "rank",
    "solve_affine",
    "nullspace_basis",
    "enumerate_affine_solutions",
]
