"""GF(2) analysis of the obfuscation overlay and the candidate space.

Explains (and lets experiments verify) two phenomena the paper reports:

* the whole scramble is affine in the seed, so the set of seeds surviving
  the SAT attack is an affine subspace -- candidate counts are powers of
  two (1, 2, 4, 16, 128 in Tables II and III);
* more scan flops mean more overlay rows, i.e. more linear observations
  of the seed per DIP, which is why larger circuits resolve the seed
  uniquely ("attack success should be higher ... seed bits repeat for a
  larger number of times").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.modeling import (
    derive_shift_in_crossings,
    derive_shift_out_crossings,
)
from repro.gf2.matrix import GF2Matrix
from repro.gf2.solve import rank
from repro.prng.symbolic import SymbolicLfsr
from repro.scan.chain import ScanChainSpec


def overlay_matrices(
    spec: ScanChainSpec,
    taps: Sequence[int],
    key_bits: int,
    n_captures: int = 1,
) -> tuple[GF2Matrix, GF2Matrix]:
    """Dense seed-space overlay matrices ``(M_in, M_out)``.

    ``a' = a XOR M_in @ seed`` and ``b = b' XOR M_out @ seed`` over GF(2),
    rows indexed by chain position.
    """
    sym = SymbolicLfsr(width=key_bits, taps=tuple(taps))
    n = spec.n_flops
    crossings_in = derive_shift_in_crossings(spec)
    crossings_out = derive_shift_out_crossings(spec, n_captures=n_captures)

    # Resolve all keystream rows in one ascending sweep (cheap at scale).
    m_in = np.zeros((n, key_bits), dtype=np.uint8)
    m_out = np.zeros((n, key_bits), dtype=np.uint8)
    wanted: dict[int, list[tuple[np.ndarray, int, int]]] = {}
    for target, crossing_list in ((m_in, crossings_in), (m_out, crossings_out)):
        for l, crossing in enumerate(crossing_list):
            for cycle, gate in crossing:
                wanted.setdefault(cycle, []).append((target, l, gate))
    for cycle, rows in sym.iter_rows(wanted.keys()):
        for target, l, gate in wanted[cycle]:
            target[l] ^= rows[gate]
    return GF2Matrix(m_in), GF2Matrix(m_out)


def overlay_rank(spec: ScanChainSpec, taps: Sequence[int], key_bits: int) -> int:
    """Rank of the stacked overlay ``[M_in; M_out]``.

    An upper bound on how many seed bits scan observations can pin down
    *linearly*; when it equals ``key_bits`` a unique seed is information-
    theoretically reachable from chain observations alone.
    """
    m_in, m_out = overlay_matrices(spec, taps, key_bits)
    stacked = GF2Matrix(np.vstack([m_in.data, m_out.data]))
    return rank(stacked)


def candidate_space_dimension(candidates: Sequence[Sequence[int]]) -> int:
    """Affine dimension of a set of seed candidates.

    For a complete SAT-attack candidate enumeration the set is an affine
    subspace; its dimension ``d`` satisfies ``len(candidates) == 2**d``.
    The test suite asserts exactly this power-of-two structure.
    """
    if not candidates:
        raise ValueError("no candidates given")
    base = np.array(candidates[0], dtype=np.uint8)
    diffs = [np.array(c, dtype=np.uint8) ^ base for c in candidates[1:]]
    if not diffs:
        return 0
    return rank(GF2Matrix(np.array(diffs, dtype=np.uint8)))


def is_affine_space(candidates: Sequence[Sequence[int]]) -> bool:
    """Check the closure property c1 ^ c2 ^ c3 in S for an enumerated set."""
    if not candidates:
        return True
    dim = candidate_space_dimension(candidates)
    return len(candidates) == (1 << dim)
