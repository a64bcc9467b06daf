"""Bit-vector helpers.

Throughout the library a *bit vector* is a plain ``list[int]`` whose
elements are 0 or 1.  Index 0 is, by convention, the least significant bit
when converting to and from integers, and the first-shifted bit when the
vector describes a scan stream.  Keeping the representation this simple
makes every module (simulator, SAT encoder, LFSR) interoperable without
adapter layers.

For bulk evaluation there is a second, *packed* representation: a single
``int`` whose bit ``j`` carries lane ``j``'s value, so one Python bitwise
operation evaluates up to :data:`PACK_WORD_BITS` (or arbitrarily many)
patterns at once.  :func:`pack_lanes` / :func:`unpack_lanes` convert a
pattern matrix to and from its packed columns; the bit-parallel simulator
(:class:`repro.sim.logicsim.BitParallelSimulator`) consumes them.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence


def bits_to_str(bits: Sequence[int]) -> str:
    """Render a bit vector with index 0 leftmost, e.g. ``"0110"``."""
    for bit in bits:
        _check_bit(bit)
    return "".join("1" if b else "0" for b in bits)


def parity(bits: Iterable[int]) -> int:
    """XOR-reduce a bit iterable (GF(2) sum)."""
    acc = 0
    for bit in bits:
        _check_bit(bit)
        acc ^= bit
    return acc


def random_bits(width: int, rng: random.Random) -> list[int]:
    """Draw ``width`` uniform bits from ``rng``.

    The stream is ``[rng.randrange(2) for _ in range(width)]``'s, and
    ``rng`` ends in the same state.  On CPython ``randrange(2)`` draws
    ``getrandbits(2)`` until the value is below 2; this loop does the
    same without ``randrange``'s argument handling.
    """
    draw = rng.getrandbits
    bits: list[int] = []
    while len(bits) < width:
        bit = draw(2)
        if bit < 2:
            bits.append(bit)
    return bits


# ----------------------------------------------------------------------
# packed-integer lanes (bit-parallel simulation substrate)
# ----------------------------------------------------------------------

#: Natural chunk width for packed evaluation.  Python ints are unbounded,
#: but chunking long pattern sets into 64-lane words keeps each bitwise
#: operation a single machine word under the hood.
PACK_WORD_BITS = 64


def lane_mask(n_lanes: int) -> int:
    """The all-ones word over ``n_lanes`` lanes."""
    if n_lanes < 0:
        raise ValueError("lane count must be non-negative")
    return (1 << n_lanes) - 1


def broadcast_bit(bit: int, n_lanes: int) -> int:
    """Replicate one bit across ``n_lanes`` lanes (0 or the full mask)."""
    _check_bit(bit)
    return lane_mask(n_lanes) if bit else 0


def pack_lanes(rows: Sequence[Sequence[int]]) -> list[int]:
    """Column-pack a pattern matrix: lane ``j`` of word ``i`` is ``rows[j][i]``.

    Every row (one pattern / one lane) must have the same width.  Returns
    one packed word per column.

    >>> pack_lanes([[1, 0], [1, 1], [0, 1]])
    [3, 6]
    """
    if not rows:
        return []
    width = len(rows[0])
    words = [0] * width
    for lane, row in enumerate(rows):
        if len(row) != width:
            raise ValueError("rows must all have the same width")
        bit = 1 << lane
        for i, value in enumerate(row):
            _check_bit(value)
            if value:
                words[i] |= bit
    return words


def unpack_lanes(words: Sequence[int], n_lanes: int) -> list[list[int]]:
    """Inverse of :func:`pack_lanes`: recover ``n_lanes`` rows.

    >>> unpack_lanes([3, 6], 3)
    [[1, 0], [1, 1], [0, 1]]
    """
    return [
        [(word >> lane) & 1 for word in words] for lane in range(n_lanes)
    ]


def _check_bit(bit: int) -> None:
    if bit not in (0, 1):
        raise ValueError(f"bit values must be 0 or 1, got {bit!r}")
