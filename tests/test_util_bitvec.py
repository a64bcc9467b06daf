"""Unit tests for repro.util.bitvec."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.util.bitvec import (
    bits_to_str,
    parity,
    random_bits,
)


class TestBitStrings:
    def test_render(self):
        assert bits_to_str([1, 0, 1]) == "101"

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=64))
    def test_roundtrip(self, bits):
        assert [int(ch) for ch in bits_to_str(bits)] == bits


class TestParity:
    def test_even(self):
        assert parity([1, 1, 0]) == 0

    def test_odd(self):
        assert parity([1, 1, 1]) == 1

    def test_empty(self):
        assert parity([]) == 0

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=100))
    def test_matches_sum_mod2(self, bits):
        assert parity(bits) == sum(bits) % 2


class TestRandomBits:
    def test_length_and_range(self):
        bits = random_bits(100, random.Random(3))
        assert len(bits) == 100
        assert set(bits) <= {0, 1}

    def test_deterministic(self):
        assert random_bits(32, random.Random(5)) == random_bits(32, random.Random(5))

    def test_stream_is_randrange_2s(self):
        for seed in range(200):
            for width in (0, 1, 2, 7, 64, 300):
                ours, theirs = random.Random(seed), random.Random(seed)
                assert random_bits(width, ours) == [
                    theirs.randrange(2) for _ in range(width)
                ]
                assert ours.random() == theirs.random()


# ----------------------------------------------------------------------
# hypothesis property suites: packed lanes vs the scalar reference
# ----------------------------------------------------------------------
from repro.util.bitvec import (  # noqa: E402
    PACK_WORD_BITS,
    broadcast_bit,
    lane_mask,
    pack_lanes,
    unpack_lanes,
)

bit = st.integers(min_value=0, max_value=1)


def bit_matrix(max_rows=8, max_width=16):
    """Strategy: a non-ragged 0/1 matrix (rows = lanes, columns = nets)."""
    return st.integers(min_value=0, max_value=max_width).flatmap(
        lambda width: st.lists(
            st.lists(bit, min_size=width, max_size=width),
            min_size=1,
            max_size=max_rows,
        )
    )


class TestPackedLaneProperties:
    @given(bit_matrix())
    def test_pack_unpack_round_trip(self, rows):
        assert unpack_lanes(pack_lanes(rows), len(rows)) == rows

    @given(bit_matrix())
    def test_packing_matches_scalar_bits(self, rows):
        """Word ``i`` bit ``lane`` is exactly ``rows[lane][i]``."""
        words = pack_lanes(rows)
        assert len(words) == len(rows[0])
        for i, word in enumerate(words):
            assert word >> len(rows) == 0  # no stray high lanes
            for lane, row in enumerate(rows):
                assert (word >> lane) & 1 == row[i]

    @given(st.lists(bit, min_size=1, max_size=16),
           st.integers(min_value=1, max_value=PACK_WORD_BITS))
    def test_broadcast_equals_packing_identical_rows(self, bits, n_lanes):
        assert pack_lanes([bits] * n_lanes) == [
            broadcast_bit(b, n_lanes) for b in bits
        ]

    @given(st.integers(min_value=0, max_value=256))
    def test_lane_mask_is_all_ones(self, n):
        assert lane_mask(n) == sum(1 << lane for lane in range(n))

    @given(st.lists(bit, min_size=1, max_size=64))
    def test_int_round_trip_at_exact_width(self, bits):
        """One column packs into the int whose bit ``i`` is ``bits[i]``."""
        (word,) = pack_lanes([[b] for b in bits])
        assert word == sum(b << lane for lane, b in enumerate(bits))
        assert unpack_lanes([word], len(bits)) == [[b] for b in bits]

    def test_pack_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            pack_lanes([[0, 1], [1]])

    def test_pack_rejects_non_bits(self):
        with pytest.raises(ValueError):
            pack_lanes([[0, 2]])
