"""Tests for scan-chain geometry and the generic shift semantics."""

import random

import pytest

from repro.core.modeling import _symbolic_keys, _TraceBit, _xor_trace
from repro.scan.chain import (
    ScanChainSpec,
    shift_cycle,
    shift_in,
    shift_out,
    xor_int,
)


class TestScanChainSpec:
    def test_valid_spec(self):
        spec = ScanChainSpec(n_flops=8, keygate_positions=(0, 1, 4))
        assert spec.n_keygates == 3

    def test_from_paper_positions_matches_fig1(self):
        # Fig. 1: key gates after the 1st, 2nd and 5th scan flops of s208.
        spec = ScanChainSpec.from_paper_positions(8, [1, 2, 5])
        assert spec.keygate_positions == (0, 1, 4)

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            ScanChainSpec(n_flops=4, keygate_positions=(3,))  # last slot is 2

    def test_duplicate_positions(self):
        with pytest.raises(ValueError):
            ScanChainSpec(n_flops=4, keygate_positions=(1, 1))

    def test_unsorted_positions(self):
        with pytest.raises(ValueError):
            ScanChainSpec(n_flops=4, keygate_positions=(2, 0))

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            ScanChainSpec(n_flops=0)

    def test_gate_at(self):
        spec = ScanChainSpec(n_flops=8, keygate_positions=(0, 1, 4))
        assert spec.gate_at(0) == 0
        assert spec.gate_at(4) == 2
        assert spec.gate_at(3) is None


class TestShiftCycle:
    def test_plain_shift(self):
        spec = ScanChainSpec(n_flops=3)
        assert shift_cycle(spec, [1, 0, 1], 0, [], xor_int) == [0, 1, 0]

    def test_keyed_shift(self):
        spec = ScanChainSpec(n_flops=3, keygate_positions=(1,))
        # Gate after position 1 flips the bit moving into position 2.
        assert shift_cycle(spec, [0, 1, 0], 1, [1], xor_int) == [1, 0, 0]
        assert shift_cycle(spec, [0, 1, 0], 1, [0], xor_int) == [1, 0, 1]

    def test_state_length_checked(self):
        spec = ScanChainSpec(n_flops=3)
        with pytest.raises(ValueError):
            shift_cycle(spec, [1, 0], 0, [], xor_int)

    def test_key_length_checked(self):
        spec = ScanChainSpec(n_flops=3, keygate_positions=(0,))
        with pytest.raises(ValueError):
            shift_cycle(spec, [1, 0, 0], 0, [], xor_int)


class TestShiftInOut:
    def test_unkeyed_load_places_pattern_by_position(self):
        spec = ScanChainSpec(n_flops=5)
        pattern = [1, 0, 1, 1, 0]
        keys = [[] for _ in range(5)]
        assert shift_in(spec, [0] * 5, pattern, keys, xor_int) == pattern

    def test_unkeyed_unload_returns_capture_by_position(self):
        spec = ScanChainSpec(n_flops=5)
        captured = [0, 1, 1, 0, 1]
        keys = [[] for _ in range(4)]
        assert shift_out(spec, captured, keys, xor_int, 0) == captured

    def test_keyed_roundtrip_with_zero_keys_is_transparent(self):
        spec = ScanChainSpec(n_flops=6, keygate_positions=(0, 2, 4))
        pattern = [1, 1, 0, 1, 0, 0]
        zero = [[0, 0, 0]] * 6
        assert shift_in(spec, [0] * 6, pattern, zero, xor_int) == pattern

    def test_constant_one_keys_flip_by_crossing_count(self):
        """With all key bits stuck at 1, bit l flips once per gate below l."""
        spec = ScanChainSpec(n_flops=4, keygate_positions=(0, 1, 2))
        pattern = [0, 0, 0, 0]
        ones = [[1, 1, 1]] * 4
        applied = shift_in(spec, [0] * 4, pattern, ones, xor_int)
        # Bit l crosses l gates (all gates below l), so parity = l mod 2.
        assert applied == [0, 1, 0, 1]

    def test_pattern_length_checked(self):
        spec = ScanChainSpec(n_flops=3)
        with pytest.raises(ValueError):
            shift_in(spec, [0] * 3, [1, 0], [[]] * 3, xor_int)

    def test_key_schedule_length_checked(self):
        spec = ScanChainSpec(n_flops=3)
        with pytest.raises(ValueError):
            shift_in(spec, [0] * 3, [1, 0, 1], [[]] * 2, xor_int)
        with pytest.raises(ValueError):
            shift_out(spec, [0] * 3, [[]], xor_int, 0)


# ----------------------------------------------------------------------
# shift_cycle against the per-position loop it replaced
# ----------------------------------------------------------------------
def reference_shift_cycle(spec, state, scan_in_bit, key, xor):
    """One shift edge, walking every chain position (the reference)."""
    new_state = [scan_in_bit]
    for p in range(spec.n_flops - 1):
        bit = state[p]
        gate = spec.gate_at(p)
        if gate is not None:
            bit = xor(bit, key[gate])
        new_state.append(bit)
    return new_state


def reference_shift_in(spec, initial, pattern, keys, xor):
    n = spec.n_flops
    state = list(initial)
    for c in range(n):
        state = reference_shift_cycle(spec, state, pattern[n - 1 - c], keys[c], xor)
    return state


def reference_shift_out(spec, captured, keys, xor, fill_bit):
    n = spec.n_flops
    observed = [captured[n - 1]]
    state = list(captured)
    for j in range(n - 1):
        state = reference_shift_cycle(spec, state, fill_bit, keys[j], xor)
        observed.append(state[n - 1])
    return [observed[n - 1 - l] for l in range(n)]


def random_geometries(n_random=60, seed=7):
    """Random chains plus the edge cases: one flop, gates at 0 and n-2."""
    rng = random.Random(seed)
    specs = [
        ScanChainSpec(n_flops=1),
        ScanChainSpec(n_flops=2, keygate_positions=(0,)),
        ScanChainSpec(n_flops=7, keygate_positions=(0,)),
        ScanChainSpec(n_flops=7, keygate_positions=(5,)),
        ScanChainSpec(n_flops=7, keygate_positions=(0, 3, 5)),
        ScanChainSpec(n_flops=6, keygate_positions=tuple(range(5))),
    ]
    for _ in range(n_random):
        n = rng.randint(1, 30)
        k = rng.randint(0, n - 1)
        positions = tuple(sorted(rng.sample(range(n - 1), k)))
        specs.append(ScanChainSpec(n_flops=n, keygate_positions=positions))
    return specs


class TestShiftMatchesReference:
    @staticmethod
    def recording_xor(calls):
        def xor(a, b):
            calls.append((a, b))
            return a ^ b

        return xor

    def test_shift_cycle_on_ints(self):
        rng = random.Random(1)
        for spec in random_geometries():
            n, k = spec.n_flops, spec.n_keygates
            for _ in range(5):
                state = [rng.randrange(2) for _ in range(n)]
                key = [rng.randrange(2) for _ in range(k + rng.randint(0, 2))]
                bit = rng.randrange(2)
                got_calls, want_calls = [], []
                got = shift_cycle(spec, state, bit, key, self.recording_xor(got_calls))
                want = reference_shift_cycle(
                    spec, state, bit, key, self.recording_xor(want_calls)
                )
                assert got == want, spec
                # Same xor calls in the same (position) order.
                assert got_calls == want_calls, spec

    def test_shift_in_and_out_on_ints(self):
        rng = random.Random(2)
        for spec in random_geometries():
            n, k = spec.n_flops, spec.n_keygates
            keys = [[rng.randrange(2) for _ in range(k)] for _ in range(n)]
            pattern = [rng.randrange(2) for _ in range(n)]
            initial = [rng.randrange(2) for _ in range(n)]
            assert shift_in(spec, initial, pattern, keys, xor_int) == (
                reference_shift_in(spec, initial, pattern, keys, xor_int)
            )
            captured = [rng.randrange(2) for _ in range(n)]
            assert shift_out(spec, captured, keys[: n - 1], xor_int, 0) == (
                reference_shift_out(spec, captured, keys[: n - 1], xor_int, 0)
            )

    def test_shift_in_and_out_on_trace_bits(self):
        """The symbolic derivation's bit type: payload plus key-bit sets."""
        for spec in random_geometries(n_random=20, seed=3):
            n, k = spec.n_flops, spec.n_keygates
            keys = _symbolic_keys(n, k, lambda edge: edge)
            pattern = [_TraceBit(base=("a", l)) for l in range(n)]
            initial = [_TraceBit(base=None) for _ in range(n)]
            assert shift_in(spec, initial, pattern, keys, _xor_trace) == (
                reference_shift_in(spec, initial, pattern, keys, _xor_trace)
            )
            captured = [_TraceBit(base=("b", l)) for l in range(n)]
            fill = _TraceBit(base=None)
            assert shift_out(spec, captured, keys[: n - 1], _xor_trace, fill) == (
                reference_shift_out(spec, captured, keys[: n - 1], _xor_trace, fill)
            )
