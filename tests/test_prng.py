"""Tests for the LFSR/PRNG substrate: concrete, matrix, symbolic, netlist."""

import random

import numpy as np
import pytest

from repro.netlist.netlist import Netlist
from repro.prng.lfsr import FibonacciLfsr, GaloisLfsr, Keystream
from repro.prng.matrix import companion_matrix, lfsr_state_after
from repro.prng.nonlinear import NonlinearPrng
from repro.prng.polynomials import PRIMITIVE_TAPS, default_taps, is_maximal_length
from repro.prng.symbolic import LfsrUnrolling, SymbolicLfsr
from repro.sim.logicsim import evaluate
from repro.util.bitvec import random_bits


class TestPolynomials:
    @pytest.mark.parametrize("width", sorted(w for w in PRIMITIVE_TAPS if w <= 16))
    def test_small_table_entries_are_maximal_length(self, width):
        assert is_maximal_length(width, PRIMITIVE_TAPS[width])

    def test_default_taps_tap_final_stage(self):
        for width in [2, 3, 7, 33, 50, 100, 128, 368, 400]:
            taps = default_taps(width)
            assert (width - 1) in taps
            assert all(0 <= t < width for t in taps)

    def test_default_taps_rejects_tiny_width(self):
        with pytest.raises(ValueError):
            default_taps(1)


class TestFibonacciLfsr:
    def test_seed_width_mismatch(self):
        with pytest.raises(ValueError):
            FibonacciLfsr(width=4, seed_bits=[1, 0, 0])

    def test_final_stage_must_be_tapped(self):
        with pytest.raises(ValueError):
            FibonacciLfsr(width=4, seed_bits=[1, 0, 0, 0], taps=(0, 1))

    def test_non_bit_seed_rejected(self):
        with pytest.raises(ValueError):
            FibonacciLfsr(width=3, seed_bits=[1, 0, 2])

    def test_reset_restores_seed(self):
        lfsr = FibonacciLfsr(width=5, seed_bits=[1, 0, 1, 1, 0])
        for _ in range(7):
            lfsr.advance()
        lfsr.reset()
        assert lfsr.state == [1, 0, 1, 1, 0]

    def test_update_semantics(self):
        # Width 3, taps (1, 2): new bit = s1 ^ s2, bits shift up.
        lfsr = FibonacciLfsr(width=3, seed_bits=[1, 0, 1], taps=(1, 2))
        assert lfsr.advance() == [1, 1, 0]  # new = 0^1=1
        assert lfsr.advance() == [1, 1, 1]

    def test_zero_seed_is_fixed_point(self):
        lfsr = FibonacciLfsr(width=4, seed_bits=[0, 0, 0, 0])
        assert lfsr.advance() == [0, 0, 0, 0]


class TestGaloisLfsr:
    def test_update_is_a_bijection_on_nonzero_states(self):
        """Every nonzero 4-bit state must recur (no state-space collapse)."""
        seen_orbits = 0
        visited: set[tuple[int, ...]] = set()
        for value in range(1, 16):
            seed = [(value >> i) & 1 for i in range(4)]
            if tuple(seed) in visited:
                continue
            lfsr = GaloisLfsr(width=4, seed_bits=seed)
            start = tuple(lfsr.state)
            period = 0
            while True:
                state = tuple(lfsr.advance())
                period += 1
                visited.add(state)
                assert state != (0, 0, 0, 0)
                if state == start:
                    break
                assert period <= 15
            seen_orbits += 1
        assert len(visited) == 15

    def test_reset(self):
        lfsr = GaloisLfsr(width=4, seed_bits=[1, 1, 0, 0])
        lfsr.advance()
        lfsr.reset()
        assert lfsr.state == [1, 1, 0, 0]


class TestMatrixView:
    @pytest.mark.parametrize("width", [3, 5, 8, 16])
    def test_matrix_power_matches_iteration(self, width):
        rng = random.Random(width)
        taps = default_taps(width)
        seed = random_bits(width, rng)
        lfsr = FibonacciLfsr(width=width, seed_bits=seed, taps=taps)
        for steps in range(1, 20):
            state = lfsr.advance()
            assert lfsr_state_after(width, taps, seed, steps) == state

    def test_companion_matrix_shape(self):
        mat = companion_matrix(4, (1, 3))
        assert mat.shape == (4, 4)
        assert mat.data[0, 1] == 1 and mat.data[0, 3] == 1
        assert mat.data[2, 1] == 1  # shift row


class TestKeystream:
    def test_first_key_is_one_update_from_seed(self):
        seed = [1, 0, 1, 0, 1]
        lfsr = FibonacciLfsr(width=5, seed_bits=seed)
        expected = FibonacciLfsr(width=5, seed_bits=seed).advance()
        stream = Keystream(lfsr)
        assert stream.next_key() == expected

    def test_restart_replays(self):
        stream = Keystream(FibonacciLfsr(width=6, seed_bits=[1, 0, 0, 1, 1, 0]))
        first_run = [stream.next_key() for _ in range(9)]
        stream.restart()
        second_run = [stream.next_key() for _ in range(9)]
        assert first_run == second_run


class TestSymbolicLfsr:
    @pytest.mark.parametrize("width", [4, 8, 13])
    def test_symbolic_rows_reproduce_concrete_keystream(self, width):
        rng = random.Random(width * 7)
        taps = default_taps(width)
        seed = random_bits(width, rng)
        sym = SymbolicLfsr(width=width, taps=taps)
        stream = Keystream(FibonacciLfsr(width=width, seed_bits=seed, taps=taps))
        seed_vec = np.array(seed, dtype=np.uint8)
        for t in range(25):
            concrete = stream.next_key()
            rows = sym.rows_for_cycle(t)
            predicted = list((rows @ seed_vec) & 1)
            assert [int(x) for x in predicted] == concrete

    def test_backward_random_access(self):
        sym = SymbolicLfsr(width=5, taps=default_taps(5))
        forward = sym.rows_for_cycle(10).copy()
        early = sym.rows_for_cycle(2)  # random access backwards
        again = sym.rows_for_cycle(10)
        assert np.array_equal(forward, again)
        assert early.shape == (5, 5)


class TestLfsrUnrolling:
    @pytest.mark.parametrize("width", [3, 6, 11])
    def test_unrolled_netlist_computes_the_keystream(self, width):
        rng = random.Random(width)
        taps = default_taps(width)
        seed = random_bits(width, rng)

        netlist = Netlist("lfsr")
        seed_nets = [f"s{j}" for j in range(width)]
        for net in seed_nets:
            netlist.add_input(net)
        unrolling = LfsrUnrolling(netlist, seed_nets, taps)

        horizon = 20
        nets = {
            (t, i): unrolling.key_net(t, i)
            for t in range(horizon)
            for i in range(width)
        }
        values = evaluate(netlist, dict(zip(seed_nets, seed)))
        stream = Keystream(FibonacciLfsr(width=width, seed_bits=seed, taps=taps))
        for t in range(horizon):
            concrete = stream.next_key()
            assert [values[nets[(t, i)]] for i in range(width)] == concrete

    def test_one_gate_per_referenced_update(self):
        netlist = Netlist("lfsr")
        seed_nets = ["s0", "s1", "s2", "s3"]
        for net in seed_nets:
            netlist.add_input(net)
        unrolling = LfsrUnrolling(netlist, seed_nets, default_taps(4))
        unrolling.key_net(9, 0)  # laziness: only reachable updates created
        assert netlist.n_gates <= 10
        for t in range(10):
            for i in range(4):
                unrolling.key_net(t, i)
        # Full coverage of cycles 0..9 needs exactly updates 1..10.
        assert netlist.n_gates == 10


class TestNonlinearPrng:
    def test_keystream_is_not_affine_in_the_seed(self):
        """f(s1) ^ f(s2) ^ f(s1^s2) != f(0) for some seeds => nonlinear."""
        width = 8
        taps = default_taps(width)
        rng = random.Random(2)
        found_nonlinear = False
        for _ in range(40):
            s1 = random_bits(width, rng)
            s2 = random_bits(width, rng)
            s3 = [a ^ b for a, b in zip(s1, s2)]
            zero = [0] * width
            outs = []
            for seed in (s1, s2, s3, zero):
                prng = NonlinearPrng(width=width, seed_bits=seed, taps=taps)
                outs.append(prng.next_key())
            combined = [a ^ b ^ c ^ d for a, b, c, d in zip(*outs)]
            if any(combined):
                found_nonlinear = True
                break
        assert found_nonlinear

    def test_restart_replays(self):
        prng = NonlinearPrng(width=6, seed_bits=[1, 0, 1, 1, 0, 0])
        first = [prng.next_key() for _ in range(5)]
        prng.restart()
        assert [prng.next_key() for _ in range(5)] == first
