"""Tests for the GF(2) overlay/candidate analysis and Algorithm 1."""

import random

import numpy as np
import pytest

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.core.algorithm1 import algorithm1
from repro.core.analysis import (
    candidate_space_dimension,
    is_affine_space,
    overlay_matrices,
)
from repro.locking.effdyn import lock_with_effdyn
from repro.prng.polynomials import default_taps
from repro.scan.chain import ScanChainSpec, shift_in, shift_out, xor_int
from repro.prng.lfsr import FibonacciLfsr, Keystream
from repro.util.bitvec import random_bits


class TestOverlayMatrices:
    @pytest.mark.parametrize("trial", range(6))
    def test_matrices_predict_concrete_scrambling(self, trial):
        """a' == a ^ M_in seed and b == b' ^ M_out seed, bit-exactly."""
        rng = random.Random(600 + trial)
        n_flops = rng.randint(3, 10)
        n_gates = rng.randint(1, n_flops - 1)
        positions = tuple(sorted(rng.sample(range(n_flops - 1), n_gates)))
        spec = ScanChainSpec(n_flops=n_flops, keygate_positions=positions)
        width = n_gates
        taps = default_taps(max(2, width))
        if width < 2:
            width = 2  # LFSR needs >= 2 bits; extra bit is unused by gates
        seed = random_bits(width, rng)
        while not any(seed):
            seed = random_bits(width, rng)

        m_in, m_out = overlay_matrices(spec, taps, width)
        seed_vec = np.array(seed, dtype=np.uint8)

        stream = Keystream(
            FibonacciLfsr(width=width, seed_bits=seed, taps=taps)
        )
        pattern = random_bits(n_flops, rng)
        load_keys = [stream.next_key() for _ in range(n_flops)]
        applied = shift_in(spec, [0] * n_flops, pattern, load_keys, xor_int)
        predicted_in = [
            p ^ int(x)
            for p, x in zip(pattern, (m_in.data @ seed_vec) & 1)
        ]
        assert applied == predicted_in

        stream.next_key()  # capture edge
        captured = random_bits(n_flops, rng)
        unload_keys = [stream.next_key() for _ in range(n_flops - 1)]
        observed = shift_out(spec, captured, unload_keys, xor_int, 0)
        predicted_out = [
            c ^ int(x)
            for c, x in zip(captured, (m_out.data @ seed_vec) & 1)
        ]
        assert observed == predicted_out


class TestCandidateSpace:
    def test_dimension_of_affine_set(self):
        base = [0, 1, 0, 1]
        shift1 = [1, 1, 0, 1]
        shift2 = [0, 1, 1, 1]
        both = [1, 1, 1, 1]
        candidates = [base, shift1, shift2, both]
        assert candidate_space_dimension(candidates) == 2
        assert is_affine_space(candidates)

    def test_single_candidate(self):
        assert candidate_space_dimension([[1, 0, 1]]) == 0
        assert is_affine_space([[1, 0, 1]])

    def test_non_affine_detected(self):
        # Three points whose closure needs a fourth.
        candidates = [[0, 0], [1, 0], [0, 1]]
        assert not is_affine_space(candidates)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            candidate_space_dimension([])


class TestAlgorithm1:
    @pytest.mark.parametrize("trial", range(6))
    def test_algorithm1_matches_simulation(self, trial):
        """The paper's Input(seed, a, b') -> Output(a', b) mapping must
        equal what the cycle-accurate shift machinery produces."""
        rng = random.Random(700 + trial)
        n_flops = rng.randint(3, 9)
        n_gates = rng.randint(1, n_flops - 1)
        positions = tuple(sorted(rng.sample(range(n_flops - 1), n_gates)))
        spec = ScanChainSpec(n_flops=n_flops, keygate_positions=positions)
        width = max(2, n_gates)
        taps = default_taps(width)
        seed = random_bits(width, rng)
        a = random_bits(n_flops, rng)
        b_prime = random_bits(n_flops, rng)

        a_prime, b = algorithm1(spec, taps, seed, a, b_prime)

        stream = Keystream(FibonacciLfsr(width=width, seed_bits=seed, taps=taps))
        load_keys = [stream.next_key() for _ in range(n_flops)]
        assert shift_in(spec, [0] * n_flops, a, load_keys, xor_int) == a_prime
        stream.next_key()
        unload_keys = [stream.next_key() for _ in range(n_flops - 1)]
        assert shift_out(spec, b_prime, unload_keys, xor_int, 0) == b

    def test_length_validation(self):
        spec = ScanChainSpec(n_flops=3, keygate_positions=(0,))
        with pytest.raises(ValueError):
            algorithm1(spec, (0, 1), [1, 0], [0, 0], [0, 0, 0])
        with pytest.raises(ValueError):
            algorithm1(spec, (0, 1), [1, 0], [0, 0, 0], [0, 0])

    def test_seed_must_cover_gates(self):
        spec = ScanChainSpec(n_flops=4, keygate_positions=(0, 1, 2))
        with pytest.raises(ValueError):
            algorithm1(spec, (0, 1), [1, 0], [0] * 4, [0] * 4)


class TestAttackCandidatesAreAffine:
    def test_enumerated_candidates_form_affine_space(self):
        """Reproduces the paper's power-of-two candidate counts."""
        from repro.core.dynunlock import dynunlock

        rng = random.Random(808)
        config = GeneratorConfig(n_flops=5, n_inputs=2, n_outputs=1)
        netlist = generate_circuit(config, rng, name="aff")
        lock = lock_with_effdyn(netlist, key_bits=4, rng=rng)
        result = dynunlock(netlist, lock.public_view(), lock.make_oracle())
        assert result.success
        assert is_affine_space(result.seed_candidates) or (
            len(result.seed_candidates) == 1
        )
