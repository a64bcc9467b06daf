"""Tests for the defenses added beyond the paper (SARLock, scramble).

Each scheme is pinned on three levels: functional correctness (the
correct key restores the original behaviour), the defense's signature
property (point-function corruption / chain permutation), and the
characterizing attack recovering a verified key through the oracle.
"""

import random

import pytest

from repro.attack.satattack import SatAttack, SatAttackConfig
from repro.attack.scramble_sat import build_scramble_model, scramble_sat_attack
from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.locking.iolock import lock_core_with_rll
from repro.locking.sarlock import lock_with_sarlock
from repro.locking.scramble import (
    balanced_swap_layout,
    lock_with_scramble,
    swap_index_map,
)
from repro.sim.logicsim import CombinationalSimulator
from repro.util.bitvec import random_bits


def small_netlist(n_flops=12, n_inputs=4, n_outputs=3, seed=11):
    rng = random.Random(seed)
    return generate_circuit(
        GeneratorConfig(
            n_flops=n_flops, n_inputs=n_inputs, n_outputs=n_outputs
        ),
        rng,
        name="tiny",
    )


def locked_outputs(lock, x_bits, key):
    """Evaluate a locked IoLock core under an explicit key."""
    sim = CombinationalSimulator(lock.locked)
    x_nets = [n for n in lock.locked.inputs if n not in set(lock.key_inputs)]
    inputs = dict(zip(x_nets, x_bits))
    inputs.update(zip(lock.key_inputs, key))
    values = sim.run(inputs)
    return [values[net] for net in lock.locked.outputs]


class TestIoLock:
    def test_rll_correct_key_restores_function(self):
        netlist = small_netlist()
        lock = lock_core_with_rll(netlist, key_bits=5, rng=random.Random(3))
        oracle = lock.make_oracle()
        rng = random.Random(7)
        for _ in range(16):
            x = random_bits(len(oracle.inputs), rng)
            assert locked_outputs(lock, x, lock.secret_key) == oracle.query(x)

    def test_oracle_counts_and_validates_queries(self):
        lock = lock_core_with_rll(small_netlist(), 4, random.Random(1))
        oracle = lock.make_oracle()
        assert oracle.query_count == 0
        oracle.query([0] * len(oracle.inputs))
        assert oracle.query_count == 1
        with pytest.raises(ValueError, match="input bits"):
            oracle.query([0])


class TestSarLock:
    KEY_BITS = 4

    def _lock(self):
        return lock_with_sarlock(
            small_netlist(), key_bits=self.KEY_BITS, rng=random.Random(5)
        )

    def test_correct_key_restores_function(self):
        lock = self._lock()
        oracle = lock.make_oracle()
        rng = random.Random(23)
        for _ in range(20):
            x = random_bits(len(oracle.inputs), rng)
            assert locked_outputs(lock, x, lock.secret_key) == oracle.query(x)

    def test_wrong_key_errs_on_exactly_its_point_input(self):
        lock = self._lock()
        oracle = lock.make_oracle()
        k = self.KEY_BITS
        wrong = [1 - lock.secret_key[0]] + list(lock.secret_key[1:])
        rng = random.Random(29)
        tail = random_bits(len(oracle.inputs) - k, rng)
        # At X[:k] == wrong key: the protected output flips.
        hit = locked_outputs(lock, wrong + tail, wrong)
        assert hit != oracle.query(wrong + tail)
        # Anywhere else the comparator is cold and the output is correct.
        miss_head = list(lock.secret_key)
        assert locked_outputs(lock, miss_head + tail, wrong) == oracle.query(
            miss_head + tail
        )

    def test_sat_attack_needs_one_dip_per_wrong_key(self):
        lock = self._lock()
        oracle = lock.make_oracle()
        attack = SatAttack(
            locked=lock.locked,
            key_inputs=lock.key_inputs,
            oracle_fn=oracle.query,
            config=SatAttackConfig(candidate_limit=4),
        )
        result = attack.run()
        assert result.converged
        assert result.iterations >= 2**self.KEY_BITS - 2
        assert result.key_candidates == [list(lock.secret_key)]

    def test_rejects_degenerate_widths(self):
        with pytest.raises(ValueError, match="at least 2"):
            lock_with_sarlock(small_netlist(), 1, random.Random(0))
        with pytest.raises(ValueError, match="comparator inputs"):
            lock_with_sarlock(small_netlist(), 10_000, random.Random(0))


class TestSwapLayout:
    def test_pairs_are_disjoint_and_equal_length(self):
        for n_flops in (8, 13, 16, 21, 40):
            spec, pairs = balanced_swap_layout(n_flops, key_bits=4)
            used: set[int] = set()
            for c1, c2 in pairs:
                assert spec.chain_lengths[c1] == spec.chain_lengths[c2]
                assert not {c1, c2} & used
                used |= {c1, c2}
            assert len(pairs) <= 4

    def test_swap_index_map_is_an_involution(self):
        spec, pairs = balanced_swap_layout(17, key_bits=3)
        for key_value in range(2 ** len(pairs)):
            key = [(key_value >> t) & 1 for t in range(len(pairs))]
            mapping = swap_index_map(spec, pairs, key)
            assert sorted(mapping) == list(range(spec.n_flops))
            assert all(mapping[mapping[g]] == g for g in range(spec.n_flops))

    def test_rejects_unscrambleable_inputs(self):
        with pytest.raises(ValueError, match="at least one key bit"):
            balanced_swap_layout(8, 0)
        with pytest.raises(ValueError, match=">= 2 chains"):
            balanced_swap_layout(1, 1)


class TestScramble:
    def _lock(self, secret=None, seed=13):
        return lock_with_scramble(
            small_netlist(n_flops=16, n_inputs=5, n_outputs=4, seed=2),
            key_bits=4,
            rng=random.Random(seed),
            secret_key=secret,
        )

    def test_zero_key_is_transparent(self):
        lock = self._lock(secret=[0, 0, 0, 0])
        oracle = lock.make_oracle()
        plain = lock_with_scramble(
            lock.netlist, key_bits=4, rng=random.Random(1), secret_key=[0] * 4
        ).make_oracle()
        rng = random.Random(31)
        pattern = random_bits(16, rng)
        pis = random_bits(5, rng)
        a = oracle.query(pattern, pis)
        b = plain.query(pattern, pis)
        assert a.scan_out == b.scan_out and a.primary_outputs == b.primary_outputs

    def test_model_matches_oracle_under_the_secret_key(self):
        lock = self._lock()
        oracle = lock.make_oracle()
        model = build_scramble_model(lock.netlist, lock.public_view())
        sim = CombinationalSimulator(model.netlist)
        rng = random.Random(37)
        for _ in range(12):
            pattern = random_bits(16, rng)
            pis = random_bits(5, rng)
            response = oracle.query(pattern, pis)
            inputs = dict(zip(model.a_inputs, pattern))
            inputs.update(zip(model.pi_inputs, pis))
            inputs.update(zip(model.key_inputs, lock.secret_key))
            values = sim.run(inputs)
            predicted = [values[n] for n in model.observed_outputs]
            observed = list(response.scan_out) + list(response.primary_outputs)
            assert predicted == observed

    def test_nonzero_key_actually_permutes(self):
        lock = self._lock(secret=[1, 0, 0, 0])
        scrambled = lock.make_oracle()
        transparent = lock_with_scramble(
            lock.netlist, key_bits=4, rng=random.Random(1), secret_key=[0] * 4
        ).make_oracle()
        rng = random.Random(41)
        differs = False
        for _ in range(8):
            pattern = random_bits(16, rng)
            if (
                scrambled.query(pattern).scan_out
                != transparent.query(pattern).scan_out
            ):
                differs = True
                break
        assert differs, "an active swap must be tester-visible"

    def test_attack_recovers_a_verified_routing_key(self):
        lock = self._lock()
        result = scramble_sat_attack(
            lock.netlist, lock.public_view(), lock.make_oracle()
        )
        assert result.success
        assert result.recovered_key == list(lock.secret_key)

    def test_explicit_secret_key_width_checked(self):
        with pytest.raises(ValueError, match="must have"):
            self._lock(secret=[1, 0])
