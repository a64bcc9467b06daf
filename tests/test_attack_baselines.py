"""Tests for the baseline attacks: ScanSAT, ScanSAT-dyn (DOS), shift-and-
leak (DFS), and the brute-force refinement helper."""

import random

import pytest

from repro.attack.bruteforce import refine_candidates_by_replay
from repro.attack.scansat import scansat_attack_on_lock
from repro.attack.scansat_dyn import scansat_dyn_attack_on_lock
from repro.attack.shift_and_leak import shift_and_leak_on_lock
from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.bench_suite.iscas import s27_netlist
from repro.core.modeling import build_combinational_model
from repro.locking.dfs import lock_with_dfs
from repro.locking.dos import lock_with_dos
from repro.locking.eff import lock_with_eff
from repro.locking.effdyn import lock_with_effdyn


def synthetic(seed: int, n_flops: int = 8):
    rng = random.Random(seed)
    config = GeneratorConfig(n_flops=n_flops, n_inputs=4, n_outputs=3)
    return generate_circuit(config, rng, name=f"b{seed}"), rng


class TestScanSatStatic:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recovers_static_key(self, seed):
        netlist, rng = synthetic(seed)
        lock = lock_with_eff(netlist, key_bits=4, rng=rng)
        result = scansat_attack_on_lock(lock)
        assert result.success
        assert result.recovered_key == list(lock.secret_key)

    def test_s27(self):
        netlist = s27_netlist()
        lock = lock_with_eff(netlist, key_bits=2, rng=random.Random(3))
        result = scansat_attack_on_lock(lock)
        assert result.success
        assert result.recovered_key == list(lock.secret_key)


class TestScanSatDyn:
    @pytest.mark.parametrize("period", [1, 3])
    def test_recovers_dos_seed(self, period):
        netlist, rng = synthetic(10 + period)
        lock = lock_with_dos(netlist, key_bits=4, rng=rng, period_p=period)
        result = scansat_dyn_attack_on_lock(lock)
        assert result.success
        # The recovered seed must generate the same first-update key; for
        # a full-rank one-step map this pins the seed itself.
        assert result.recovered_seed == list(lock.seed)


class TestShiftAndLeak:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_recovers_dfs_logic_key(self, seed):
        netlist, rng = synthetic(20 + seed, n_flops=6)
        lock = lock_with_dfs(netlist, key_bits=5, rng=rng)
        result = shift_and_leak_on_lock(lock)
        assert result.success
        # Any returned candidate must be functionally equivalent to the
        # secret key on the observable outputs; the secret key itself must
        # be consistent with the learned constraints.
        assert list(lock.rll.secret_key) in result.key_candidates


class TestBruteForceRefinement:
    def test_filters_wrong_seeds(self):
        netlist, rng = synthetic(30)
        lock = lock_with_effdyn(netlist, key_bits=4, rng=rng)
        oracle = lock.make_oracle()
        model = build_combinational_model(
            netlist, lock.spec, lock.lfsr_taps, lock.key_bits
        )

        def replay(scan_in, pi):
            response = oracle.query(scan_in, pi)
            return list(response.scan_out) + list(response.primary_outputs)

        true_seed = list(lock.seed)
        wrong = [1 - b for b in true_seed]
        result = refine_candidates_by_replay(
            model,
            [wrong, true_seed],
            replay,
            random.Random(1),
            n_patterns=12,
            stop_at_one=False,
        )
        assert result.survivors == [true_seed]
        assert result.n_candidates_in == 2

    def test_stop_at_one(self):
        netlist, rng = synthetic(31)
        lock = lock_with_effdyn(netlist, key_bits=4, rng=rng)
        oracle = lock.make_oracle()
        model = build_combinational_model(
            netlist, lock.spec, lock.lfsr_taps, lock.key_bits
        )

        def replay(scan_in, pi):
            response = oracle.query(scan_in, pi)
            return list(response.scan_out) + list(response.primary_outputs)

        result = refine_candidates_by_replay(
            model, [list(lock.seed)], replay, random.Random(2)
        )
        assert result.survivors == [list(lock.seed)]
        assert result.n_patterns_used == 0  # single candidate, early stop

    def test_empty_candidates(self):
        netlist, rng = synthetic(32)
        lock = lock_with_effdyn(netlist, key_bits=4, rng=rng)
        model = build_combinational_model(
            netlist, lock.spec, lock.lfsr_taps, lock.key_bits
        )
        result = refine_candidates_by_replay(
            model, [], lambda a, b: [], random.Random(3)
        )
        assert result.survivors == []
