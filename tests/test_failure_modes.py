"""Failure-injection tests: the attack must fail *safely* when its
assumptions are violated, and the library must reject inconsistent use.

These scenarios matter for a real attack tool: a reverse-engineering
mistake (wrong taps, wrong key-gate map) must surface as "no verified
seed", never as a silently wrong answer.
"""

import random

import pytest

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.core.dynunlock import DynUnlockConfig, dynunlock
from repro.locking.effdyn import EffDynPublicView, lock_with_effdyn
from repro.prng.polynomials import default_taps
from repro.scan.chain import ScanChainSpec


def make_lock(seed: int = 5, n_flops: int = 8, key_bits: int = 4):
    rng = random.Random(seed)
    config = GeneratorConfig(n_flops=n_flops, n_inputs=3, n_outputs=2)
    netlist = generate_circuit(config, rng, name=f"fm{seed}")
    lock = lock_with_effdyn(netlist, key_bits=key_bits, rng=rng)
    return netlist, lock


class TestWrongReverseEngineering:
    def test_wrong_taps_never_yield_verified_seed(self):
        """If the attacker mis-read the LFSR polynomial, refinement must
        reject every candidate (responses cannot be reproduced)."""
        netlist, lock = make_lock()
        true_taps = set(lock.lfsr_taps)
        wrong_taps = tuple(sorted({0, lock.key_bits - 1} ^ (
            true_taps if len(true_taps) > 2 else set()
        ))) or (0, lock.key_bits - 1)
        if set(wrong_taps) == true_taps:
            wrong_taps = tuple(sorted({1, lock.key_bits - 1}))
        assert set(wrong_taps) != true_taps
        wrong_view = EffDynPublicView(
            spec=lock.spec, lfsr_width=lock.key_bits, lfsr_taps=wrong_taps
        )
        result = dynunlock(
            netlist, wrong_view, lock.make_oracle(),
            DynUnlockConfig(timeout_s=120),
        )
        # Either the constraints became contradictory (no candidates) or
        # replay verification killed all survivors.
        assert not result.success

    def test_wrong_keygate_positions_never_yield_verified_seed(self):
        netlist, lock = make_lock(seed=6)
        positions = list(lock.spec.keygate_positions)
        slots = [p for p in range(netlist.n_dffs - 1) if p not in positions]
        assert slots, "test circuit too small to displace a gate"
        displaced = sorted(positions[:-1] + [slots[0]])
        wrong_spec = ScanChainSpec(
            n_flops=netlist.n_dffs, keygate_positions=tuple(displaced)
        )
        assert wrong_spec != lock.spec
        wrong_view = EffDynPublicView(
            spec=wrong_spec,
            lfsr_width=lock.key_bits,
            lfsr_taps=lock.lfsr_taps,
        )
        result = dynunlock(
            netlist, wrong_view, lock.make_oracle(),
            DynUnlockConfig(timeout_s=120),
        )
        assert not result.success

    def test_wrong_netlist_never_yields_verified_seed(self):
        """Attacking chip A with chip B's netlist must fail verification."""
        netlist_a, lock_a = make_lock(seed=7)
        rng = random.Random(8)
        config = GeneratorConfig(n_flops=netlist_a.n_dffs, n_inputs=3,
                                 n_outputs=2)
        netlist_b = generate_circuit(config, rng, name="other")
        result = dynunlock(
            netlist_b, lock_a.public_view(), lock_a.make_oracle(),
            DynUnlockConfig(timeout_s=120),
        )
        assert not result.success


class TestApiMisuse:
    def test_oracle_rejects_bad_widths(self):
        netlist, lock = make_lock(seed=9)
        oracle = lock.make_oracle()
        with pytest.raises(ValueError):
            oracle.query([0] * (netlist.n_dffs + 1))
        with pytest.raises(ValueError):
            oracle.query([0] * netlist.n_dffs, [0])

    def test_public_view_width_must_cover_gates(self):
        netlist, lock = make_lock(seed=10)
        bad_view = EffDynPublicView(
            spec=lock.spec,
            lfsr_width=lock.spec.n_keygates - 1,
            lfsr_taps=default_taps(max(2, lock.spec.n_keygates - 1)),
        )
        with pytest.raises(ValueError):
            dynunlock(netlist, bad_view, lock.make_oracle())


class TestGracefulDegradation:
    def test_zero_candidate_limit_reports_exhaustion(self):
        netlist, lock = make_lock(seed=11)
        result = dynunlock(
            netlist, lock.public_view(), lock.make_oracle(),
            DynUnlockConfig(candidate_limit=1, timeout_s=120),
        )
        # With limit 1 the single enumerated candidate is either the real
        # equivalence class (success) or enumeration flagged exhaustion
        # and the restart loop ran out of rounds -- never a crash.
        assert result.n_seed_candidates <= 1 or result.success

    def test_all_patterns_consistent_after_success(self):
        netlist, lock = make_lock(seed=12)
        oracle = lock.make_oracle()
        result = dynunlock(netlist, lock.public_view(), oracle)
        assert result.success
        # Replaying the attack's own DIPs through the recovered model
        # must match (sanity on the result object itself).
        from repro.sim.logicsim import CombinationalSimulator

        sim = CombinationalSimulator(result.model.netlist)
        for dip, response in result.sat_result.dips:
            inputs = dict(zip(result.model.x_inputs, dip))
            inputs.update(
                zip(result.model.key_inputs, result.recovered_seed)
            )
            values = sim.run(inputs)
            predicted = [
                values[n] for n in result.model.observed_outputs
            ]
            assert predicted == response
