"""Seed equivalence classes: why tiny circuits report inexact seeds.

When the key width approaches the chain length, the stacked overlay
matrix ``[M_in; M_out]`` can be rank-deficient over GF(2): seeds whose
difference lies in its nullspace scramble *identically* under the
attacker's query protocol.  DynUnlock then recovers the equivalence
class, any member of which grants full scan access -- the paper's attack
goal -- even though the bit-exact seed is information-theoretically
unreachable from chain observations alone.

These tests assert exactly that story: every replay survivor predicts
the oracle perfectly, survivors differ from the true seed only by
nullspace vectors, and full-rank overlays force exact recovery.
"""

import random

import numpy as np
import pytest

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.core.analysis import overlay_matrices
from repro.core.dynunlock import DynUnlockConfig, dynunlock
from repro.gf2.matrix import GF2Matrix
from repro.gf2.solve import rank
from repro.locking.effdyn import lock_with_effdyn
from repro.sim.logicsim import CombinationalSimulator
from repro.util.bitvec import random_bits


def stacked_overlay_rank(lock) -> int:
    m_in, m_out = overlay_matrices(lock.spec, lock.lfsr_taps, lock.key_bits)
    return rank(GF2Matrix(np.vstack([m_in.data, m_out.data])))


class TestEquivalenceClasses:
    def test_rank_deficit_implies_indistinguishable_seeds(self):
        """Construct a deliberately rank-deficient case and show two
        distinct seeds produce identical oracle behaviour."""
        rng = random.Random(21)
        config = GeneratorConfig(n_flops=5, n_inputs=3, n_outputs=2)
        netlist = generate_circuit(config, rng, name="eq")
        # Key width 4 on a 5-flop chain: rank <= 2*5 rows but the rows
        # repeat heavily; search for a lock with deficit.
        for attempt in range(20):
            lock = lock_with_effdyn(
                netlist, key_bits=4, rng=random.Random(attempt)
            )
            deficit = lock.key_bits - stacked_overlay_rank(lock)
            if deficit > 0:
                break
        else:
            pytest.skip("no rank-deficient geometry found at this size")

        m_in, m_out = overlay_matrices(
            lock.spec, lock.lfsr_taps, lock.key_bits
        )
        from repro.gf2.solve import nullspace_basis

        stacked = GF2Matrix(np.vstack([m_in.data, m_out.data]))
        null_vec = nullspace_basis(stacked)[0]
        seed_b = [s ^ d for s, d in zip(lock.seed, null_vec)]
        assert seed_b != list(lock.seed)

        from repro.locking.effdyn import EffDynLock

        lock_b = EffDynLock(
            netlist=netlist,
            spec=lock.spec,
            lfsr_taps=lock.lfsr_taps,
            seed=tuple(seed_b),
            secret_key=lock.secret_key,
        )
        oracle_a = lock.make_oracle()
        oracle_b = lock_b.make_oracle()
        for _ in range(8):
            pattern = random_bits(netlist.n_dffs, rng)
            pis = random_bits(len(netlist.inputs), rng)
            assert (
                oracle_a.query(pattern, pis).scan_out
                == oracle_b.query(pattern, pis).scan_out
            )

    def test_survivors_all_grant_scan_access(self):
        """Every candidate surviving replay predicts the oracle exactly,
        whether or not it equals the true seed."""
        rng = random.Random(31)
        config = GeneratorConfig(n_flops=6, n_inputs=3, n_outputs=2)
        netlist = generate_circuit(config, rng, name="surv")
        lock = lock_with_effdyn(netlist, key_bits=5, rng=rng)
        oracle = lock.make_oracle()
        result = dynunlock(
            netlist, lock.public_view(), oracle,
            DynUnlockConfig(candidate_limit=64),
        )
        assert result.success
        sim = CombinationalSimulator(result.model.netlist)
        check_rng = random.Random(99)
        # Check up to four candidates that are consistent with the DIPs.
        for seed in result.seed_candidates[:4]:
            alive = True
            for _ in range(6):
                pattern = random_bits(netlist.n_dffs, check_rng)
                pis = random_bits(len(netlist.inputs), check_rng)
                response = oracle.query(pattern, pis)
                inputs = dict(zip(result.model.a_inputs, pattern))
                inputs.update(zip(result.model.pi_inputs, pis))
                inputs.update(zip(result.model.key_inputs, seed))
                values = sim.run(inputs)
                if [values[n] for n in result.model.b_outputs] != (
                    response.scan_out
                ):
                    alive = False
                    break
            if alive:
                # Survivor: must differ from the truth only by a
                # nullspace vector of the overlay.
                diff = [a ^ b for a, b in zip(seed, lock.seed)]
                if any(diff):
                    m_in, m_out = overlay_matrices(
                        lock.spec, lock.lfsr_taps, lock.key_bits
                    )
                    stacked = GF2Matrix(
                        np.vstack([m_in.data, m_out.data])
                    )
                    assert stacked.mul_vec(diff) == [0] * stacked.n_rows

    def test_full_rank_overlay_forces_exact_recovery(self):
        """With flops >> key bits the overlay is full rank and the attack
        must return the bit-exact seed (the paper's large circuits)."""
        rng = random.Random(41)
        config = GeneratorConfig(n_flops=14, n_inputs=3, n_outputs=2)
        netlist = generate_circuit(config, rng, name="fr")
        lock = lock_with_effdyn(netlist, key_bits=4, rng=rng)
        if stacked_overlay_rank(lock) < lock.key_bits:
            pytest.skip("geometry unexpectedly rank-deficient")
        result = dynunlock(netlist, lock.public_view(), lock.make_oracle())
        assert result.success
        assert result.recovered_seed == list(lock.seed)
