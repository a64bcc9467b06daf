"""Cross-system integration and property-based tests.

These tie multiple subsystems together with randomised (hypothesis-
driven) workloads, asserting the global invariants that make the
reproduction trustworthy:

* protocol oracle == structural gate-level scan simulation;
* attack model(true seed) == oracle, for arbitrary geometry;
* SAT encodings agree with the simulator on whole locked models;
* the DynUnlock pipeline is deterministic given its seeds.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.core.dynunlock import dynunlock
from repro.core.modeling import build_combinational_model
from repro.locking.effdyn import lock_with_effdyn
from repro.sat.solver import CdclSolver
from repro.sat.tseitin import CircuitEncoder
from repro.scan.oracle import ScanOracle
from repro.scan.structural import StructuralScanSimulator, build_scan_netlist
from repro.sim.logicsim import CombinationalSimulator
from repro.util.bitvec import random_bits

SLOW_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_locked_case(seed: int):
    rng = random.Random(seed)
    config = GeneratorConfig(
        n_flops=rng.randint(3, 10),
        n_inputs=rng.randint(2, 4),
        n_outputs=rng.randint(1, 3),
    )
    netlist = generate_circuit(config, rng, name=f"i{seed}")
    key_bits = rng.randint(2, min(6, netlist.n_dffs - 1))
    lock = lock_with_effdyn(netlist, key_bits=key_bits, rng=rng)
    return netlist, lock, rng


class TestOracleConsistencyProperty:
    @SLOW_SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_protocol_equals_structural(self, seed):
        netlist, lock, rng = build_locked_case(seed)
        protocol = ScanOracle(netlist, lock.spec, lock.keystream())
        locked, pins = build_scan_netlist(netlist, lock.spec)
        structural = StructuralScanSimulator(
            locked, pins, lock.spec, lock.keystream(), netlist.inputs
        )
        for _ in range(3):
            pattern = random_bits(netlist.n_dffs, rng)
            pis = random_bits(len(netlist.inputs), rng)
            a = protocol.query(pattern, pis)
            b = structural.query(pattern, pis)
            assert a.scan_out == b.scan_out
            assert a.primary_outputs == b.primary_outputs


class TestModelSoundnessProperty:
    @SLOW_SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_model_with_true_seed_equals_oracle(self, seed):
        netlist, lock, rng = build_locked_case(seed)
        oracle = lock.make_oracle()
        model = build_combinational_model(
            netlist, lock.spec, lock.lfsr_taps, lock.key_bits
        )
        sim = CombinationalSimulator(model.netlist)
        for _ in range(3):
            pattern = random_bits(netlist.n_dffs, rng)
            pis = random_bits(len(netlist.inputs), rng)
            response = oracle.query(pattern, pis)
            inputs = dict(zip(model.a_inputs, pattern))
            inputs.update(zip(model.pi_inputs, pis))
            inputs.update(zip(model.key_inputs, lock.seed))
            values = sim.run(inputs)
            assert [values[n] for n in model.b_outputs] == response.scan_out

    @SLOW_SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_sat_encoding_of_model_matches_simulation(self, seed):
        """Tseitin(model) under assumptions == direct model evaluation."""
        netlist, lock, rng = build_locked_case(seed)
        model = build_combinational_model(
            netlist, lock.spec, lock.lfsr_taps, lock.key_bits
        )
        encoder = CircuitEncoder()
        mapping = encoder.encode_netlist(model.netlist)
        solver = CdclSolver(encoder.cnf)
        sim = CombinationalSimulator(model.netlist)
        for _ in range(2):
            bits = {net: rng.randrange(2) for net in model.netlist.inputs}
            assumptions = [
                mapping[net] if value else -mapping[net]
                for net, value in bits.items()
            ]
            result = solver.solve(assumptions=assumptions)
            assert result.satisfiable is True
            values = sim.run(bits)
            for net in model.observed_outputs:
                assert result.model[mapping[net]] == values[net]


class TestPipelineDeterminism:
    def test_attack_is_reproducible(self):
        netlist, lock, _ = build_locked_case(777)
        result_a = dynunlock(netlist, lock.public_view(), lock.make_oracle())
        result_b = dynunlock(netlist, lock.public_view(), lock.make_oracle())
        assert result_a.success == result_b.success
        assert result_a.recovered_seed == result_b.recovered_seed
        assert result_a.iterations == result_b.iterations
        assert result_a.seed_candidates == result_b.seed_candidates


class TestOverlayXorStructure:
    @SLOW_SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_scan_out_difference_is_pattern_independent(self, seed):
        """For a fixed geometry+seed, (locked XOR clean) scan responses of
        the SAME applied state differ by a constant mask -- linearity of
        the output overlay, the heart of the modeling step."""
        netlist, lock, rng = build_locked_case(seed)
        oracle = lock.make_oracle()
        from repro.core.analysis import overlay_matrices
        import numpy as np

        m_in, m_out = overlay_matrices(
            lock.spec, lock.lfsr_taps, lock.key_bits
        )
        seed_vec = np.array(lock.seed, dtype=np.uint8)
        in_mask = list((m_in.data @ seed_vec) & 1)
        out_mask = list((m_out.data @ seed_vec) & 1)

        for _ in range(3):
            pattern = random_bits(netlist.n_dffs, rng)
            pis = random_bits(len(netlist.inputs), rng)
            locked = oracle.query(pattern, pis)
            # Clean query of the *scrambled-in* state: a' = a ^ in_mask.
            applied = [a ^ m for a, m in zip(pattern, in_mask)]
            clean = oracle.unlocked_query(applied, pis)
            predicted = [c ^ m for c, m in zip(clean.scan_out, out_mask)]
            assert predicted == locked.scan_out
