"""Focused tests for the multi-capture protocol and the restart path.

The paper's restart refinement builds "a combinational locked circuit
for a new capture cycle and carr[ies] over the seed information"; these
tests pin the protocol pieces that path depends on.
"""

import random

import pytest

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.core.modeling import build_combinational_model
from repro.locking.effdyn import lock_with_effdyn
from repro.sim.logicsim import CombinationalSimulator
from repro.sim.seqsim import SequentialSimulator
from repro.util.bitvec import random_bits


@pytest.fixture(scope="module")
def case():
    rng = random.Random(0xCAFE)
    config = GeneratorConfig(n_flops=7, n_inputs=3, n_outputs=2)
    netlist = generate_circuit(config, rng, name="mcap")
    lock = lock_with_effdyn(netlist, key_bits=3, rng=rng)
    return netlist, lock, rng


class TestMultiCaptureProtocol:
    @pytest.mark.parametrize("n_captures", [1, 2, 3, 4])
    def test_unlocked_multicapture_equals_repeated_step(self, case, n_captures):
        netlist, lock, rng = case
        oracle = lock.make_oracle()
        pattern = random_bits(7, rng)
        pis = random_bits(3, rng)
        response = oracle.unlocked_query(pattern, pis, n_captures=n_captures)
        sim = SequentialSimulator(netlist)
        sim.set_state_vector(pattern)
        for _ in range(n_captures):
            values = sim.step(dict(zip(netlist.inputs, pis)))
        assert response.scan_out == sim.get_state_vector()
        assert response.primary_outputs == [
            values[net] for net in netlist.outputs
        ]

    def test_locked_responses_differ_across_capture_counts(self, case):
        """More captures shift the unload keystream window, so the same
        pattern produces differently-scrambled responses."""
        netlist, lock, rng = case
        oracle = lock.make_oracle()
        pattern = random_bits(7, rng)
        one = oracle.query(pattern, n_captures=1).scan_out
        two = oracle.query(pattern, n_captures=2).scan_out
        # (Could coincide for degenerate seeds; check across patterns.)
        diffs = one != two
        for _ in range(5):
            p = random_bits(7, rng)
            if (
                oracle.query(p, n_captures=1).scan_out
                != oracle.query(p, n_captures=2).scan_out
            ):
                diffs = True
        assert diffs

    @pytest.mark.parametrize("n_captures", [2, 3])
    def test_model_tracks_multicapture_oracle(self, case, n_captures):
        netlist, lock, rng = case
        oracle = lock.make_oracle()
        model = build_combinational_model(
            netlist, lock.spec, lock.lfsr_taps, lock.key_bits,
            n_captures=n_captures,
        )
        sim = CombinationalSimulator(model.netlist)
        for _ in range(6):
            pattern = random_bits(7, rng)
            pis = random_bits(3, rng)
            response = oracle.query(pattern, pis, n_captures=n_captures)
            inputs = dict(zip(model.a_inputs, pattern))
            inputs.update(zip(model.pi_inputs, pis))
            inputs.update(zip(model.key_inputs, lock.seed))
            values = sim.run(inputs)
            assert [values[n] for n in model.b_outputs] == response.scan_out
            assert [
                values[n] for n in model.po_outputs
            ] == response.primary_outputs

    def test_multicapture_model_has_chained_cores(self, case):
        netlist, lock, rng = case
        single = build_combinational_model(
            netlist, lock.spec, lock.lfsr_taps, lock.key_bits, n_captures=1
        )
        double = build_combinational_model(
            netlist, lock.spec, lock.lfsr_taps, lock.key_bits, n_captures=2
        )
        assert double.netlist.n_gates > single.netlist.n_gates
        assert any(net.startswith("c1::") for net in double.netlist.gates)
