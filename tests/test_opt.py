"""Tests for the repro.opt netlist-optimization subsystem."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.bench_suite.registry import build_benchmark_netlist, smallest_benchmarks
from repro.fuzz.invariants import check_opt_equivalence, predict_capture
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.netlist.validate import validate_netlist
from repro.opt import DEFAULT_LEVEL, MAX_LEVEL, optimize, resolve_level
from repro.opt.structhash import structural_hash
from repro.opt.sweep import sweep
from repro.sim.logicsim import evaluate
from repro.util.bitvec import random_bits

LEVELS = tuple(range(1, MAX_LEVEL + 1))


def sampled_netlist(seed: int, n_flops: int = 6) -> Netlist:
    rng = random.Random(seed)
    config = GeneratorConfig(
        n_flops=n_flops,
        n_inputs=1 + seed % 5,
        n_outputs=1 + seed % 4,
        gates_per_flop=1.0 + (seed % 3),
        max_fanin=2 + seed % 3,
        locality=(4, 8, 24)[seed % 3],
    )
    return generate_circuit(config, rng, name=f"t{seed}")


def assert_interface_preserved(original: Netlist, optimized: Netlist) -> None:
    assert optimized.inputs == original.inputs
    assert optimized.outputs == original.outputs
    assert list(optimized.dffs) == list(original.dffs)
    assert [d.d for d in optimized.dffs.values()] == [
        d.d for d in original.dffs.values()
    ]


def assert_replay_equal(original: Netlist, optimized: Netlist, seed: int = 0) -> None:
    rng = random.Random(seed)
    states = [random_bits(original.n_dffs, rng) for _ in range(24)]
    pis = [random_bits(len(original.inputs), rng) for _ in range(24)]
    assert predict_capture(optimized, states, pis) == predict_capture(
        original, states, pis
    )


# ----------------------------------------------------------------------
# hypothesis property suite
# ----------------------------------------------------------------------
class TestOptimizeProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), level=st.sampled_from(LEVELS))
    def test_preserves_behaviour_on_sampled_netlists(self, seed, level):
        netlist = sampled_netlist(seed)
        result = optimize(netlist, level=level)
        validate_netlist(result.netlist)
        assert_interface_preserved(netlist, result.netlist)
        assert_replay_equal(netlist, result.netlist, seed)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), level=st.sampled_from(LEVELS))
    def test_idempotent_gate_count(self, seed, level):
        netlist = sampled_netlist(seed)
        once = optimize(netlist, level=level)
        twice = optimize(once.netlist, level=level)
        assert twice.netlist.n_gates == once.netlist.n_gates

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), level=st.sampled_from(LEVELS))
    def test_never_touches_pinned_interface_nets(self, seed, level):
        netlist = sampled_netlist(seed)
        result = optimize(netlist, level=level)
        optimized = result.netlist
        assert_interface_preserved(netlist, optimized)
        # Every output and every DFF D pin is still a *driven* net.
        driven = (
            set(optimized.inputs) | set(optimized.gates) | set(optimized.dffs)
        )
        for net in optimized.outputs:
            assert net in driven
        for dff in optimized.dffs.values():
            assert dff.d in driven

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_cse_merge_agrees_with_scalar_simulation(self, seed):
        netlist = sampled_netlist(seed)
        optimized = optimize(netlist, level=1).netlist
        rng = random.Random(seed ^ 0x5A5A)
        inputs = dict(zip(netlist.inputs, random_bits(len(netlist.inputs), rng)))
        state = dict(zip(netlist.dff_q_nets(), random_bits(netlist.n_dffs, rng)))
        want = evaluate(netlist, inputs, state)
        got = evaluate(optimized, inputs, state)
        for net in list(netlist.outputs) + netlist.dff_d_nets():
            assert got[net] == want[net], net

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_fuzz_invariant_clean_on_sampled_netlists(self, seed):
        netlist = sampled_netlist(seed)
        assert check_opt_equivalence(netlist, random.Random(seed)) == []


# ----------------------------------------------------------------------
# structural hashing unit cases
# ----------------------------------------------------------------------
class TestStructuralHash:
    def build(self, wire):
        netlist = Netlist()
        for net in ("a", "b", "c"):
            netlist.add_input(net)
        wire(netlist)
        return netlist

    def out_gate(self, netlist, net="y"):
        optimized, _ = structural_hash(netlist, frozenset(netlist.outputs))
        return optimized, optimized.gates[net]

    def test_constant_folding_through_and(self):
        netlist = self.build(
            lambda n: (
                n.add_gate("one", GateType.CONST1, []),
                n.add_gate("zero", GateType.CONST0, []),
                n.add_gate("y", GateType.AND, ["a", "one", "b"]),
                n.add_gate("z", GateType.AND, ["a", "zero"]),
                n.add_output("y"),
                n.add_output("z"),
            )
        )
        optimized, gate = self.out_gate(netlist)
        assert gate.gtype is GateType.AND
        assert gate.inputs == ("a", "b")  # identity const dropped
        assert optimized.gates["z"].gtype is GateType.CONST0

    def test_double_negation_collapses(self):
        netlist = self.build(
            lambda n: (
                n.add_gate("n1", GateType.NOT, ["a"]),
                n.add_gate("n2", GateType.NOT, ["n1"]),
                n.add_gate("y", GateType.AND, ["n2", "b"]),
                n.add_output("y"),
            )
        )
        _, gate = self.out_gate(netlist)
        assert gate.inputs == ("a", "b")

    def test_commutative_sorting_enables_cse(self):
        netlist = self.build(
            lambda n: (
                n.add_gate("g1", GateType.AND, ["a", "b"]),
                n.add_gate("g2", GateType.AND, ["b", "a"]),
                n.add_gate("y", GateType.XOR, ["g1", "g2"]),
                n.add_output("y"),
            )
        )
        optimized, _ = structural_hash(netlist, frozenset(netlist.outputs))
        # g1 == g2, so y = XOR(x, x) = 0.
        assert optimized.gates["y"].gtype is GateType.CONST0

    def test_xor_involution_cancels_fanout1_chain(self):
        netlist = self.build(
            lambda n: (
                n.add_gate("inner", GateType.XOR, ["a", "b"]),
                n.add_gate("y", GateType.XOR, ["inner", "b"]),
                n.add_output("y"),
            )
        )
        optimized, _ = structural_hash(netlist, frozenset(netlist.outputs))
        gate = optimized.gates["y"]
        # XOR(XOR(a, b), b) = a; the pinned output keeps a BUF alias.
        assert gate.gtype is GateType.BUF and gate.inputs == ("a",)

    def test_mux_rewrites(self):
        netlist = self.build(
            lambda n: (
                n.add_gate("zero", GateType.CONST0, []),
                n.add_gate("one", GateType.CONST1, []),
                n.add_gate("same", GateType.MUX, ["a", "b", "b"]),
                n.add_gate("asel", GateType.MUX, ["a", "zero", "one"]),
                n.add_gate("inv", GateType.MUX, ["a", "one", "zero"]),
                n.add_gate("andg", GateType.MUX, ["a", "zero", "b"]),
                n.add_output("same"),
                n.add_output("asel"),
                n.add_output("inv"),
                n.add_output("andg"),
            )
        )
        optimized, _ = structural_hash(netlist, frozenset(netlist.outputs))
        assert optimized.gates["same"].inputs == ("b",)  # BUF alias
        assert optimized.gates["asel"].inputs == ("a",)
        assert optimized.gates["inv"].gtype is GateType.NOT
        assert optimized.gates["andg"].gtype is GateType.AND
        assert set(optimized.gates["andg"].inputs) == {"a", "b"}

    def test_complementary_and_inputs_fold_to_constant(self):
        netlist = self.build(
            lambda n: (
                n.add_gate("na", GateType.NOT, ["a"]),
                n.add_gate("y", GateType.AND, ["a", "na", "b"]),
                n.add_gate("z", GateType.OR, ["a", "na"]),
                n.add_output("y"),
                n.add_output("z"),
            )
        )
        optimized, _ = structural_hash(netlist, frozenset(netlist.outputs))
        assert optimized.gates["y"].gtype is GateType.CONST0
        assert optimized.gates["z"].gtype is GateType.CONST1


# ----------------------------------------------------------------------
# sweep unit cases
# ----------------------------------------------------------------------
class TestSweep:
    def test_dead_cone_removed_and_unused_inputs_reported(self):
        netlist = Netlist()
        for net in ("a", "b", "k"):
            netlist.add_input(net)
        netlist.add_gate("live", GateType.AND, ["a", "b"])
        netlist.add_gate("dead1", GateType.OR, ["a", "k"])
        netlist.add_gate("dead2", GateType.NOT, ["dead1"])
        netlist.add_output("live")
        swept, stats = sweep(netlist)
        assert set(swept.gates) == {"live"}
        assert stats["removed_gates"] == 2
        # k fed only dead logic: the unused-key-gate detector flags it.
        assert stats["unused_inputs"] == ["k"]
        assert swept.inputs == netlist.inputs  # never removed, only reported

    def test_dff_d_pins_are_roots(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_gate("ns", GateType.NOT, ["a"])
        netlist.add_dff(q="q0", d="ns")
        swept, stats = sweep(netlist)
        assert "ns" in swept.gates
        assert stats["removed_gates"] == 0


# ----------------------------------------------------------------------
# pipeline surface
# ----------------------------------------------------------------------
class TestPipeline:
    def test_level0_is_identity(self):
        netlist = sampled_netlist(3)
        result = optimize(netlist, level=0)
        assert result.netlist is netlist
        assert result.stats.passes == []

    def test_resolve_level_ignores_the_environment(self, monkeypatch):
        # The level is chosen per call; no variable overrides the default.
        monkeypatch.setenv("REPRO_OPT_LEVEL", "0")
        assert resolve_level(None) == DEFAULT_LEVEL == 1
        assert resolve_level(0) == 0
        assert MAX_LEVEL == 1
        with pytest.raises(ValueError):
            resolve_level(2)

    def test_stats_are_json_safe(self):
        netlist = sampled_netlist(5)
        stats = optimize(netlist, level=1).stats
        import json

        payload = json.dumps(stats.as_dict())
        assert '"level": 1' in payload

    def test_input_netlist_never_mutated(self):
        netlist = sampled_netlist(7)
        gates_before = dict(netlist.gates)
        optimize(netlist, level=1)
        assert netlist.gates == gates_before

    def test_extra_pin_survives(self):
        netlist = Netlist()
        netlist.add_input("a")
        netlist.add_gate("keep", GateType.NOT, ["a"])
        netlist.add_gate("y", GateType.NOT, ["keep"])
        netlist.add_output("y")
        # Without the pin, "keep" would be absorbed by double negation.
        result = optimize(netlist, level=1, pin=("keep",))
        assert "keep" in result.netlist.gates


# ----------------------------------------------------------------------
# recovered keys are byte-identical with and without optimization
# ----------------------------------------------------------------------
class TestKeyIdentity:
    @pytest.mark.parametrize("bench_name", smallest_benchmarks(2, scale=16))
    def test_dynunlock_recovers_identical_seed(self, bench_name):
        from repro.core.dynunlock import DynUnlockConfig, dynunlock
        from repro.locking.effdyn import lock_with_effdyn

        netlist = build_benchmark_netlist(bench_name, scale=16)
        lock = lock_with_effdyn(netlist, key_bits=8, rng=random.Random(11))
        outcomes = {}
        for level in (0,) + LEVELS:
            result = dynunlock(
                netlist,
                lock.public_view(),
                lock.make_oracle(),
                DynUnlockConfig(opt_level=level),
            )
            outcomes[level] = (result.success, result.recovered_seed)
        assert outcomes[0][0], "baseline attack must succeed"
        for level in LEVELS:
            assert outcomes[level] == outcomes[0]

    def test_scramble_sat_recovers_identical_key(self):
        from repro.attack.scramble_sat import scramble_sat_on_lock
        from repro.locking.scramble import lock_with_scramble

        netlist = sampled_netlist(21, n_flops=8)
        lock = lock_with_scramble(netlist, key_bits=3, rng=random.Random(2))
        keys = {
            level: scramble_sat_on_lock(lock, opt_level=level).recovered_key
            for level in (0,) + LEVELS
        }
        assert keys[0] is not None
        for level in LEVELS:
            assert keys[level] == keys[0]

    def test_scansat_recovers_identical_key(self):
        from repro.attack.scansat import scansat_attack_on_lock
        from repro.locking.eff import lock_with_eff

        netlist = sampled_netlist(33, n_flops=8)
        lock = lock_with_eff(netlist, key_bits=4, rng=random.Random(5))
        keys = {
            level: scansat_attack_on_lock(lock, opt_level=level).recovered_key
            for level in (0,) + LEVELS
        }
        assert keys[0] is not None
        for level in LEVELS:
            assert keys[level] == keys[0]


# ----------------------------------------------------------------------
# attack-model reduction sanity
# ----------------------------------------------------------------------
class TestModelReduction:
    def test_effdyn_model_shrinks_meaningfully(self):
        from repro.core.modeling import build_combinational_model
        from repro.locking.effdyn import lock_with_effdyn

        netlist = build_benchmark_netlist("s5378", scale=16)
        lock = lock_with_effdyn(netlist, key_bits=8, rng=random.Random(1))
        model = build_combinational_model(
            netlist, lock.spec, lock.lfsr_taps, 8
        )
        stats = optimize(model.netlist, level=1).stats
        assert stats.reduction > 0.15  # measured ~0.3 at this shape
        assert stats.gates_after < stats.gates_before
