"""Tests for the protocol-level scan oracle."""

import random

import pytest

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.bench_suite.iscas import s27_netlist
from repro.locking.dos import PerPatternKeystream
from repro.locking.eff import ConstantKeystream
from repro.locking.effdyn import lock_with_effdyn
from repro.netlist.netlist import NetlistError
from repro.prng.lfsr import FibonacciLfsr, GaloisLfsr, Keystream
from repro.prng.nonlinear import NonlinearPrng
from repro.scan.chain import ScanChainSpec, shift_in, shift_out, xor_int
from repro.scan.multichain import MultiChainScanOracle, MultiChainSpec
from repro.scan.oracle import ScanOracle, ScanResponse
from repro.sim.seqsim import SequentialSimulator
from repro.util.bitvec import random_bits


def make_oracle(key=(0, 0), positions=(0, 1)) -> ScanOracle:
    spec = ScanChainSpec(n_flops=3, keygate_positions=positions)
    return ScanOracle(s27_netlist(), spec, ConstantKeystream(list(key)))


class TestOracleBasics:
    def test_chain_length_must_match(self):
        spec = ScanChainSpec(n_flops=4, keygate_positions=())
        with pytest.raises(NetlistError):
            ScanOracle(s27_netlist(), spec, ConstantKeystream([0]))

    def test_keystream_width_must_cover_gates(self):
        spec = ScanChainSpec(n_flops=3, keygate_positions=(0, 1))
        with pytest.raises(ValueError):
            ScanOracle(s27_netlist(), spec, ConstantKeystream([0]))

    def test_scan_in_length_checked(self):
        oracle = make_oracle()
        with pytest.raises(ValueError):
            oracle.query([0, 1])

    def test_pi_length_checked(self):
        oracle = make_oracle()
        with pytest.raises(ValueError):
            oracle.query([0, 1, 0], [0, 0])

    def test_query_counters(self):
        oracle = make_oracle()
        oracle.query([0, 0, 0])
        oracle.query([1, 0, 1])
        assert oracle.query_count == 2
        assert oracle.shift_cycles == 12

    def test_zero_captures_rejected(self):
        oracle = make_oracle()
        with pytest.raises(ValueError):
            oracle.query([0, 0, 0], n_captures=0)


class TestOracleSemantics:
    def test_zero_key_oracle_equals_plain_capture(self):
        """With an all-zero (transparent) key the oracle is load/capture/unload."""
        oracle = make_oracle(key=(0, 0))
        netlist = s27_netlist()
        rng = random.Random(3)
        for _ in range(10):
            state = random_bits(3, rng)
            pis = random_bits(4, rng)
            response = oracle.query(state, pis)
            sim = SequentialSimulator(netlist)
            sim.set_state_vector(state)
            values = sim.step(dict(zip(netlist.inputs, pis)))
            assert response.scan_out == sim.get_state_vector()
            assert response.primary_outputs == [
                values[net] for net in netlist.outputs
            ]

    def test_unlocked_query_bypasses_obfuscation(self):
        rng = random.Random(5)
        netlist = s27_netlist()
        lock = lock_with_effdyn(netlist, key_bits=2, rng=rng)
        oracle = lock.make_oracle()
        state = [1, 0, 1]
        oracle.query(state)
        clean_response = oracle.unlocked_query(state)
        # Obfuscation must still be enabled afterwards.
        assert oracle.obfuscation_enabled
        # The clean response equals a plain functional capture.
        sim = SequentialSimulator(netlist)
        sim.set_state_vector(state)
        sim.step({net: 0 for net in netlist.inputs})
        assert clean_response.scan_out == sim.get_state_vector()
        # And the locked one differs for this seed/pattern combination
        # (scrambling is live -- checked probabilistically over patterns).
        diffs = 0
        for _ in range(8):
            pattern = random_bits(3, rng)
            if oracle.query(pattern).scan_out != oracle.unlocked_query(pattern).scan_out:
                diffs += 1
        assert diffs > 0

    def test_queries_are_repeatable(self):
        """Power-on reset before each query makes the oracle stateless."""
        rng = random.Random(9)
        netlist = s27_netlist()
        lock = lock_with_effdyn(netlist, key_bits=2, rng=rng)
        oracle = lock.make_oracle()
        pattern = [1, 1, 0]
        first = oracle.query(pattern, [1, 0, 1, 0])
        second = oracle.query(pattern, [1, 0, 1, 0])
        assert first.scan_out == second.scan_out
        assert first.primary_outputs == second.primary_outputs

    def test_multi_capture_advances_state_twice(self):
        oracle = make_oracle(key=(0, 0))
        netlist = s27_netlist()
        state = [1, 1, 0]
        response = oracle.query(state, n_captures=2)
        sim = SequentialSimulator(netlist)
        sim.set_state_vector(state)
        sim.step({net: 0 for net in netlist.inputs})
        sim.step({net: 0 for net in netlist.inputs})
        assert response.scan_out == sim.get_state_vector()

    def test_obfuscated_scan_out_is_xor_overlay(self):
        """Locked minus unlocked responses differ by a pattern-independent
        XOR mask (the keystream overlay), for fixed geometry and seed."""
        rng = random.Random(12)
        config = GeneratorConfig(n_flops=7, n_inputs=3, n_outputs=2)
        netlist = generate_circuit(config, rng, name="ov")
        lock = lock_with_effdyn(netlist, key_bits=3, rng=rng)
        oracle = lock.make_oracle()

        masks = set()
        for _ in range(6):
            pattern = random_bits(7, rng)
            locked = oracle.query(pattern)
            # a' differs from a, so compute the clean response of a' via
            # the overlay relation instead: compare b against b' of the
            # *same* a' -- this requires knowing a', so here we only
            # check determinism of the output-side mask for equal a'.
            masks.add(tuple(locked.scan_out))
        # Weak sanity: responses vary with the pattern (not constant).
        assert len(masks) > 1


# ---------------------------------------------------------------------------
# Masked queries against the per-edge protocol
# ---------------------------------------------------------------------------

#: Keystream factories ``(width, seed bits, flops) -> keystream``; each
#: call builds a fresh instance.
KEYSTREAMS = {
    "fibonacci": lambda width, seed, n: Keystream(FibonacciLfsr(width, seed)),
    "galois": lambda width, seed, n: Keystream(GaloisLfsr(width, seed)),
    "nonlinear": lambda width, seed, n: NonlinearPrng(width, seed),
    "per-pattern-p1": lambda width, seed, n: PerPatternKeystream(
        FibonacciLfsr(width, seed), edges_per_pattern=n, period_p=1
    ),
    "per-pattern-p2": lambda width, seed, n: PerPatternKeystream(
        FibonacciLfsr(width, seed), edges_per_pattern=n, period_p=2
    ),
    "constant": lambda width, seed, n: ConstantKeystream(seed),
}


def per_edge_query(
    netlist, spec, keystream, scan_in, primary_inputs, n_captures, obfuscated
) -> ScanResponse:
    """Reference: restart the keystream and clock every shift edge."""
    n = spec.n_flops
    zero_key = [0] * max(1, keystream.width)
    sim = SequentialSimulator(netlist)
    keystream.restart()
    if obfuscated:
        load_keys = [keystream.next_key() for _ in range(n)]
    else:
        load_keys = [zero_key] * n
        for _ in range(n):
            keystream.next_key()
    sim.set_state_vector(shift_in(spec, [0] * n, list(scan_in), load_keys, xor_int))
    inputs = dict(zip(netlist.inputs, primary_inputs))
    primary_outputs: list[int] = []
    for _ in range(n_captures):
        keystream.next_key()
        values = sim.step(inputs)
        primary_outputs = [values[net] for net in netlist.outputs]
    captured = sim.get_state_vector()
    if obfuscated:
        unload_keys = [keystream.next_key() for _ in range(n - 1)]
    else:
        unload_keys = [zero_key] * (n - 1)
    return ScanResponse(
        scan_out=shift_out(spec, captured, unload_keys, xor_int, fill_bit=0),
        primary_outputs=primary_outputs,
    )


def random_locked_chain(rng: random.Random):
    """A random circuit with a random key-gate placement and seed."""
    n_flops = rng.randint(2, 9)
    netlist = generate_circuit(
        GeneratorConfig(n_flops=n_flops, n_inputs=3, n_outputs=2), rng, name="mask"
    )
    positions = sorted(rng.sample(range(n_flops - 1), rng.randint(1, n_flops - 1)))
    spec = ScanChainSpec(n_flops=n_flops, keygate_positions=tuple(positions))
    width = max(2, len(positions)) + rng.randint(0, 2)
    seed = random_bits(width, rng)
    seed[rng.randrange(width)] = 1  # a nonzero LFSR seed
    return netlist, spec, width, seed


class CountingKeystream:
    """Keystream wrapper that counts ``next_key`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.width = inner.width
        self.calls = 0

    def next_key(self) -> list[int]:
        self.calls += 1
        return self.inner.next_key()

    def restart(self) -> None:
        self.inner.restart()


class TestMaskedQueries:
    @pytest.mark.parametrize("kind", sorted(KEYSTREAMS))
    @pytest.mark.parametrize("trial", range(3))
    def test_matches_per_edge_reference(self, kind, trial):
        """query and unlocked_query, interleaved, equal the per-edge
        protocol on a freshly built keystream, for capture counts 1-3."""
        rng = random.Random(f"mask/{kind}/{trial}")
        netlist, spec, width, seed = random_locked_chain(rng)
        make = KEYSTREAMS[kind]
        oracle = ScanOracle(netlist, spec, make(width, seed, spec.n_flops))
        for _ in range(12):
            pattern = random_bits(spec.n_flops, rng)
            pis = random_bits(len(netlist.inputs), rng)
            n_captures = rng.randint(1, 3)
            obfuscated = rng.random() < 0.6
            query = oracle.query if obfuscated else oracle.unlocked_query
            got = query(pattern, pis, n_captures=n_captures)
            expected = per_edge_query(
                netlist,
                spec,
                make(width, seed, spec.n_flops),
                pattern,
                pis,
                n_captures,
                obfuscated,
            )
            assert got == expected
        assert oracle.obfuscation_enabled

    @pytest.mark.parametrize("chains", ["single", "multi"])
    def test_one_key_schedule_per_capture_count_and_flag(self, chains):
        """Only the first query of each (capture count, obfuscation flag)
        pair draws keys: one schedule of 2L + c - 1 edges for chains of
        length at most L, then none."""
        rng = random.Random(21)
        netlist = generate_circuit(
            GeneratorConfig(n_flops=6, n_inputs=3, n_outputs=2), rng, name="cnt"
        )
        counting = CountingKeystream(
            Keystream(FibonacciLfsr(4, [1, 0, 1, 1]))
        )
        if chains == "single":
            spec = ScanChainSpec(n_flops=6, keygate_positions=(0, 2, 3, 4))
            oracle = ScanOracle(netlist, spec, counting)
            length = 6
        else:
            spec = MultiChainSpec(
                chain_lengths=(4, 2), keygates=((0, 0), (0, 2), (1, 0))
            )
            oracle = MultiChainScanOracle(netlist, spec, counting)
            length = 4
        seen: set[tuple[int, bool]] = set()
        for n_captures, obfuscated in [
            (1, True), (1, True), (2, True), (1, False), (2, True),
            (1, False), (3, False), (1, True), (3, True), (3, False),
        ]:
            before = counting.calls
            oracle.obfuscation_enabled = obfuscated
            oracle.query(random_bits(6, rng), n_captures=n_captures)
            drawn = counting.calls - before
            if (n_captures, obfuscated) in seen:
                assert drawn == 0
            elif obfuscated:
                assert drawn == 2 * length + n_captures - 1
            seen.add((n_captures, obfuscated))

