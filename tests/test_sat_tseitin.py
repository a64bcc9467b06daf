"""Tseitin encoding correctness: CNF models must match circuit simulation."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.locking.rll import lock_combinational_rll
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.netlist.transform import extract_combinational_core
from repro.sat.solver import CdclSolver
from repro.sat.tseitin import CircuitEncoder, compile_encoding, encoding_for
from repro.sim.logicsim import evaluate


def single_gate_netlist(gtype: GateType, n_inputs: int) -> Netlist:
    netlist = Netlist("g")
    ins = []
    for i in range(n_inputs):
        net = f"x{i}"
        netlist.add_input(net)
        ins.append(net)
    netlist.add_gate("y", gtype, ins)
    netlist.add_output("y")
    return netlist


#: (min, max) operand count per gate type; the rest take 2 to 4.
ARITY = {
    GateType.NOT: (1, 1), GateType.BUF: (1, 1), GateType.MUX: (3, 3),
    GateType.CONST0: (0, 0), GateType.CONST1: (0, 0),
    GateType.XOR: (2, 5), GateType.XNOR: (2, 5),
}


def random_netlist(rng: random.Random, n_gates: int) -> Netlist:
    """A random combinational netlist with a gate of every type."""
    netlist = Netlist("mix")
    nets = [f"i{k}" for k in range(4)]
    for net in nets:
        netlist.add_input(net)
    types = list(GateType) + [rng.choice(list(GateType)) for _ in range(n_gates)]
    for k, gtype in enumerate(types):
        low, high = ARITY.get(gtype, (2, 4))
        operands = [rng.choice(nets) for _ in range(rng.randint(low, high))]
        netlist.add_gate(f"g{k}", gtype, operands)
        nets.append(f"g{k}")
    for net in rng.sample(nets[4:], 3):
        netlist.add_output(net)
    return netlist


def keyed_netlist(rng: random.Random) -> tuple[Netlist, list[str]]:
    """:func:`random_netlist` plus key-only logic over some of its inputs.

    Adds key-only AND, MUX, XNOR and NOT gates, XOR/XNOR gates that
    read two or more key-only nets (most of them next to other
    operands), and key-only outputs.  The constant gates of
    :func:`random_netlist` have no operands, so they stay out of the
    key-only prefix.
    """
    netlist = random_netlist(rng, rng.randint(2, 12))
    keys = rng.sample(netlist.inputs, rng.randint(2, 3))
    others = [net for net in netlist.inputs if net not in keys] + list(netlist.gates)
    key_only = list(keys)
    key_gates = (GateType.AND, GateType.MUX, GateType.XNOR, GateType.NOT)
    for k, gtype in enumerate(key_gates):
        low, high = ARITY.get(gtype, (2, 4))
        operands = [rng.choice(key_only) for _ in range(rng.randint(low, high))]
        netlist.add_gate(f"k{k}", gtype, operands)
        key_only.append(f"k{k}")
    for k, gtype in enumerate((GateType.XOR, GateType.XNOR, GateType.XOR)):
        operands = rng.sample(key_only, rng.randint(2, 3))
        operands += [rng.choice(others) for _ in range(rng.randint(0, 2))]
        rng.shuffle(operands)
        netlist.add_gate(f"s{k}", gtype, operands)
        others.append(f"s{k}")
    for net in rng.sample(key_only[len(keys):], 2) + ["s0", "s1"]:
        netlist.add_output(net)
    return netlist, keys


GATE_CASES = [
    (GateType.AND, 2), (GateType.AND, 4),
    (GateType.NAND, 2), (GateType.NAND, 3),
    (GateType.OR, 2), (GateType.OR, 4),
    (GateType.NOR, 2), (GateType.NOR, 3),
    (GateType.XOR, 2), (GateType.XOR, 3), (GateType.XOR, 5),
    (GateType.XNOR, 2), (GateType.XNOR, 4),
    (GateType.NOT, 1), (GateType.BUF, 1), (GateType.MUX, 3),
]


class TestGateEncodings:
    @pytest.mark.parametrize("gtype,n_inputs", GATE_CASES)
    def test_encoding_matches_simulation_exhaustively(self, gtype, n_inputs):
        netlist = single_gate_netlist(gtype, n_inputs)
        for bits in itertools.product([0, 1], repeat=n_inputs):
            encoder = CircuitEncoder()
            mapping = encoder.encode_netlist(netlist)
            solver = CdclSolver(encoder.cnf)
            assumptions = [
                mapping[f"x{i}"] if bit else -mapping[f"x{i}"]
                for i, bit in enumerate(bits)
            ]
            result = solver.solve(assumptions=assumptions)
            assert result.satisfiable is True
            expected = evaluate(netlist, {f"x{i}": b for i, b in enumerate(bits)})
            assert result.model[mapping["y"]] == expected["y"]

    def test_constants(self):
        netlist = Netlist("c")
        netlist.add_gate("one", GateType.CONST1, [])
        netlist.add_gate("zero", GateType.CONST0, [])
        netlist.add_output("one")
        netlist.add_output("zero")
        encoder = CircuitEncoder()
        mapping = encoder.encode_netlist(netlist)
        result = CdclSolver(encoder.cnf).solve()
        assert result.model[mapping["one"]] == 1
        assert result.model[mapping["zero"]] == 0


class TestWholeCircuitEncoding:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_circuit_encoding_matches_simulation(self, seed):
        rng = random.Random(seed)
        config = GeneratorConfig(n_flops=5, n_inputs=4, n_outputs=3)
        core, _, _ = extract_combinational_core(
            generate_circuit(config, rng, name="enc")
        )
        encoder = CircuitEncoder()
        mapping = encoder.encode_netlist(core)
        solver = CdclSolver(encoder.cnf)
        for _ in range(5):
            bits = {net: rng.randrange(2) for net in core.inputs}
            assumptions = [
                mapping[net] if bit else -mapping[net] for net, bit in bits.items()
            ]
            result = solver.solve(assumptions=assumptions)
            assert result.satisfiable is True
            expected = evaluate(core, bits)
            for net in core.outputs:
                assert result.model[mapping[net]] == expected[net]

    def test_sequential_netlist_rejected(self):
        netlist = Netlist("seq")
        netlist.add_input("a")
        netlist.add_dff("q", "a")
        with pytest.raises(ValueError):
            CircuitEncoder().encode_netlist(netlist)


class TestSharing:
    def test_alias_shares_variables(self):
        netlist = single_gate_netlist(GateType.NOT, 1)
        encoder = CircuitEncoder()
        shared = encoder.var_for("shared_key")
        encoder.alias("A::x0", shared)
        encoder.alias("B::x0", shared)
        map_a = encoder.encode_netlist(netlist, prefix="A::")
        map_b = encoder.encode_netlist(netlist, prefix="B::")
        assert map_a["x0"] == map_b["x0"] == shared
        # Outputs are distinct nets but must be logically equal.
        solver = CdclSolver(encoder.cnf)
        solver.add_clause([map_a["y"], map_b["y"]])
        solver.add_clause([-map_a["y"], -map_b["y"]])  # y_a != y_b
        assert solver.solve().satisfiable is False

    def test_stamp_is_the_table_translation_of_the_template(self):
        # Reference: the per-clause translation through a local -> global
        # table (bound nets keep their variables, the other locals take
        # fresh ones in local order), checked clause for clause.
        for seed in range(8):
            rng = random.Random(seed)
            template = encoding_for(random_netlist(rng, rng.randint(2, 20)))
            encoder = CircuitEncoder()
            for _ in range(3):
                encoder.cnf.new_var()
            for prefix in ("", "A::", "B::", "A::", "A1::"):
                for net in rng.sample(sorted(template.net_local), 4):
                    if prefix + net not in encoder._net_vars:
                        var = rng.randint(1, encoder.cnf.n_vars)
                        encoder.alias(prefix + net, var)
                bound = {
                    local: encoder.var_for(prefix + net)
                    for net, local in template.net_local.items()
                    if prefix + net in encoder._net_vars
                }
                before, next_var = encoder.cnf.n_clauses, encoder.cnf.n_vars
                lut = [bound.get(local, 0) for local in range(template.n_locals + 1)]
                for local in range(1, template.n_locals + 1):
                    if lut[local] == 0:
                        next_var += 1
                        lut[local] = next_var
                expected = [
                    tuple(lut[l] if l > 0 else -lut[-l] for l in clause)
                    for clause in template.clauses
                ]
                mapping, table = encoder.stamp(template, prefix=prefix)
                assert encoder.cnf.clauses[before:] == expected
                assert encoder.cnf.n_vars == next_var
                assert table.tolist() == lut
                assert mapping == {
                    net: lut[local] for net, local in template.net_local.items()
                }
                assert all(
                    encoder.var_for(prefix + net) == var
                    for net, var in mapping.items()
                )

    def test_alias_conflict_rejected(self):
        encoder = CircuitEncoder()
        v = encoder.var_for("a")
        w = encoder.var_for("b")
        with pytest.raises(ValueError):
            encoder.alias("a", w)
        encoder.alias("a", v)  # idempotent alias is fine


class TestKeyOnlyPrefix:
    def test_copy_over_a_full_copy_matches_simulation(self):
        # The full copy runs on the complement of the X bits, so any
        # X-dependent net wrongly placed in the prefix would clash.
        for seed in range(30):
            rng = random.Random(seed)
            netlist, keys = keyed_netlist(rng)
            x_inputs = [net for net in netlist.inputs if net not in keys]
            template = compile_encoding(netlist, keys)
            assert 0 < template.prefix_clauses < template.n_clauses
            encoder = CircuitEncoder()
            full, table = encoder.stamp(template, prefix="A::")
            before = encoder.cnf.n_clauses
            copy, _ = encoder.stamp(template, prefix="D::", over=table)
            assert encoder.cnf.n_clauses - before == (
                template.n_clauses - template.prefix_clauses
            )
            assert [copy[net] for net in keys] == [full[net] for net in keys]
            solver = CdclSolver(encoder.cnf)
            for bits in itertools.product([0, 1], repeat=len(netlist.inputs)):
                values = dict(zip(netlist.inputs, bits))
                assumptions = [full[k] if values[k] else -full[k] for k in keys]
                for net in x_inputs:
                    assumptions += [
                        copy[net] if values[net] else -copy[net],
                        -full[net] if values[net] else full[net],
                    ]
                result = solver.solve(assumptions=assumptions)
                assert result.satisfiable is True
                expected = evaluate(netlist, values)
                assert {net: result.model[copy[net]] for net in expected} == expected

    def test_template_without_key_only_logic_is_the_plain_one(self):
        # RLL's key gates each read one key input and one circuit net.
        for seed in range(5):
            rng = random.Random(seed)
            config = GeneratorConfig(n_flops=5, n_inputs=5, n_outputs=4)
            core, _, _ = extract_combinational_core(
                generate_circuit(config, rng, name=f"rll{seed}")
            )
            lock = lock_combinational_rll(core, key_bits=6, rng=rng)
            keyed = compile_encoding(lock.locked, lock.key_inputs)
            plain = compile_encoding(lock.locked)
            assert (keyed.lits, keyed.lengths) == (plain.lits, plain.lengths)
            assert keyed.prefix_clauses == 0

    def test_cache_is_keyed_on_the_key_set(self):
        netlist, keys = keyed_netlist(random.Random(0))
        keyed = encoding_for(netlist, keys)
        assert encoding_for(netlist, reversed(keys)) is keyed
        assert encoding_for(netlist) == compile_encoding(netlist)
        assert encoding_for(netlist, keys) == keyed != encoding_for(netlist)


class TestTemplateCache:
    def test_hit_on_unchanged_netlist(self):
        netlist = single_gate_netlist(GateType.AND, 2)
        assert encoding_for(netlist) is encoding_for(netlist)

    def test_recompiled_after_count_preserving_replacement(self):
        netlist = single_gate_netlist(GateType.AND, 2)
        stale = encoding_for(netlist)
        netlist.remove_gate("y")
        netlist.add_gate("y", GateType.OR, ["x0", "x1"])
        fresh = encoding_for(netlist)
        assert fresh is not stale
        assert fresh == compile_encoding(netlist)
        assert fresh.clauses != stale.clauses

    def test_cached_template_buffers_cannot_be_written(self):
        template = encoding_for(single_gate_netlist(GateType.XOR, 3))
        assert template.clauses  # non-empty buffers
        for buffer in (template.lits, template.lengths):
            with pytest.raises(TypeError):
                buffer[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                np.frombuffer(buffer, dtype=np.intc)[0] = 0
