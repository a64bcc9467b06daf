"""Micro-benchmarks of the attack's building blocks (Figs. 3/4 pipeline).

These quantify where DynUnlock spends its time and back the DESIGN.md
ablation notes: dense vs unrolled overlay encodings, model construction,
oracle query throughput, Tseitin encoding, and raw solver throughput.
"""

import random

import pytest

from repro.bench_suite.registry import build_benchmark_netlist
from repro.core.modeling import build_combinational_model
from repro.locking.effdyn import lock_with_effdyn
from repro.sat.solver import CdclSolver
from repro.sat.tseitin import CircuitEncoder
from repro.util.bitvec import random_bits

BENCH = "s15850"
SCALE = 16
KEY_BITS = 12


@pytest.fixture(scope="module")
def locked_case():
    netlist = build_benchmark_netlist(BENCH, scale=SCALE)
    lock = lock_with_effdyn(netlist, key_bits=KEY_BITS, rng=random.Random(1))
    return netlist, lock


def test_model_build_dense(benchmark, locked_case):
    netlist, lock = locked_case
    model = benchmark(
        build_combinational_model,
        netlist, lock.spec, lock.lfsr_taps, lock.key_bits,
    )
    benchmark.extra_info["model_gates"] = model.netlist.n_gates


def test_model_build_unrolled(benchmark, locked_case):
    netlist, lock = locked_case
    model = benchmark(
        build_combinational_model,
        netlist, lock.spec, lock.lfsr_taps, lock.key_bits,
        encoding="unrolled",
    )
    benchmark.extra_info["model_gates"] = model.netlist.n_gates


def test_oracle_query_throughput(benchmark, locked_case):
    netlist, lock = locked_case
    oracle = lock.make_oracle()
    rng = random.Random(2)
    pattern = random_bits(netlist.n_dffs, rng)
    pis = random_bits(len(netlist.inputs), rng)
    benchmark(oracle.query, pattern, pis)


def test_tseitin_encoding(benchmark, locked_case):
    netlist, lock = locked_case
    model = build_combinational_model(
        netlist, lock.spec, lock.lfsr_taps, lock.key_bits
    )

    def encode():
        encoder = CircuitEncoder()
        encoder.encode_netlist(model.netlist)
        return encoder.cnf

    cnf = benchmark(encode)
    benchmark.extra_info["clauses"] = cnf.n_clauses


def _pigeonhole_cnf(holes: int):
    from repro.sat.cnf import Cnf

    pigeons = holes + 1
    cnf = Cnf()
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[(p, h)] = cnf.new_var()
    for p in range(pigeons):
        cnf.add_clause([var[(p, h)] for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var[(p1, h)], -var[(p2, h)]])
    return cnf


def test_solver_throughput_pigeonhole(benchmark):
    """Raw CDCL speed on a classic UNSAT family (PHP 6 into 5)."""
    cnf = _pigeonhole_cnf(5)

    def solve():
        result = CdclSolver(cnf).solve()
        assert result.satisfiable is False
        return result

    benchmark(solve)


def test_dense_vs_unrolled_solve_ablation(benchmark, locked_case):
    """DESIGN.md ablation: the dense overlay encoding solves the first
    miter call faster than the paper-literal unrolled encoding."""
    netlist, lock = locked_case
    oracle = lock.make_oracle()

    def first_dip(encoding: str) -> float:
        from repro.attack.satattack import SatAttack, SatAttackConfig
        import time

        model = build_combinational_model(
            netlist, lock.spec, lock.lfsr_taps, lock.key_bits,
            encoding=encoding,
        )
        n_a = len(model.a_inputs)

        def ofn(x):
            r = oracle.query(x[:n_a], x[n_a:])
            return list(r.scan_out) + list(r.primary_outputs)

        attack = SatAttack(model.netlist, model.key_inputs, ofn,
                           SatAttackConfig(max_iterations=1))
        t0 = time.perf_counter()
        attack.run()
        return time.perf_counter() - t0

    def compare():
        return {"dense": first_dip("dense"), "unrolled": first_dip("unrolled")}

    times = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info.update(times)
    print(f"\nfirst-DIP wall clock: dense={times['dense']:.2f}s "
          f"unrolled={times['unrolled']:.2f}s")
