#!/usr/bin/env python3
"""Quickstart: lock a circuit with EFF-Dyn, then break it with DynUnlock.

Run:  python examples/quickstart.py

Walks the full story in five steps on the genuine ISCAS-89 s27 circuit
plus a mid-size synthetic benchmark:

1. take a sequential netlist;
2. lock its scan chain with EFF-Dyn (XOR key gates + per-cycle LFSR key);
3. show that an unauthenticated tester sees scrambled scan data;
4. run DynUnlock, which recovers the secret LFSR seed from the oracle;
5. verify the recovered seed predicts the chip's scrambled responses,
   i.e. the attacker now has transparent scan access.
"""

import random

from repro import lock_with_effdyn, s27_netlist
from repro.bench_suite.registry import build_benchmark_netlist
from repro.core.dynunlock import DynUnlock, DynUnlockConfig
from repro.sim.logicsim import CombinationalSimulator
from repro.util.bitvec import bits_to_str, random_bits


def attack_one(netlist, key_bits: int, lock_seed: int) -> None:
    print(f"\n=== {netlist.name}: {netlist.n_dffs} scan flops, "
          f"{key_bits}-bit dynamic key ===")
    rng = random.Random(lock_seed)
    lock = lock_with_effdyn(netlist, key_bits=key_bits, rng=rng)
    print(f"key gates after flop positions: {lock.spec.keygate_positions}")
    print(f"LFSR taps (public, reverse-engineered): {lock.lfsr_taps}")
    print(f"secret seed (hidden from attacker):     "
          f"{bits_to_str(lock.seed)}")

    # Step 3: the scrambling is real -- compare locked vs clean responses.
    oracle = lock.make_oracle()
    probe = random_bits(netlist.n_dffs, rng)
    locked_view = oracle.query(probe).scan_out
    clean_view = oracle.unlocked_query(probe).scan_out
    print(f"scan-out, unauthenticated tester: {bits_to_str(locked_view)}")
    print(f"scan-out, trusted tester:         {bits_to_str(clean_view)}")

    # Step 4: the attack.
    result = DynUnlock(
        netlist, lock.public_view(), oracle, DynUnlockConfig(timeout_s=300)
    ).run()
    print(f"attack success:    {result.success}")
    print(f"SAT iterations:    {result.iterations}")
    print(f"seed candidates:   {result.n_seed_candidates}")
    print(f"oracle queries:    {result.oracle_queries}")
    print(f"execution time:    {result.runtime_s:.2f}s")
    print(f"recovered seed:    {bits_to_str(result.recovered_seed)}")
    exact = result.recovered_seed == list(lock.seed)
    print(f"exact seed match:  {exact}")
    assert result.success and exact

    # Step 5: transparent scan access -- predict fresh scrambled responses.
    sim = CombinationalSimulator(result.model.netlist)
    hits = 0
    for _ in range(20):
        pattern = random_bits(netlist.n_dffs, rng)
        pis = random_bits(len(netlist.inputs), rng)
        response = oracle.query(pattern, pis)
        inputs = dict(zip(result.model.a_inputs, pattern))
        inputs.update(zip(result.model.pi_inputs, pis))
        inputs.update(zip(result.model.key_inputs, result.recovered_seed))
        values = sim.run(inputs)
        predicted = [values[n] for n in result.model.b_outputs]
        hits += predicted == response.scan_out
    print(f"response prediction with recovered seed: {hits}/20 exact")
    assert hits == 20


def main() -> None:
    attack_one(s27_netlist(), key_bits=2, lock_seed=7)
    attack_one(build_benchmark_netlist("s5378", scale=16), key_bits=8,
               lock_seed=1)


if __name__ == "__main__":
    main()
