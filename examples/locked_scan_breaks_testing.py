#!/usr/bin/env python3
"""Why scan locking matters: fault testing through a locked chain.

Run:  python examples/locked_scan_breaks_testing.py

Scan chains exist for manufacturing test.  This example closes the loop
between the repo's ATPG substrate and the scan defenses:

1. generate stuck-at test patterns for a circuit with SAT-based ATPG;
2. apply them through the chain as a trusted tester (correct test key)
   -- every response matches the good machine, so testing works;
3. apply them as an *unauthenticated* tester on the EFF-Dyn locked chip
   -- responses are scrambled and unusable;
4. run DynUnlock, recover the seed, and predict every scrambled response
   exactly -- scan-based testing (and attack) works again.
"""

import random

from repro.atpg.atpg import generate_test_set
from repro.atpg.fault_sim import FaultSimulator
from repro.atpg.faults import enumerate_faults
from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.core.dynunlock import DynUnlockConfig, dynunlock
from repro.core.modeling import build_combinational_model
from repro.locking.effdyn import lock_with_effdyn
from repro.netlist.transform import extract_combinational_core
from repro.sim.logicsim import CombinationalSimulator


def main() -> None:
    rng = random.Random(0xA7B6)
    config = GeneratorConfig(n_flops=8, n_inputs=5, n_outputs=4)
    netlist = generate_circuit(config, rng, name="dut")
    core, ppi_nets, ppo_nets = extract_combinational_core(netlist)

    # --- 1. ATPG --------------------------------------------------------
    faults = list(enumerate_faults(core, include_inputs=False))[:60]
    atpg = generate_test_set(core, faults)
    print(f"ATPG: {len(atpg.patterns)} patterns, "
          f"{len(atpg.detected)}/{len(faults)} faults detected, "
          f"{len(atpg.untestable)} untestable "
          f"(coverage {atpg.coverage:.0%})")

    lock = lock_with_effdyn(netlist, key_bits=4, rng=rng)
    fsim = FaultSimulator(core)
    total = len(atpg.patterns)

    def expected_response(pattern) -> tuple[list[int], list[int]]:
        """Good-machine next state (b') and POs for an ATPG pattern."""
        values = fsim.good_outputs(pattern)  # ordered: ppo then POs
        n_state = len(ppo_nets)
        return values[:n_state], values[n_state:]

    # --- 2. trusted tester ----------------------------------------------
    trusted = lock.make_oracle(test_key=list(lock.secret_key))
    ok = 0
    for pattern in atpg.patterns:
        state = [pattern[n] for n in ppi_nets]
        pis = [pattern[n] for n in netlist.inputs]
        want_b, want_po = expected_response(pattern)
        response = trusted.query(state, pis)
        ok += response.scan_out == want_b and response.primary_outputs == want_po
    print(f"trusted tester (correct test key): {ok}/{total} "
          "responses match the good machine -- testing works")
    assert ok == total

    # --- 3. unauthenticated tester ---------------------------------------
    oracle = lock.make_oracle()
    usable = 0
    for pattern in atpg.patterns:
        state = [pattern[n] for n in ppi_nets]
        pis = [pattern[n] for n in netlist.inputs]
        want_b, _ = expected_response(pattern)
        usable += oracle.query(state, pis).scan_out == want_b
    print(f"unauthenticated tester (locked scan): {usable}/{total} "
          "responses interpretable -- testing is broken")

    # --- 4. attack, then test again ---------------------------------------
    result = dynunlock(netlist, lock.public_view(), oracle,
                       DynUnlockConfig(timeout_s=300))
    exact = result.recovered_seed == list(lock.seed)
    print(f"DynUnlock: success={result.success}, "
          f"seed recovered exactly={exact}")
    assert result.success and exact

    model = build_combinational_model(
        netlist, lock.spec, lock.lfsr_taps, lock.key_bits
    )
    sim = CombinationalSimulator(model.netlist)
    regained = 0
    for pattern in atpg.patterns:
        state = [pattern[n] for n in ppi_nets]
        pis = [pattern[n] for n in netlist.inputs]
        observed = oracle.query(state, pis)
        inputs = dict(zip(model.a_inputs, state))
        inputs.update(zip(model.pi_inputs, pis))
        inputs.update(zip(model.key_inputs, result.recovered_seed))
        values = sim.run(inputs)
        regained += [values[n] for n in model.b_outputs] == observed.scan_out
    print(f"attacker with recovered seed: {regained}/{total} "
          "responses predicted exactly -- scan access regained")
    assert regained == total


if __name__ == "__main__":
    main()
