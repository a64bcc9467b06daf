#!/usr/bin/env python3
"""Extension: DynUnlock against a multi-chain scan architecture.

Run:  python examples/multichain_attack.py

Industrial designs use many parallel scan chains.  The paper evaluates a
single chain, but its insight -- the scramble is linear in the one LFSR
seed -- extends directly: all chains shift on the same clock, so every
key-gate crossing still maps to a known keystream cycle.  This example
locks a circuit with three chains of different lengths, key gates spread
across all of them, and recovers the seed with the generalised model.
"""

import random

from repro.bench_suite.generator import GeneratorConfig, generate_circuit
from repro.core.multichain import dynunlock_multichain
from repro.prng.lfsr import FibonacciLfsr, Keystream
from repro.prng.polynomials import default_taps
from repro.scan.multichain import MultiChainScanOracle, MultiChainSpec
from repro.util.bitvec import bits_to_str, random_bits


def main() -> None:
    rng = random.Random(0x3C)
    config = GeneratorConfig(n_flops=14, n_inputs=4, n_outputs=3)
    netlist = generate_circuit(config, rng, name="soc_block")

    spec = MultiChainSpec(
        chain_lengths=(6, 5, 3),
        keygates=((0, 1), (0, 4), (1, 0), (1, 3), (2, 1)),
    )
    width = spec.n_keygates
    taps = default_taps(width)
    secret_seed = random_bits(width, rng)
    while not any(secret_seed):
        secret_seed = random_bits(width, rng)

    print(f"design: {netlist.n_dffs} flops in {spec.n_chains} chains "
          f"of lengths {spec.chain_lengths}")
    print(f"key gates (chain, position): {spec.keygates}")
    print(f"{width}-bit LFSR, taps {taps}, secret seed "
          f"{bits_to_str(secret_seed)}")

    oracle = MultiChainScanOracle(
        netlist,
        spec,
        Keystream(FibonacciLfsr(width=width, seed_bits=secret_seed,
                                taps=taps)),
    )

    probe = random_bits(netlist.n_dffs, rng)
    locked_out = oracle.query(probe).scan_out
    oracle.obfuscation_enabled = False
    clean_out = oracle.query(probe).scan_out
    oracle.obfuscation_enabled = True
    print(f"\nprobe pattern:      {bits_to_str(probe)}")
    print(f"scrambled response: {bits_to_str(locked_out)}")
    print(f"clean response:     {bits_to_str(clean_out)}")

    result = dynunlock_multichain(
        netlist, spec, taps, width, oracle, timeout_s=300
    )
    print(f"\nattack success:   {result.success}")
    print(f"SAT iterations:   {result.iterations}")
    print(f"seed candidates:  {len(result.key_candidates)}")
    print(f"recovered seed:   {bits_to_str(result.recovered_key)}")
    print(f"exact match:      {result.recovered_key == secret_seed}")


if __name__ == "__main__":
    main()
