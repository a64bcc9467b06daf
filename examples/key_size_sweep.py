#!/usr/bin/env python3
"""Table III in miniature: attack cost and candidates vs key size.

Run:  python examples/key_size_sweep.py

Sweeps the dynamic key width on one circuit (like the paper's Table III,
which sweeps 144..368-bit keys on its three largest circuits) and prints
the resulting seed-candidate counts, iteration counts and run times plus
an ASCII trend chart.  The expected shape, reproduced here: the attack
keeps succeeding at every key size; candidate counts stay tiny powers of
two; time grows with the key width.
"""

import random

from repro.bench_suite.registry import build_benchmark_netlist
from repro.core.dynunlock import DynUnlockConfig, dynunlock
from repro.locking.effdyn import lock_with_effdyn
from repro.reports.figures import ascii_bar_chart
from repro.reports.tables import render_table


def main() -> None:
    netlist = build_benchmark_netlist("s15850", scale=16)
    key_sizes = [6, 10, 14, 18, 22]
    print(f"target: {netlist.name} at 1/16 scale "
          f"({netlist.n_dffs} scan flops); sweeping key sizes "
          f"{key_sizes}\n")

    rows = []
    times = []
    for key_bits in key_sizes:
        lock = lock_with_effdyn(netlist, key_bits=key_bits,
                                rng=random.Random(key_bits))
        result = dynunlock(netlist, lock.public_view(), lock.make_oracle(),
                           DynUnlockConfig(timeout_s=600))
        exact = result.recovered_seed == list(lock.seed)
        rows.append([key_bits, result.n_seed_candidates, result.iterations,
                     result.runtime_s, "yes" if exact else "no"])
        times.append(result.runtime_s)
        print(f"  key={key_bits:3}: candidates={result.n_seed_candidates} "
              f"iters={result.iterations} t={result.runtime_s:.1f}s "
              f"exact={exact}")
        assert exact

    print()
    print(render_table(
        ["Key bits", "# Seed candidates", "# Iterations", "Time (s)",
         "Exact seed"],
        rows,
        title="Key-size sweep (Table III shape)",
    ))
    print()
    print(ascii_bar_chart(key_sizes, times,
                          title="execution time vs key size", unit="s"))


if __name__ == "__main__":
    main()
