#!/usr/bin/env python3
"""Reproduce Table I: every scan-locking defense falls to its attack.

Run:  python examples/defense_evolution.py

Locks one circuit four ways -- EFF (static), DFS (blocked scan-out),
DOS (per-pattern dynamic key), EFF-Dyn (per-cycle dynamic key) -- and
breaks each with the published attack reimplemented in this repo:
ScanSAT, shift-and-leak, ScanSAT-dyn, and DynUnlock respectively.
"""

import random

from repro.attack.scansat import scansat_attack
from repro.attack.scansat_dyn import scansat_dyn_attack
from repro.attack.shift_and_leak import shift_and_leak_attack
from repro.bench_suite.registry import build_benchmark_netlist
from repro.core.dynunlock import DynUnlockConfig, dynunlock
from repro.locking.dfs import lock_with_dfs
from repro.locking.dos import lock_with_dos
from repro.locking.eff import lock_with_eff
from repro.locking.effdyn import lock_with_effdyn
from repro.reports.tables import render_table


def main() -> None:
    netlist = build_benchmark_netlist("s13207", scale=16)
    key_bits = 6
    print(f"target: {netlist.name} at 1/16 scale "
          f"({netlist.n_dffs} scan flops), {key_bits}-bit keys\n")
    rows = []

    eff = lock_with_eff(netlist, key_bits=key_bits, rng=random.Random(1))
    r = scansat_attack(eff.netlist, eff.public_view(), eff.make_oracle())
    rows.append(["EFF (Jan 2018)", "static", "ScanSAT",
                 "broken" if r.success else "HELD",
                 f"{r.iterations} it, {r.runtime_s:.1f}s"])
    print(f"EFF      -> ScanSAT        : key recovered = "
          f"{r.recovered_key == list(eff.secret_key)}")

    dfs = lock_with_dfs(netlist, key_bits=key_bits, rng=random.Random(2))
    r = shift_and_leak_attack(dfs.netlist, dfs.public_view(),
                              dfs.make_oracle())
    rows.append(["DFS (May 2018)", "static", "shift-and-leak",
                 "broken" if r.success else "HELD",
                 f"{r.iterations} it, {r.runtime_s:.1f}s"])
    print(f"DFS      -> shift-and-leak : logic key consistent = "
          f"{list(dfs.rll.secret_key) in r.key_candidates}")

    dos = lock_with_dos(netlist, key_bits=key_bits, rng=random.Random(3),
                        period_p=1)
    r = scansat_dyn_attack(dos.netlist, dos.public_view(), dos.make_oracle())
    rows.append(["DOS (Sep 2018)", "dynamic/pattern", "ScanSAT-dyn",
                 "broken" if r.success else "HELD",
                 f"{r.iterations} it, {r.runtime_s:.1f}s"])
    print(f"DOS      -> ScanSAT-dyn    : seed recovered = "
          f"{r.recovered_key == list(dos.seed)}")

    effdyn = lock_with_effdyn(netlist, key_bits=key_bits,
                              rng=random.Random(4))
    result = dynunlock(netlist, effdyn.public_view(), effdyn.make_oracle(),
                       DynUnlockConfig(timeout_s=300))
    rows.append(["EFF-Dyn (May 2019)", "dynamic/cycle", "DynUnlock",
                 "broken" if result.success else "HELD",
                 f"{result.iterations} it, {result.runtime_s:.1f}s"])
    print(f"EFF-Dyn  -> DynUnlock      : seed recovered = "
          f"{result.recovered_seed == list(effdyn.seed)}")

    print()
    print(render_table(
        ["Defense", "Obfuscation", "Attack", "Outcome", "Cost"],
        rows,
        title="Table I: evolution of scan locking (reproduced)",
    ))


if __name__ == "__main__":
    main()
