"""Regenerates the paper's Table III: key-size scaling on the three
largest circuits (s38584, s38417, s35932).

Paper shape (144..368-bit keys, full-size circuits): the attack keeps
succeeding as keys grow; seed-candidate counts stay 1 for s35932, grow to
at most 16 for s38417/s38584 at the largest keys; execution time grows
with key size (max < 23 hours on their machine for 336-bit s38417).

At the bench profile's scale the sweep uses proportionally smaller keys;
the assertions capture the same shape: success everywhere, candidate
counts bounded and non-decreasing in tendency, time growing with key
size (checked in EXPERIMENTS.md rather than asserted, since wall-clock
monotonicity is noisy at laptop scale).
"""

import pytest

from repro import api
from repro.bench_suite.registry import TABLE3_BENCHMARKS
from repro.reports.experiments import TABLE3_HEADERS
from repro.reports.tables import render_table


@pytest.mark.parametrize("name", TABLE3_BENCHMARKS)
def test_table3_sweep(benchmark, profile, jobs, name):
    # One runner grid per circuit: the whole key-size sweep fans out
    # across REPRO_JOBS workers instead of looping cell by cell.
    rows = benchmark.pedantic(
        lambda: api.run_grid(
            "table3", profile=profile, jobs=jobs, benchmarks=[name]
        ).rows,
        rounds=1,
        iterations=1,
    )
    print("\n" + render_table(
        TABLE3_HEADERS,
        [row.as_cells() for row in rows],
        title=f"Table III ({name}, {profile.name} profile)",
    ))
    benchmark.extra_info["rows"] = [
        {
            "key_bits": row.key_bits,
            "seed_candidates": row.n_seed_candidates,
            "iterations": row.n_iterations,
            "time_s": row.time_s,
        }
        for row in rows
    ]
    for row in rows:
        assert row.success_rate == 1.0, f"{name} failed at {row.key_bits} bits"
        assert row.n_seed_candidates <= profile.candidate_limit
