"""Regenerates the paper's Table II: DynUnlock on all ten benchmarks.

Paper (quoted for comparison; 128-bit keys, full-size circuits, averaged
over 10 LFSR seeds, lingeling on a 24-core Xeon):

    Benchmark  #flops  #key  #seed cand.  #iter  time(s)
    s5378         160   128           16     17       41
    s13207        202   128          128      4       27
    s15850        442   128            2      4       89
    s38584      1,233   128            1      3      219
    s38417      1,564   128            1      7      342
    s35932      1,728   128            1      1      254
    b20           429   128            1      1       63
    b21           429   128            1      1       54
    b22           611   128            1      1       99
    b17           864   128            1      1       86

This bench runs the same experiment at the active profile's scale (see
EXPERIMENTS.md for the recorded shape comparison): every circuit must be
broken, small circuits may leave several (power-of-two) candidates, and
the large circuits resolve a unique seed.
"""

import pytest

from repro import api
from repro.bench_suite.registry import TABLE2_BENCHMARKS
from repro.reports.experiments import TABLE2_HEADERS
from repro.reports.tables import render_table


@pytest.mark.parametrize("name", TABLE2_BENCHMARKS)
def test_table2_row(benchmark, profile, jobs, name):
    row = benchmark.pedantic(
        lambda: api.run_grid(
            "table2", profile=profile, jobs=jobs, benchmarks=[name]
        ).rows[0],
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        {
            "benchmark": row.benchmark,
            "n_scan_flops": row.n_scan_flops,
            "key_bits": row.key_bits,
            "seed_candidates": row.n_seed_candidates,
            "iterations": row.n_iterations,
            "attack_time_s": row.time_s,
            "success_rate": row.success_rate,
            "exact_seed_rate": row.exact_seed_rate,
        }
    )
    print("\n" + render_table(TABLE2_HEADERS, [row.as_cells()],
                              title=f"Table II row ({profile.name} profile)"))
    # Headline claim: every benchmark is broken.
    assert row.success_rate == 1.0
    # Candidate sets are tiny (paper: <= 128 out of 2^128).
    assert row.n_seed_candidates <= profile.candidate_limit
