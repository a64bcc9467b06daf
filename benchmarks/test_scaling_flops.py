"""Regenerates the Section IV scalability claim.

"Intuitively, in a larger circuit with a larger number of scan flops,
attack success should be higher as the seed bits will repeat for a larger
number of times."  -- i.e. for a fixed key width, growing the chain gives
the SAT attack more (linear) observations per DIP, so the surviving seed
space shrinks to a single candidate while execution time grows.
"""

from repro import api
from repro.reports.experiments import SCALING_HEADERS
from repro.reports.tables import render_table

FLOP_COUNTS = (13, 16, 24, 48)
KEY_BITS = 12  # near chain length at the small end, like the paper's ratio


def test_candidates_shrink_as_flops_grow(benchmark, profile, jobs):
    rows = benchmark.pedantic(
        lambda: api.run_grid(
            "scaling",
            profile=profile,
            jobs=jobs,
            flop_counts=FLOP_COUNTS,
            key_bits=KEY_BITS,
            n_seeds=3,
        ).rows,
        rounds=1,
        iterations=1,
    )
    print("\n" + render_table(
        SCALING_HEADERS,
        [row.as_cells() for row in rows],
        title=f"Flop-count scaling at fixed {KEY_BITS}-bit key "
              f"({profile.name} profile)",
    ))
    benchmark.extra_info["rows"] = [
        {"n_flops": r.n_flops, "candidates": r.n_seed_candidates}
        for r in rows
    ]
    # Shape assertions (averaged over seeds, so tolerate noise in the
    # middle): the smallest circuits leave at least as many candidates as
    # the largest, and large circuits resolve a unique seed -- Section
    # IV's "attack success should be higher [for more scan flops]".
    candidate_series = [row.n_seed_candidates for row in rows]
    assert candidate_series[0] >= candidate_series[-1]
    assert candidate_series[-1] == 1.0
