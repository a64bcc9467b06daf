"""Regenerates the attack x defense resilience grid end to end.

The machine-checked version of the paper's Table I landscape: every
applicable (attack, defense) pairing from the plugin registry runs on
the two smallest registry benchmarks, and each pairing the paper claims
broken must measure ``broken`` with a key verified against the oracle.
The two defenses beyond the paper (SARLock-style point function, keyed
chain scrambling) ride along with measured verdicts.
"""

from repro import api
from repro.matrix.grid import (
    MATRIX_HEADERS,
    PAPER_EXPECTATIONS,
    check_against_paper,
)
from repro.reports.tables import render_table


def test_matrix_paper_pairs_all_broken(benchmark, profile, jobs):
    rows = benchmark.pedantic(
        lambda: api.run_matrix(profile=profile, jobs=jobs).rows,
        rounds=1,
        iterations=1,
    )
    print("\n" + render_table(
        MATRIX_HEADERS,
        [row.as_cells() for row in rows],
        title=f"Attack x defense resilience matrix ({profile.name} profile)",
    ))
    mismatches = check_against_paper(rows)
    assert not mismatches, "; ".join(mismatches)
    measured = [r for r in rows if r.applicable]
    assert len(measured) >= len(PAPER_EXPECTATIONS) + 2, (
        "the grid must measure the paper pairs plus the new defenses"
    )
    new_rows = [r for r in measured if r.defense in ("sarlock", "scramble")]
    assert new_rows, "the beyond-paper defenses must appear in the grid"
    for row in new_rows:
        assert row.verdict in ("broken", "resilient", "partial")
    benchmark.extra_info["pairs_measured"] = len(measured)
    benchmark.extra_info["paper_pairs_checked"] = len(PAPER_EXPECTATIONS)
