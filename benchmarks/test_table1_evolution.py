"""Regenerates the paper's Table I: each scan-locking defense falls to
its published attack.

    Defense   Obfuscation  Attack            (paper)
    EFF       static       ScanSAT
    DFS       static       shift-and-leak
    DOS       dynamic      ScanSAT (dyn)
    EFF-Dyn   dynamic      DynUnlock (this work)

The bench locks one registry circuit four ways and requires every attack
to succeed.
"""

from repro import api
from repro.reports.experiments import TABLE1_HEADERS
from repro.reports.tables import render_table


def test_table1_every_defense_is_broken(benchmark, profile, jobs):
    rows = benchmark.pedantic(
        lambda: api.run_grid("table1", profile=profile, jobs=jobs).rows,
        rounds=1,
        iterations=1,
    )
    print("\n" + render_table(
        TABLE1_HEADERS,
        [row.as_cells() for row in rows],
        title=f"Table I ({profile.name} profile)",
    ))
    assert len(rows) == 4
    for row in rows:
        assert row.broken, f"{row.defense} resisted {row.attack}"
    benchmark.extra_info["defenses_broken"] = len(rows)
