"""Regenerates the Section V discussion as an ablation.

"The only defenses that our attack cannot circumvent are those that
incorporate cryptographic functions or PUF structures to generate
dynamic keys.  Our attack cannot model such modules into their
combinational logic equivalent."

The ablation swaps the LFSR for a nonlinear filter PRNG with an identical
interface: the linear seed model then mispredicts the oracle, and the
attack's refinement step correctly rejects every candidate -- the attack
fails *safely* (it knows it failed), exactly as the paper concedes.
"""

from repro import api
from repro.reports.experiments import ABLATION_HEADERS
from repro.reports.tables import render_table


def test_nonlinear_prng_defeats_linear_modeling(benchmark, profile, jobs):
    rows = benchmark.pedantic(
        lambda: api.run_grid("ablation", profile=profile, jobs=jobs).rows,
        rounds=1,
        iterations=1,
    )
    print("\n" + render_table(
        ABLATION_HEADERS,
        [row.as_cells() for row in rows],
        title=f"PRNG ablation ({profile.name} profile)",
    ))
    by_name = {row.prng: row for row in rows}
    lfsr = by_name["lfsr"]
    nonlinear = by_name["nonlinear-filter"]
    assert lfsr.modeled_correctly and lfsr.attack_success
    assert not nonlinear.modeled_correctly
    assert not nonlinear.attack_success
    benchmark.extra_info["lfsr_broken"] = lfsr.attack_success
    benchmark.extra_info["nonlinear_broken"] = nonlinear.attack_success
