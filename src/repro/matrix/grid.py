"""The attack x defense resilience grid.

Turns the paper's qualitative Table I into an executable artifact: the
full attack x defense x benchmark x seed cross-product is enumerated as
:class:`~repro.runner.spec.JobSpec` cells (experiment name
``"matrix"``), executed through the cached parallel scheduler, and
aggregated into one row per (defense, attack) pair with a measured
verdict:

* ``broken``    -- every cell recovered a key that verified against the
  live oracle;
* ``resilient`` -- no cell succeeded within its budget;
* ``partial``   -- mixed outcomes across benchmarks/seeds;
* ``n/a``       -- the attack does not target the defense's oracle
  model; the cell is *skipped entirely* (never run), and rendered as
  such so the landscape stays visibly complete.

:data:`PAPER_EXPECTATIONS` pins the five pairings the paper (and its
baselines) claim broken; :func:`check_against_paper` diffs measured
verdicts against them, which is what the ``matrix-smoke`` CI job gates
on.  Cells follow the repo-wide determinism contract: all randomness
derives from ``hash_label`` streams keyed by the cell's own parameters,
so parallel and serial grids aggregate identical rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from statistics import mean
from typing import TYPE_CHECKING, Any, Sequence

from repro.matrix.registry import (
    attack_names,
    call_attack,
    defense_names,
    get_attack,
    get_defense,
    is_applicable,
)
from repro.runner.spec import JobSpec
from repro.util.rng import hash_label

if TYPE_CHECKING:  # typing only -- a runtime import would be circular:
    # repro.reports.experiments imports this module for its GRID entry.
    from repro.reports.profiles import ExperimentProfile

#: The paper's Table I claims (plus the SAT-attack-on-RLL baseline every
#: row of that table implicitly builds on): these pairs must measure
#: ``broken`` or the reproduction has drifted from the paper.
PAPER_EXPECTATIONS: dict[tuple[str, str], str] = {
    ("scansat", "eff"): "broken",
    ("dynunlock", "effdyn"): "broken",
    ("scansat-dyn", "dos"): "broken",
    ("shift-and-leak", "dfs"): "broken",
    ("sat", "rll"): "broken",
}


def default_matrix_benchmarks(profile: ExperimentProfile) -> list[str]:
    """The two smallest registry benchmarks at the profile's scale.

    The matrix's point is pairing coverage, not circuit scale, so the
    default grid keeps instances small; pass explicit benchmarks for
    larger sweeps.
    """
    from repro.bench_suite.registry import smallest_benchmarks

    return smallest_benchmarks(2, scale=profile.scale)


def matrix_cell(
    profile: ExperimentProfile,
    *,
    attack: str,
    defense: str,
    benchmark: str,
    seed_index: int,
    opt_level: int | None = None,
) -> dict[str, Any]:
    """Run one (attack, defense, benchmark, seed) cell of the grid.

    ``opt_level`` overrides the attack's netlist-optimization
    preprocessing level (:mod:`repro.opt`); None leaves each attack at
    the default level, 0 disables optimization for the cell.
    """
    from repro.bench_suite.registry import build_benchmark_netlist

    attack_spec = get_attack(attack)
    defense_spec = get_defense(defense)
    if not is_applicable(attack_spec, defense_spec):
        raise ValueError(
            f"attack {attack!r} does not target defense {defense!r}; "
            "n/a cells must be skipped, not run"
        )
    netlist = build_benchmark_netlist(benchmark, scale=profile.scale)
    requested = defense_spec.default_key_bits
    if requested is None:
        requested = min(8, profile.key_bits)
    key_bits = profile.effective_key_bits(netlist.n_dffs, requested)
    rng = random.Random(
        hash_label(seed_index, f"matrix/{defense}/{benchmark}")
    )
    lock = defense_spec.build(netlist, key_bits, rng)
    outcome = call_attack(
        attack_spec,
        lock,
        profile=profile,
        timeout_s=profile.timeout_s,
        opt_level=opt_level,
    )
    return {
        "attack": attack,
        "defense": defense,
        "benchmark": benchmark,
        "seed_index": seed_index,
        "key_bits": int(getattr(lock, "key_bits", key_bits)),
        "success": bool(outcome.success),
        "verified": bool(outcome.verified),
        "iterations": int(outcome.iterations),
        "queries": int(outcome.queries),
        "time_s": float(outcome.runtime_s),
        "detail": outcome.detail,
        "timed_out": bool(outcome.timed_out),
    }


def matrix_specs(
    profile: ExperimentProfile,
    attacks: Sequence[str] | None = None,
    defenses: Sequence[str] | None = None,
    benchmarks: Sequence[str] | None = None,
    opt_level: int | None = None,
) -> list[JobSpec]:
    """Enumerate every *applicable* cell of the grid (n/a pairs skipped).

    The *resolved* optimization level (explicit ``opt_level``, else the
    default) always joins the cell params and hence the cache key, so a
    level change can never replay stale cached results.
    """
    from repro.opt import resolve_level

    attack_list = list(attacks) if attacks is not None else attack_names()
    defense_list = list(defenses) if defenses is not None else defense_names()
    bench_list = (
        list(benchmarks)
        if benchmarks is not None
        else default_matrix_benchmarks(profile)
    )
    extra = {"opt_level": resolve_level(opt_level)}
    specs: list[JobSpec] = []
    for defense in defense_list:
        defense_spec = get_defense(defense)
        for attack in attack_list:
            if not is_applicable(get_attack(attack), defense_spec):
                continue
            for benchmark in bench_list:
                for seed_index in range(profile.n_seeds):
                    specs.append(
                        JobSpec.make(
                            "matrix",
                            profile,
                            attack=attack,
                            defense=defense,
                            benchmark=benchmark,
                            seed_index=seed_index,
                            **extra,
                        )
                    )
    return specs


@dataclass
class MatrixRow:
    """One (defense, attack) pairing of the resilience grid."""

    defense: str
    attack: str
    defense_display: str
    attack_display: str
    verdict: str  # broken | resilient | partial | n/a
    n_cells: int
    n_broken: int
    # One int when every cell ran at the same width; a "lo-hi" range
    # string when benchmarks of different sizes clamp the key unevenly
    # (iterations/queries means then mix widths -- the range flags it).
    key_bits: int | str | None
    iterations: float | None
    queries: float | None
    time_s: float | None
    verified: bool | None

    @property
    def applicable(self) -> bool:
        return self.verdict != "n/a"

    def as_cells(self) -> list[object]:
        def num(value, fmt="{:.1f}"):
            return "-" if value is None else fmt.format(value)

        return [
            self.defense_display,
            self.attack_display,
            self.verdict,
            "-" if not self.applicable else f"{self.n_broken}/{self.n_cells}",
            "-" if self.key_bits is None else self.key_bits,
            num(self.iterations),
            num(self.queries),
            num(self.time_s, "{:.2f}"),
            "-" if self.verified is None else ("yes" if self.verified else "NO"),
        ]


MATRIX_HEADERS = [
    "Defense",
    "Attack",
    "Verdict",
    "Broken",
    "Key bits",
    "Iterations",
    "Queries",
    "Time (s)",
    "Verified",
]


def _verdict(cells: list[dict]) -> str:
    broken = sum(1 for c in cells if c["success"] and c["verified"])
    if broken == len(cells):
        return "broken"
    if broken == 0:
        return "resilient"
    return "partial"


def matrix_rows(
    outcomes: Sequence,
    attacks: Sequence[str] | None = None,
    defenses: Sequence[str] | None = None,
) -> list[MatrixRow]:
    """Aggregate cells into the full grid, reinstating n/a pairs.

    ``attacks``/``defenses`` must match the lists the specs were built
    with (default: every registered plugin) so that pairs *filtered out*
    by the caller are distinguishable from pairs that are structurally
    n/a.
    """
    attack_list = list(attacks) if attacks is not None else attack_names()
    defense_list = list(defenses) if defenses is not None else defense_names()
    grouped: dict[tuple[str, str], list[dict]] = {}
    for outcome in outcomes:
        key = (outcome.spec.params["defense"], outcome.spec.params["attack"])
        grouped.setdefault(key, []).append(outcome.result)

    rows: list[MatrixRow] = []
    for defense in defense_list:
        defense_spec = get_defense(defense)
        for attack in attack_list:
            attack_spec = get_attack(attack)
            if not is_applicable(attack_spec, defense_spec):
                rows.append(
                    MatrixRow(
                        defense=defense,
                        attack=attack,
                        defense_display=defense_spec.display,
                        attack_display=attack_spec.display,
                        verdict="n/a",
                        n_cells=0,
                        n_broken=0,
                        key_bits=None,
                        iterations=None,
                        queries=None,
                        time_s=None,
                        verified=None,
                    )
                )
                continue
            cells = grouped.get((defense, attack))
            if not cells:
                raise ValueError(
                    f"no cells for applicable pair ({attack}, {defense}); "
                    "aggregate with the same attack/defense lists the "
                    "specs were built with"
                )
            widths = sorted({c["key_bits"] for c in cells})
            key_bits = (
                widths[0]
                if len(widths) == 1
                else f"{widths[0]}-{widths[-1]}"
            )
            rows.append(
                MatrixRow(
                    defense=defense,
                    attack=attack,
                    defense_display=defense_spec.display,
                    attack_display=attack_spec.display,
                    verdict=_verdict(cells),
                    n_cells=len(cells),
                    n_broken=sum(
                        1 for c in cells if c["success"] and c["verified"]
                    ),
                    key_bits=key_bits,
                    iterations=mean(c["iterations"] for c in cells),
                    queries=mean(c["queries"] for c in cells),
                    time_s=mean(c["time_s"] for c in cells),
                    verified=all(c["verified"] for c in cells),
                )
            )
    return rows


def check_against_paper(rows: Sequence[MatrixRow]) -> list[str]:
    """Diff measured verdicts against :data:`PAPER_EXPECTATIONS`.

    Only pairs present in ``rows`` are checked, so filtered runs (e.g.
    ``--defenses eff``) are judged on what they actually measured.
    Returns human-readable mismatch descriptions (empty = agreement).
    """
    mismatches: list[str] = []
    for row in rows:
        expected = PAPER_EXPECTATIONS.get((row.attack, row.defense))
        if expected is None:
            continue
        if row.verdict != expected:
            mismatches.append(
                f"{row.attack} vs {row.defense}: paper says {expected}, "
                f"measured {row.verdict} ({row.n_broken}/{row.n_cells} broken)"
            )
    return mismatches
