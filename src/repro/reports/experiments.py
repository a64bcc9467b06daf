"""Runners for every experiment in the paper's evaluation section.

Each ``run_*`` function mirrors one table/figure/claim and returns
structured rows; the benches and the CLI print them via
:mod:`repro.reports.tables`.  All randomness is derived from fixed
integer seeds, so two runs at the same profile produce identical rows
(modulo wall-clock columns).

Since PR 2 the runners no longer loop inline: they enumerate the
benchmark x config x seed grid as :class:`~repro.runner.spec.JobSpec`
cells (one per :mod:`repro.reports.cells` invocation) and push them
through :func:`repro.runner.scheduler.run_jobs`.  Every runner accepts

* ``jobs`` -- worker processes (1 = serial in-process, the default);
* ``store`` -- a :class:`~repro.runner.stores.JsonFileStore` memoising
  finished cells, making re-runs resumable and incremental.

Parallel and serial runs aggregate identical cell results in identical
(spec) order, so the produced rows match cell-for-cell; with a store,
repeated runs are byte-identical including the timing columns.

The :data:`GRID` registry maps experiment names to (spec enumeration,
row aggregation) pairs so callers like ``dynunlock run`` can fuse
several experiments into one scheduler grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean
from typing import Callable, Sequence

from repro.bench_suite.registry import TABLE2_BENCHMARKS, TABLE3_BENCHMARKS
from repro.matrix.grid import MATRIX_HEADERS, matrix_rows, matrix_specs
from repro.netlist.netlist import Netlist
from repro.opt import resolve_level
from repro.reports.cells import _TABLE1_DEFENSES, table1_cell
from repro.reports.profiles import ExperimentProfile
from repro.runner.scheduler import JobOutcome, run_jobs
from repro.runner.spec import JobSpec
from repro.runner.stores import JsonFileStore

ProgressFn = Callable[[str], None]


def _noop_progress(_: str) -> None:
    return None


_PROGRESS_KEYS = (
    "n_seed_candidates",
    "iterations",
    "time_s",
    "success",
    "exact_seed",
    "broken",
    "attack_success",
    "modeled_correctly",
)


def adapt_progress(progress: ProgressFn) -> Callable[[JobOutcome], None]:
    """Bridge the runner's outcome callbacks onto the string ProgressFn."""

    def callback(outcome: JobOutcome) -> None:
        if not outcome.ok:
            progress(f"{outcome.spec.label}: FAILED ({outcome.error})")
            return
        result = outcome.result or {}
        bits = []
        for key in _PROGRESS_KEYS:
            if key in result:
                value = result[key]
                text = f"{value:.1f}" if isinstance(value, float) else str(value)
                bits.append(f"{key}={text}")
        state = "cached" if outcome.cached else f"computed in {outcome.duration_s:.1f}s"
        progress(f"{outcome.spec.label}: {' '.join(bits)} [{state}]")

    return callback


def _run_grid(
    specs: Sequence[JobSpec],
    progress: ProgressFn,
    jobs: int,
    store: JsonFileStore | None,
) -> list[JobOutcome]:
    """Run one experiment's specs, failing loudly if any cell failed."""
    report = run_jobs(
        specs, jobs=jobs, store=store, progress=adapt_progress(progress)
    )
    report.raise_on_error()
    return report.outcomes


def run_grid_experiment(
    name: str,
    profile: ExperimentProfile,
    progress: ProgressFn = _noop_progress,
    *,
    jobs: int = 1,
    store: JsonFileStore | None = None,
    observer=None,
    **spec_kwargs,
):
    """Run one :data:`GRID` experiment end to end: ``(rows, RunReport)``.

    The one-stop surface for callers (the CLI, scripts) that also want
    the scheduler accounting -- cached/computed counts, wall time --
    next to the aggregated paper-style rows.  ``observer`` (a
    :class:`~repro.observability.session.RunObserver`) turns on per-job
    span collection; ``None`` keeps the run instrumentation-free.
    """
    experiment = GRID[name]
    specs = experiment.build_specs(profile, **spec_kwargs)
    report = run_jobs(
        specs,
        jobs=jobs,
        store=store,
        progress=adapt_progress(progress),
        observer=observer,
    )
    report.raise_on_error()
    return experiment.aggregate(report.outcomes), report


# ----------------------------------------------------------------------
# Table II: main attack results
# ----------------------------------------------------------------------
@dataclass
class Table2Row:
    """One row of the paper's Table II (averaged over LFSR seeds)."""

    benchmark: str
    n_scan_flops: int
    key_bits: int
    n_seed_candidates: float
    n_iterations: float
    time_s: float
    success_rate: float
    exact_seed_rate: float

    def as_cells(self) -> list[object]:
        return [
            self.benchmark,
            self.n_scan_flops,
            self.key_bits,
            self.n_seed_candidates,
            self.n_iterations,
            self.time_s,
            f"{self.success_rate:.0%}",
            f"{self.exact_seed_rate:.0%}",
        ]


TABLE2_HEADERS = [
    "Benchmark",
    "# Scan flops",
    "# Key bits",
    "# Seed candidates",
    "# Iterations",
    "Exec time (s)",
    "Success",
    "Exact seed",
]


def table2_specs(
    profile: ExperimentProfile,
    benchmarks: Sequence[str] | None = None,
    key_bits: int | None = None,
    experiment: str = "table2",
    opt_level: int | None = None,
) -> list[JobSpec]:
    """Enumerate the (benchmark x LFSR seed) grid for Table II.

    The *resolved* optimization level (explicit ``opt_level``, else the
    default) always joins the cell params -- and hence the cache key --
    so a level change can never replay stale cached results.
    Resolution happens here, in the driver process, not in the workers.
    """
    names = list(benchmarks) if benchmarks is not None else TABLE2_BENCHMARKS
    extra = {"opt_level": resolve_level(opt_level)}
    return [
        JobSpec.make(
            experiment,
            profile,
            benchmark=name,
            seed_index=seed_index,
            key_bits=key_bits,
            **extra,
        )
        for name in names
        for seed_index in range(profile.n_seeds)
    ]


def table2_rows(outcomes: Sequence[JobOutcome]) -> list[Table2Row]:
    """Average per-seed table2 cells into per-benchmark rows (spec order)."""
    grouped: dict[str, list[dict]] = {}
    for outcome in outcomes:
        grouped.setdefault(outcome.spec.params["benchmark"], []).append(
            outcome.result
        )
    rows = []
    for name, cells in grouped.items():
        rows.append(
            Table2Row(
                benchmark=name,
                n_scan_flops=cells[0]["n_scan_flops"],
                key_bits=cells[0]["key_bits"],
                n_seed_candidates=mean(c["n_seed_candidates"] for c in cells),
                n_iterations=mean(c["iterations"] for c in cells),
                time_s=mean(c["time_s"] for c in cells),
                success_rate=mean(1.0 if c["success"] else 0.0 for c in cells),
                exact_seed_rate=mean(1.0 if c["exact_seed"] else 0.0 for c in cells),
            )
        )
    return rows


def run_table2_row(
    name: str,
    profile: ExperimentProfile,
    key_bits: int | None = None,
    progress: ProgressFn = _noop_progress,
    *,
    jobs: int = 1,
    store: JsonFileStore | None = None,
) -> Table2Row:
    """Attack one benchmark for ``profile.n_seeds`` different LFSR seeds."""
    specs = table2_specs(profile, [name], key_bits=key_bits)
    outcomes = _run_grid(specs, progress, jobs, store)
    return table2_rows(outcomes)[0]


def run_table2(
    profile: ExperimentProfile,
    benchmarks: Sequence[str] | None = None,
    progress: ProgressFn = _noop_progress,
    *,
    jobs: int = 1,
    store: JsonFileStore | None = None,
) -> list[Table2Row]:
    """Run every Table II row at the given profile."""
    specs = table2_specs(profile, benchmarks)
    outcomes = _run_grid(specs, progress, jobs, store)
    return table2_rows(outcomes)


# ----------------------------------------------------------------------
# Table III: key-size scaling on the three largest circuits
# ----------------------------------------------------------------------
@dataclass
class Table3Row:
    """One cell of the paper's Table III (one circuit at one key size)."""

    benchmark: str
    key_bits: int
    n_seed_candidates: float
    n_iterations: float
    time_s: float
    success_rate: float

    def as_cells(self) -> list[object]:
        return [
            self.benchmark,
            self.key_bits,
            self.n_seed_candidates,
            self.n_iterations,
            self.time_s,
            f"{self.success_rate:.0%}",
        ]


TABLE3_HEADERS = [
    "Benchmark",
    "Key bits",
    "# Seed candidates",
    "# Iterations",
    "Exec time (s)",
    "Success",
]


def table3_specs(
    profile: ExperimentProfile,
    benchmarks: Sequence[str] | None = None,
    key_sizes: Sequence[int] | None = None,
    opt_level: int | None = None,
) -> list[JobSpec]:
    """Enumerate the (benchmark x key size x seed) grid for Table III."""
    names = list(benchmarks) if benchmarks is not None else TABLE3_BENCHMARKS
    sizes = (
        list(key_sizes) if key_sizes is not None else list(profile.table3_key_sizes)
    )
    specs: list[JobSpec] = []
    for name in names:
        for kb in sizes:
            specs.extend(
                table2_specs(
                    profile,
                    [name],
                    key_bits=kb,
                    experiment="table3",
                    opt_level=opt_level,
                )
            )
    return specs


def table3_rows(outcomes: Sequence[JobOutcome]) -> list[Table3Row]:
    """Average table3 cells into per-(benchmark, key size) rows."""
    grouped: dict[tuple[str, int], list[dict]] = {}
    for outcome in outcomes:
        key = (outcome.spec.params["benchmark"], outcome.spec.params["key_bits"])
        grouped.setdefault(key, []).append(outcome.result)
    rows = []
    for (name, _), cells in grouped.items():
        rows.append(
            Table3Row(
                benchmark=name,
                key_bits=cells[0]["key_bits"],
                n_seed_candidates=mean(c["n_seed_candidates"] for c in cells),
                n_iterations=mean(c["iterations"] for c in cells),
                time_s=mean(c["time_s"] for c in cells),
                success_rate=mean(1.0 if c["success"] else 0.0 for c in cells),
            )
        )
    return rows


def run_table3_cell(
    name: str,
    key_bits: int,
    profile: ExperimentProfile,
    progress: ProgressFn = _noop_progress,
    *,
    jobs: int = 1,
    store: JsonFileStore | None = None,
) -> Table3Row:
    """Attack one circuit at one key size (a single Table III cell)."""
    specs = table3_specs(profile, [name], [key_bits])
    outcomes = _run_grid(specs, progress, jobs, store)
    return table3_rows(outcomes)[0]


def run_table3(
    profile: ExperimentProfile,
    benchmarks: Sequence[str] | None = None,
    key_sizes: Sequence[int] | None = None,
    progress: ProgressFn = _noop_progress,
    *,
    jobs: int = 1,
    store: JsonFileStore | None = None,
) -> list[Table3Row]:
    """Run the full Table III sweep at the given profile."""
    specs = table3_specs(profile, benchmarks, key_sizes)
    outcomes = _run_grid(specs, progress, jobs, store)
    return table3_rows(outcomes)


# ----------------------------------------------------------------------
# Table I: the defense/attack evolution matrix
# ----------------------------------------------------------------------
@dataclass
class Table1Row:
    """One defense/attack pairing of the paper's Table I."""

    defense: str
    obfuscation_type: str
    attack: str
    broken: bool
    detail: str

    def as_cells(self) -> list[object]:
        return [
            self.defense,
            self.obfuscation_type,
            self.attack,
            "yes" if self.broken else "NO",
            self.detail,
        ]


TABLE1_HEADERS = ["Defense", "Obfuscation", "Attack", "Broken", "Detail"]


def table1_specs(
    profile: ExperimentProfile, opt_level: int | None = None
) -> list[JobSpec]:
    """Enumerate the four defense/attack pairings of Table I."""
    extra = {"opt_level": resolve_level(opt_level)}
    return [
        JobSpec.make("table1", profile, defense=defense, **extra)
        for defense in _TABLE1_DEFENSES
    ]


def table1_rows(outcomes: Sequence[JobOutcome]) -> list[Table1Row]:
    """Shape table1 cells into rows (one per defense, spec order)."""
    return [
        Table1Row(
            defense=o.result["defense"],
            obfuscation_type=o.result["obfuscation_type"],
            attack=o.result["attack"],
            broken=o.result["broken"],
            detail=o.result["detail"],
        )
        for o in outcomes
    ]


def run_table1(
    profile: ExperimentProfile,
    circuit: Netlist | None = None,
    progress: ProgressFn = _noop_progress,
    *,
    jobs: int = 1,
    store: JsonFileStore | None = None,
) -> list[Table1Row]:
    """Break each defense of Table I with its published attack.

    Runs on one mid-size circuit; key widths are kept small because the
    point is the four defense/attack pairings, not scaling.  Passing a
    custom ``circuit`` bypasses the scheduler and cache (a foreign
    netlist has no stable content identity to key on).
    """
    if circuit is not None:
        rows = []
        for defense in _TABLE1_DEFENSES:
            cell = table1_cell(profile, defense=defense, netlist=circuit)
            progress(f"table1 {cell['defense']}/{cell['attack']} "
                     f"broken={cell['broken']}")
            rows.append(
                Table1Row(
                    defense=cell["defense"],
                    obfuscation_type=cell["obfuscation_type"],
                    attack=cell["attack"],
                    broken=cell["broken"],
                    detail=cell["detail"],
                )
            )
        return rows
    outcomes = _run_grid(table1_specs(profile), progress, jobs, store)
    return table1_rows(outcomes)


# ----------------------------------------------------------------------
# Section IV scalability claim: candidates vs scan-flop count
# ----------------------------------------------------------------------
@dataclass
class ScalingRow:
    """One point of the Section IV flop-count scaling study."""

    n_flops: int
    key_bits: int
    n_seed_candidates: float
    n_iterations: float
    time_s: float

    def as_cells(self) -> list[object]:
        return [
            self.n_flops,
            self.key_bits,
            self.n_seed_candidates,
            self.n_iterations,
            self.time_s,
        ]


SCALING_HEADERS = [
    "# Scan flops",
    "Key bits",
    "# Seed candidates",
    "# Iterations",
    "Exec time (s)",
]


def scaling_specs(
    profile: ExperimentProfile,
    flop_counts: Sequence[int] = (12, 20, 36, 60),
    key_bits: int = 8,
    n_seeds: int | None = None,
    opt_level: int | None = None,
) -> list[JobSpec]:
    """Enumerate the (flop count x seed) grid of the scaling study."""
    seeds = n_seeds if n_seeds is not None else profile.n_seeds
    extra = {"opt_level": resolve_level(opt_level)}
    return [
        JobSpec.make(
            "scaling",
            profile,
            n_flops=n_flops,
            seed_index=seed_index,
            key_bits=key_bits,
            **extra,
        )
        for n_flops in flop_counts
        for seed_index in range(seeds)
    ]


def scaling_rows(outcomes: Sequence[JobOutcome]) -> list[ScalingRow]:
    """Average per-seed scaling cells into per-flop-count rows."""
    grouped: dict[int, list[dict]] = {}
    for outcome in outcomes:
        grouped.setdefault(outcome.spec.params["n_flops"], []).append(
            outcome.result
        )
    rows = []
    for n_flops, cells in grouped.items():
        rows.append(
            ScalingRow(
                n_flops=n_flops,
                key_bits=cells[0]["key_bits"],
                n_seed_candidates=mean(c["n_seed_candidates"] for c in cells),
                n_iterations=mean(c["iterations"] for c in cells),
                time_s=mean(c["time_s"] for c in cells),
            )
        )
    return rows


def run_flop_scaling(
    profile: ExperimentProfile,
    flop_counts: Sequence[int] = (12, 20, 36, 60),
    key_bits: int = 8,
    n_seeds: int | None = None,
    progress: ProgressFn = _noop_progress,
    *,
    jobs: int = 1,
    store: JsonFileStore | None = None,
) -> list[ScalingRow]:
    """Fixed key width, growing chains: candidates shrink, time grows."""
    specs = scaling_specs(profile, flop_counts, key_bits, n_seeds)
    outcomes = _run_grid(specs, progress, jobs, store)
    return scaling_rows(outcomes)


# ----------------------------------------------------------------------
# Section V: crypto/PUF-keyed defenses are out of scope (ablation)
# ----------------------------------------------------------------------
@dataclass
class AblationRow:
    """One PRNG variant of the Section V limitation study."""

    prng: str
    modeled_correctly: bool
    attack_success: bool
    exact_seed: bool

    def as_cells(self) -> list[object]:
        return [
            self.prng,
            "yes" if self.modeled_correctly else "NO",
            "yes" if self.attack_success else "NO",
            "yes" if self.exact_seed else "NO",
        ]


ABLATION_HEADERS = ["PRNG", "Linear model valid", "Attack success", "Exact seed"]


def ablation_specs(
    profile: ExperimentProfile,
    n_flops: int = 10,
    key_bits: int = 5,
    opt_level: int | None = None,
) -> list[JobSpec]:
    """Enumerate the LFSR-vs-nonlinear pair of the Section V ablation."""
    extra = {"opt_level": resolve_level(opt_level)}
    return [
        JobSpec.make(
            "ablation",
            profile,
            prng=prng,
            n_flops=n_flops,
            key_bits=key_bits,
            **extra,
        )
        for prng in ("lfsr", "nonlinear-filter")
    ]


def ablation_rows(outcomes: Sequence[JobOutcome]) -> list[AblationRow]:
    """Shape ablation cells into rows (one per PRNG variant)."""
    return [
        AblationRow(
            prng=o.result["prng"],
            modeled_correctly=o.result["modeled_correctly"],
            attack_success=o.result["attack_success"],
            exact_seed=o.result["exact_seed"],
        )
        for o in outcomes
    ]


def run_nonlinear_ablation(
    profile: ExperimentProfile,
    n_flops: int = 10,
    key_bits: int = 5,
    progress: ProgressFn = _noop_progress,
    *,
    jobs: int = 1,
    store: JsonFileStore | None = None,
) -> list[AblationRow]:
    """LFSR vs nonlinear filter PRNG: the attack's stated limitation.

    With the LFSR, the linear seed model reproduces the oracle and the
    attack succeeds.  With the nonlinear PRNG swapped in (same interface,
    same taps public), the linear model mispredicts and the refinement
    step rejects every candidate -- reproducing Section V's discussion.
    """
    specs = ablation_specs(profile, n_flops, key_bits)
    outcomes = _run_grid(specs, progress, jobs, store)
    return ablation_rows(outcomes)


# ----------------------------------------------------------------------
# The grid registry: everything `dynunlock run` can fan out
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GridExperiment:
    """One named experiment: spec enumeration plus row aggregation."""

    name: str
    title: str
    headers: list[str]
    build_specs: Callable[..., list[JobSpec]]
    aggregate: Callable[[Sequence[JobOutcome]], list]


GRID: dict[str, GridExperiment] = {
    "table1": GridExperiment(
        "table1", "Table I", TABLE1_HEADERS, table1_specs, table1_rows
    ),
    "table2": GridExperiment(
        "table2", "Table II", TABLE2_HEADERS, table2_specs, table2_rows
    ),
    "table3": GridExperiment(
        "table3", "Table III", TABLE3_HEADERS, table3_specs, table3_rows
    ),
    "scaling": GridExperiment(
        "scaling", "Flop scaling", SCALING_HEADERS, scaling_specs, scaling_rows
    ),
    "ablation": GridExperiment(
        "ablation", "PRNG ablation", ABLATION_HEADERS, ablation_specs, ablation_rows
    ),
    "matrix": GridExperiment(
        "matrix",
        "Attack x defense resilience matrix",
        MATRIX_HEADERS,
        matrix_specs,
        matrix_rows,
    ),
}
