"""Typed programmatic facade: the one composition root for every workload.

Until PR 8 the CLI was the only place that knew how to wire a workload
together -- profile resolution, spec enumeration, the scheduler, the
result store, row aggregation.  That wiring now lives here, and both
front ends are thin layers over it:

* :mod:`repro.cli` parses arguments and calls these functions;
* tests drive workloads directly without spawning a CLI process.

The surface is deliberately small and typed:

``resolve_profile``/``grid_specs``
    Enumeration helpers: turn ``(experiment name, profile, kwargs)``
    into content-hashed :class:`~repro.runner.spec.JobSpec` cells.
``submit_jobs``
    The raw scheduler surface: run any spec list, return a
    :class:`~repro.runner.scheduler.RunReport`.
``run_grid`` / ``run_matrix`` / ``run_farm`` / ``run_attack``
    One call per workload family, each returning a structured result
    (rows + the scheduler report, a farm report, an attack record).

Everything here is deterministic given (specs, profile, store): the
facade adds no randomness and no hidden state beyond what the runner
already owns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.reports.profiles import PROFILES, ExperimentProfile, active_profile
from repro.runner.scheduler import RunReport, run_jobs
from repro.runner.spec import JobSpec
from repro.runner.stores import JsonFileStore

ProgressFn = Callable[[str], None]


def resolve_profile(
    profile: str | ExperimentProfile | None = None,
) -> ExperimentProfile:
    """Normalise a profile argument: name, instance, or ``None`` (active).

    ``None`` resolves through ``$REPRO_PROFILE`` (default ``quick``),
    matching every CLI command's behaviour.  Unknown names raise
    ``ValueError`` with the known choices, so callers can treat it as
    input validation instead of a stack trace.
    """
    if profile is None:
        return active_profile()
    if isinstance(profile, ExperimentProfile):
        return profile
    try:
        return PROFILES[profile]
    except KeyError:
        raise ValueError(
            f"unknown profile {profile!r}; known: {', '.join(sorted(PROFILES))}"
        ) from None


def grid_specs(
    name: str,
    profile: str | ExperimentProfile | None = None,
    **spec_kwargs,
) -> list[JobSpec]:
    """Enumerate one named experiment grid as job specs.

    The same enumeration the CLI and the benchmarks use;
    an unknown ``name`` raises ``ValueError`` (not ``KeyError``) so
    callers can treat it as input validation.
    """
    from repro.reports.experiments import GRID

    if name not in GRID:
        raise ValueError(
            f"unknown experiment {name!r}; known: {', '.join(GRID)}"
        )
    return GRID[name].build_specs(resolve_profile(profile), **spec_kwargs)


def submit_jobs(
    specs: Sequence[JobSpec],
    *,
    jobs: int = 1,
    store: JsonFileStore | None = None,
    progress: ProgressFn | None = None,
    observer=None,
    timeout_s: float | None = None,
    retries: int = 0,
) -> RunReport:
    """Run any spec list through the scheduler; the raw facade surface.

    ``progress`` takes human-readable strings (the CLI's contract), not
    raw outcomes; pass ``None`` to stay silent.  Failures land in the
    report (``RunReport.raise_on_error`` opts back into raising).
    """
    from repro.reports.experiments import adapt_progress

    return run_jobs(
        specs,
        jobs=jobs,
        store=store,
        timeout_s=timeout_s,
        retries=retries,
        progress=adapt_progress(progress) if progress is not None else None,
        observer=observer,
    )


@dataclass
class GridResult:
    """One finished grid: aggregated rows plus the scheduler accounting."""

    name: str
    title: str
    headers: list[str]
    rows: list
    report: RunReport

    def as_cells(self) -> list[list]:
        """Row objects rendered to table cells (what tables/artifacts take)."""
        return [row.as_cells() for row in self.rows]


def run_grid(
    name: str,
    *,
    profile: str | ExperimentProfile | None = None,
    jobs: int = 1,
    store: JsonFileStore | None = None,
    progress: ProgressFn | None = None,
    observer=None,
    **spec_kwargs,
) -> GridResult:
    """Run one named experiment grid end to end (table1..3, scaling, ...).

    Raises :class:`~repro.runner.scheduler.RunnerError` if any cell
    failed -- grids are all-or-nothing, matching the historical CLI
    behaviour.
    """
    from repro.reports.experiments import GRID

    resolved = resolve_profile(profile)
    specs = grid_specs(name, resolved, **spec_kwargs)
    report = submit_jobs(
        specs, jobs=jobs, store=store, progress=progress, observer=observer
    )
    report.raise_on_error()
    experiment = GRID[name]
    return GridResult(
        name=name,
        title=f"{experiment.title} (profile={resolved.name})",
        headers=list(experiment.headers),
        rows=experiment.aggregate(report.outcomes),
        report=report,
    )


def run_matrix(
    *,
    profile: str | ExperimentProfile | None = None,
    jobs: int = 1,
    store: JsonFileStore | None = None,
    progress: ProgressFn | None = None,
    observer=None,
    attacks: Sequence[str] | None = None,
    defenses: Sequence[str] | None = None,
    benchmarks: Sequence[str] | None = None,
    opt_level: int | None = None,
) -> GridResult:
    """Run the attack x defense resilience grid; rows carry verdicts.

    Paper agreement is a separate judgement call, not part of running:
    pass the returned rows to :func:`check_matrix_against_paper` when
    the caller wants the Table I gate.
    """
    from repro.matrix.grid import run_matrix as run_matrix_grid
    from repro.reports.experiments import GRID

    resolved = resolve_profile(profile)
    rows, report = run_matrix_grid(
        resolved,
        progress if progress is not None else (lambda _msg: None),
        jobs=jobs,
        store=store,
        attacks=list(attacks) if attacks else None,
        defenses=list(defenses) if defenses else None,
        benchmarks=list(benchmarks) if benchmarks else None,
        opt_level=opt_level,
        observer=observer,
    )
    return GridResult(
        name="matrix",
        title=f"Attack x defense resilience matrix (profile={resolved.name})",
        headers=list(GRID["matrix"].headers),
        rows=rows,
        report=report,
    )


def check_matrix_against_paper(rows) -> list[str]:
    """Mismatch strings vs the paper's Table I expectations (empty = agree)."""
    from repro.matrix.grid import check_against_paper

    return check_against_paper(rows)


def run_farm(
    *,
    profile: str | ExperimentProfile | None = None,
    farm_config=None,
    store: JsonFileStore | None = None,
    progress: ProgressFn | None = None,
    observer=None,
):
    """Run one fuzz-farm invocation; returns the FarmReport.

    ``farm_config`` is a :class:`repro.farm.FarmConfig` (default: one
    budgetless round).  The farm's state dir owns the corpus, the
    scheduler state, and the per-round checkpoints; calling this again
    with the same config resumes where the last invocation stopped.
    """
    import repro.farm as farm

    return farm.run_farm(
        resolve_profile(profile),
        farm_config if farm_config is not None else farm.FarmConfig(),
        store=store,
        progress=progress,
        observer=observer,
    )


@dataclass
class AttackRun:
    """One single-benchmark attack: the lock context plus the raw result."""

    benchmark: str
    n_scan_flops: int
    key_bits: int
    exact_seed: bool
    result: object  # DynUnlockResult

    @property
    def success(self) -> bool:
        return bool(self.result.success)


def run_attack(
    benchmark: str,
    *,
    profile: str | ExperimentProfile | None = None,
    key_bits: int | None = None,
    scale: int | None = None,
    lock_seed: int = 0,
    timeout_s: float | None = None,
    opt_level: int | None = None,
    observer=None,
    progress: ProgressFn | None = None,
) -> AttackRun:
    """Lock one registry benchmark with EFF-Dyn and break it in-process.

    The one-shot ``dynunlock attack`` path: no scheduler, no store.
    ``timeout_s=None`` takes the profile's budget and ``scale=None``
    its scale; any other scale below 1 is a ``ValueError``.  With an
    ``observer`` the attack runs under a job span so its phase
    instrumentation has a collection target.
    """
    from repro.bench_suite.registry import build_benchmark_netlist
    from repro.core.dynunlock import DynUnlockConfig, dynunlock
    from repro.locking.effdyn import lock_with_effdyn

    resolved = resolve_profile(profile)
    netlist = build_benchmark_netlist(
        benchmark, scale=resolved.scale if scale is None else scale
    )
    effective_bits = resolved.effective_key_bits(netlist.n_dffs, key_bits)
    lock = lock_with_effdyn(
        netlist, key_bits=effective_bits, rng=random.Random(lock_seed)
    )
    if progress is not None:
        progress(
            f"locked {benchmark}: {netlist.n_dffs} scan flops, "
            f"{effective_bits}-bit dynamic key"
        )
    config = DynUnlockConfig(
        timeout_s=resolved.timeout_s if timeout_s is None else timeout_s,
        opt_level=opt_level,
    )
    if observer is None:
        result = dynunlock(netlist, lock.public_view(), lock.make_oracle(), config)
    else:
        from repro.observability import begin_job_span, end_job_span

        span = begin_job_span(
            "attack", f"attack[benchmark={benchmark},key_bits={effective_bits}]"
        )
        try:
            result = dynunlock(
                netlist, lock.public_view(), lock.make_oracle(), config
            )
        finally:
            span_record = end_job_span(span)
        observer.inline_span(span_record)
    return AttackRun(
        benchmark=benchmark,
        n_scan_flops=netlist.n_dffs,
        key_bits=effective_bits,
        exact_seed=result.recovered_seed == list(lock.seed),
        result=result,
    )


__all__ = [
    "AttackRun",
    "GridResult",
    "check_matrix_against_paper",
    "grid_specs",
    "resolve_profile",
    "run_attack",
    "run_farm",
    "run_grid",
    "run_matrix",
    "submit_jobs",
]
