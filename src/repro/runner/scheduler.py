"""Fan an experiment grid out across cores, memoising finished cells.

:func:`run_jobs` is the one entry point: give it a list of
:class:`~repro.runner.spec.JobSpec` and it returns one
:class:`JobOutcome` per spec *in input order*, regardless of completion
order -- so aggregation code downstream never sees scheduling
nondeterminism.  Features:

* ``jobs=1`` runs serially in-process (no pickling, easy debugging);
  ``jobs>1`` uses a :class:`~concurrent.futures.ProcessPoolExecutor`.
* A result store (:class:`~repro.runner.stores.JsonFileStore`)
  short-circuits cells whose (spec hash, code version) pair is
  already on disk, and absorbs every
  freshly computed cell -- an interrupted grid resumes where it stopped.
  A result with a true ``timed_out`` (an attack that ran out of its
  wall-clock budget) is reported but not stored.
* Per-job ``timeout_s`` (enforced by an interval timer inside the
  worker) and ``retries`` re-submissions for transient failures
  (default 0: cells are deterministic, so an identical resubmission
  usually just doubles the cost of a real failure -- and with a store,
  simply re-running the grid retries the failed cells anyway).
* ``progress`` receives every :class:`JobOutcome` as it lands, cached or
  computed, for streaming CLI/bench output.
* ``observer`` (a :class:`~repro.observability.session.RunObserver`,
  or any object with ``submitted``/``finished`` hooks) turns on per-job
  instrumentation: workers collect phase spans, and every
  dispatch/landing is reported for queue-latency accounting.  ``None``
  (the default) is strictly zero-cost -- no span collection,
  byte-identical results.

Failures never raise mid-grid: they land in ``JobOutcome.error`` so one
bad cell cannot waste the rest of a long run.  Call
:meth:`RunReport.raise_on_error` (or use ``RunReport.results``) when
partial grids are unacceptable.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.runner.spec import JobSpec
from repro.runner.stores import JsonFileStore
from repro.runner.worker import execute_job

ProgressFn = Callable[["JobOutcome"], None]


class RunnerError(RuntimeError):
    """Raised by :meth:`RunReport.raise_on_error` when any cell failed."""


@dataclass
class JobOutcome:
    """What happened to one spec: a result, a cache hit, or an error."""

    index: int
    spec: JobSpec
    result: dict | None
    cached: bool = False
    attempts: int = 0
    duration_s: float = 0.0
    error: str | None = None
    #: Worker-collected instrumentation record (observer runs only).
    span: dict | None = None

    @property
    def ok(self) -> bool:
        """Whether the cell produced a result (cached or computed)."""
        return self.result is not None


@dataclass
class RunReport:
    """All outcomes of one grid, in input order, plus wall-clock totals."""

    outcomes: list[JobOutcome] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def n_cached(self) -> int:
        """Cells served from the result store."""
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def n_computed(self) -> int:
        """Cells freshly executed this run."""
        return sum(1 for o in self.outcomes if o.ok and not o.cached)

    @property
    def n_failed(self) -> int:
        """Cells that errored out even after retries."""
        return sum(1 for o in self.outcomes if not o.ok)

    def raise_on_error(self) -> None:
        """Raise :class:`RunnerError` naming every failed cell, if any."""
        failed = [o for o in self.outcomes if not o.ok]
        if failed:
            detail = "; ".join(f"{o.spec.label}: {o.error}" for o in failed[:5])
            more = f" (+{len(failed) - 5} more)" if len(failed) > 5 else ""
            raise RunnerError(f"{len(failed)} job(s) failed: {detail}{more}")

    @property
    def results(self) -> list[dict]:
        """Result dicts in spec order; raises if any cell failed."""
        self.raise_on_error()
        return [o.result for o in self.outcomes]  # type: ignore[misc]

    def summary(self) -> str:
        """One-line ``computed/cached/failed`` accounting for CLIs."""
        return (
            f"{len(self.outcomes)} job(s): {self.n_computed} computed, "
            f"{self.n_cached} cached, {self.n_failed} failed "
            f"in {self.wall_s:.2f}s wall"
        )


def _emit(progress: ProgressFn | None, outcome: JobOutcome) -> None:
    if progress is not None:
        progress(outcome)


def run_jobs(
    specs: Sequence[JobSpec],
    *,
    jobs: int = 1,
    store: JsonFileStore | None = None,
    timeout_s: float | None = None,
    retries: int = 0,
    progress: ProgressFn | None = None,
    observer=None,
) -> RunReport:
    """Execute a grid of specs; see the module docstring for semantics."""
    started = time.perf_counter()
    report = RunReport(
        outcomes=[JobOutcome(index=i, spec=s, result=None) for i, s in enumerate(specs)]
    )

    pending: list[int] = []
    for outcome in report.outcomes:
        hit = store.get(outcome.spec) if store is not None else None
        if hit is not None:
            outcome.result = hit
            outcome.cached = True
            if observer is not None:
                observer.finished(outcome)
            _emit(progress, outcome)
        else:
            pending.append(outcome.index)

    if pending:
        if jobs <= 1:
            _run_serial(report, pending, store, timeout_s, retries, progress, observer)
        else:
            _run_parallel(
                report, pending, jobs, store, timeout_s, retries, progress, observer
            )

    report.wall_s = time.perf_counter() - started
    return report


def _finish(
    report: RunReport,
    index: int,
    payload: dict,
    store: JsonFileStore | None,
    progress: ProgressFn | None,
    observer=None,
) -> None:
    outcome = report.outcomes[index]
    outcome.result = payload["result"]
    outcome.duration_s = payload["duration_s"]
    outcome.span = payload.get("span")
    # A timed-out attack's verdict depends on the machine that ran it, so
    # it is reported but never cached under the machine-independent key.
    if store is not None and not outcome.result.get("timed_out"):
        store.put(outcome.spec, outcome.result, duration_s=outcome.duration_s)
    if observer is not None:
        observer.finished(outcome)
    _emit(progress, outcome)


def _fail(
    report: RunReport,
    index: int,
    exc: BaseException,
    progress: ProgressFn | None,
    observer=None,
) -> None:
    outcome = report.outcomes[index]
    outcome.error = f"{type(exc).__name__}: {exc}"
    if observer is not None:
        observer.finished(outcome)
    _emit(progress, outcome)


def _run_serial(
    report: RunReport,
    pending: Sequence[int],
    store: JsonFileStore | None,
    timeout_s: float | None,
    retries: int,
    progress: ProgressFn | None,
    observer=None,
) -> None:
    collect = observer is not None
    for index in pending:
        outcome = report.outcomes[index]
        last_exc: BaseException | None = None
        for _ in range(retries + 1):
            outcome.attempts += 1
            if observer is not None:
                observer.submitted(outcome)
            try:
                payload = execute_job(outcome.spec.to_dict(), timeout_s, collect)
            except Exception as exc:
                last_exc = exc
            else:
                _finish(report, index, payload, store, progress, observer)
                last_exc = None
                break
        if last_exc is not None:
            _fail(report, index, last_exc, progress, observer)


def _run_parallel(
    report: RunReport,
    pending: Sequence[int],
    jobs: int,
    store: JsonFileStore | None,
    timeout_s: float | None,
    retries: int,
    progress: ProgressFn | None,
    observer=None,
) -> None:
    collect = observer is not None
    with ProcessPoolExecutor(max_workers=jobs) as pool:

        def submit(index: int):
            report.outcomes[index].attempts += 1
            spec_dict = report.outcomes[index].spec.to_dict()
            if observer is not None:
                observer.submitted(report.outcomes[index])
            return pool.submit(execute_job, spec_dict, timeout_s, collect)

        futures = {submit(index): index for index in pending}
        while futures:
            done, _ = wait(set(futures), return_when=FIRST_COMPLETED)
            for future in done:
                index = futures.pop(future)
                try:
                    payload = future.result()
                except Exception as exc:
                    if report.outcomes[index].attempts <= retries:
                        try:
                            futures[submit(index)] = index
                        except Exception as resubmit_exc:
                            _fail(report, index, resubmit_exc, progress, observer)
                    else:
                        _fail(report, index, exc, progress, observer)
                else:
                    _finish(report, index, payload, store, progress, observer)
