"""Fan an experiment grid out across cores, memoising finished cells.

:func:`run_jobs` is the one entry point: give it a list of
:class:`~repro.runner.spec.JobSpec` and it returns one
:class:`JobOutcome` per spec *in input order*, regardless of completion
order -- so aggregation code downstream never sees scheduling
nondeterminism.  Features:

* ``jobs=1`` runs serially in-process (no pickling, easy debugging);
  ``jobs>1`` uses a :class:`~concurrent.futures.ProcessPoolExecutor`
  holding at most ``jobs`` cells, so a submitted cell has a worker and
  the next one goes in as one lands.
* A result store (:class:`~repro.runner.stores.JsonFileStore`)
  short-circuits cells whose (spec hash, code version) pair is
  already on disk, and absorbs every
  freshly computed cell -- an interrupted grid resumes where it stopped.
  A result with a true ``timed_out`` (an attack that ran out of its
  wall-clock budget) is reported but not stored.
* No per-job timeout or retry: a cell's time budget is its attack's
  own ``timeout_s``, and cells are deterministic, so with a store
  re-running the grid is the retry.
* ``progress`` receives every :class:`JobOutcome` as it lands, cached or
  computed, for streaming CLI/bench output.
* ``observer`` (a :class:`~repro.observability.session.RunObserver`,
  or any object with ``submitted``/``finished`` hooks) turns on per-job
  instrumentation: workers collect phase spans, and every
  submission/landing is reported for queue-latency accounting.  ``None``
  (the default) is strictly zero-cost -- no span collection,
  byte-identical results.

Failures never raise mid-grid: they land in ``JobOutcome.error`` so one
bad cell cannot waste the rest of a long run.  Call
:meth:`RunReport.raise_on_error` (or use ``RunReport.results``) when
partial grids are unacceptable.  An interrupt is not a failure: a
``KeyboardInterrupt`` (C-c, or SIGTERM through the CLI) stops the
pool's workers, submits no further cell and propagates.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
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
        """Cells that errored out."""
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
            _run_serial(report, pending, store, progress, observer)
        else:
            _run_parallel(report, pending, jobs, store, progress, observer)

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
    progress: ProgressFn | None,
    observer=None,
) -> None:
    collect = observer is not None
    for index in pending:
        outcome = report.outcomes[index]
        if observer is not None:
            observer.submitted(outcome)
        try:
            payload = execute_job(outcome.spec.to_dict(), collect)
        except Exception as exc:
            _fail(report, index, exc, progress, observer)
        else:
            _finish(report, index, payload, store, progress, observer)


def _default_signals() -> None:
    """Let C-c and SIGTERM kill a pool worker outright.

    A worker holds nothing worth unwinding (the parent stores every
    result), and a handler inherited across fork would raise
    ``KeyboardInterrupt`` in it, which between jobs is a traceback.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _run_parallel(
    report: RunReport,
    pending: Sequence[int],
    jobs: int,
    store: JsonFileStore | None,
    progress: ProgressFn | None,
    observer=None,
) -> None:
    collect = observer is not None
    others = set(multiprocessing.active_children())
    queue = iter(pending)
    futures: dict[Future, int] = {}
    with ProcessPoolExecutor(max_workers=jobs, initializer=_default_signals) as pool:

        def top_up() -> None:
            # At most ``jobs`` cells are in the pool, so a submitted cell
            # has a worker: ``top`` shows only those as running, and a
            # span's ``queue_s`` is the hand-off, not the wait in line.
            while len(futures) < jobs:
                index = next(queue, None)
                if index is None:
                    return
                outcome = report.outcomes[index]
                if observer is not None:
                    observer.submitted(outcome)
                try:
                    future = pool.submit(execute_job, outcome.spec.to_dict(), collect)
                except Exception as exc:  # a broken pool takes no more cells
                    _fail(report, index, exc, progress, observer)
                else:
                    futures[future] = index

        try:
            top_up()
            while futures:
                done, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures.pop(future)
                    try:
                        payload = future.result()
                    except Exception as exc:
                        _fail(report, index, exc, progress, observer)
                    else:
                        _finish(report, index, payload, store, progress, observer)
                top_up()
        except BaseException:
            # Leaving the pool would otherwise wait for the cells the
            # workers are running.
            for worker in set(multiprocessing.active_children()) - others:
                worker.terminate()
            pool.shutdown(cancel_futures=True)
            raise
