"""The service's job registry: dedupe, queueing, and execution.

The registry is where "a million identical submissions cost one solve"
is enforced.  Every spec is identified by its content hash
(:attr:`~repro.runner.spec.JobSpec.spec_hash`), and submission is a
single locked lookup:

* hash already has a live record (queued/running/done) -- the caller
  coalesces onto it, no new work;
* hash's record failed -- a fresh record replaces it (resubmission is
  the retry surface);
* hash unseen -- a new record enters the queue.

Only the in-flight window needs this map: results that already landed
are also in the shared :class:`~repro.runner.stores.JsonFileStore`, so
even a record evicted by a restart re-runs as a store hit.

Execution reuses the scheduler wholesale: batches run through
:func:`repro.api.submit_jobs` on ONE background worker thread, and
parallelism comes from the scheduler's own process pool (``jobs > 1``)
-- not from concurrent in-process cells, which would fight over the
process-global span slot and the SIGALRM timer the workers own.
Per-job wall-clock budgets therefore apply only on the pool path;
profile-level solver budgets hold everywhere.

Observability flows into the service's
:class:`~repro.observability.session.ObsSession`: every batch runs
under a :class:`~repro.observability.session.RunObserver` (so
``repro_jobs_total`` counts exactly the work that actually executed --
the dedupe acceptance check), and the registry adds service-level
series: ``repro_service_jobs_total{disposition=new|deduped|retried}``
and the ``repro_service_queue_depth`` gauge.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import api
from repro.observability import ObsSession, RunObserver
from repro.runner.spec import JobSpec
from repro.runner.stores import JsonFileStore


@dataclass
class JobRecord:
    """One deduplicated unit of work and everything clients may poll."""

    job_id: str
    spec: JobSpec
    status: str = "queued"
    result: dict | None = None
    error: str | None = None
    cached: bool = False
    attempts: int = 0
    #: How many times this spec was submitted (1 = never deduplicated).
    n_submissions: int = 1
    created_unix: float = field(default_factory=time.time)
    started_unix: float | None = None
    finished_unix: float | None = None
    duration_s: float = 0.0

    @property
    def done(self) -> bool:
        """Terminal: the record will never change again."""
        return self.status in ("done", "failed")

    def describe(self) -> dict:
        """The JSON-safe status view (everything except the result)."""
        return {
            "job_id": self.job_id,
            "status": self.status,
            "experiment": self.spec.experiment,
            "label": self.spec.label,
            "spec_hash": self.spec.spec_hash,
            "cached": self.cached,
            "attempts": self.attempts,
            "n_submissions": self.n_submissions,
            "created_unix": round(self.created_unix, 6),
            "started_unix": (
                round(self.started_unix, 6) if self.started_unix else None
            ),
            "finished_unix": (
                round(self.finished_unix, 6) if self.finished_unix else None
            ),
            "duration_s": round(self.duration_s, 6),
            "error": self.error,
        }


class JobRegistry:
    """Content-addressed job table + the single batch-execution worker."""

    def __init__(
        self,
        *,
        store: JsonFileStore | None = None,
        session: ObsSession | None = None,
        jobs: int = 1,
    ) -> None:
        self.store = store
        self.session = session
        self.jobs = max(1, jobs)
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        #: job_id -> record; job ids are spec_hash prefixes, so retries
        #: of a failed spec replace the old record under the same id.
        self._records: dict[str, JobRecord] = {}
        self._by_hash: dict[str, JobRecord] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-service-jobs"
        )
        self._closed = False

    # -- metrics helpers -----------------------------------------------------

    def _count_submission(self, disposition: str) -> None:
        if self.session is not None:
            self.session.metrics.counter(
                "repro_service_jobs_total",
                "Spec submissions by disposition (deduped = coalesced)",
            ).inc(disposition=disposition)

    def _queue_depth(self, delta: float) -> None:
        if self.session is not None:
            self.session.metrics.gauge(
                "repro_service_queue_depth",
                "Jobs currently queued or running",
            ).inc(delta)

    # -- submission ----------------------------------------------------------

    @staticmethod
    def job_id_for(spec: JobSpec) -> str:
        """Content-addressed job id: a spec-hash prefix, stable forever."""
        return spec.spec_hash[:16]

    def submit(self, specs: list[JobSpec]) -> list[tuple[JobRecord, bool]]:
        """Register a batch; returns ``(record, deduped)`` per spec.

        Specs whose hash is already live coalesce onto the existing
        record (``deduped=True``).  The rest become one scheduler batch
        on the worker thread.  Duplicates *within* the batch coalesce
        too -- the wire protocol makes no uniqueness promise.
        """
        views: list[tuple[JobRecord, bool]] = []
        batch: list[JobRecord] = []
        with self._lock:
            if self._closed:
                raise RuntimeError("registry is closed")
            for spec in specs:
                existing = self._by_hash.get(spec.spec_hash)
                if existing is not None and existing.status != "failed":
                    existing.n_submissions += 1
                    self._count_submission("deduped")
                    views.append((existing, True))
                    continue
                record = JobRecord(job_id=self.job_id_for(spec), spec=spec)
                self._records[record.job_id] = record
                self._by_hash[spec.spec_hash] = record
                self._count_submission("retried" if existing else "new")
                self._queue_depth(1)
                batch.append(record)
                views.append((record, False))
            if batch:
                self._executor.submit(self._run_batch, batch)
        return views

    # -- execution -----------------------------------------------------------

    def _run_batch(self, batch: list[JobRecord]) -> None:
        now = time.time()
        with self._lock:
            for record in batch:
                record.status = "running"
                record.started_unix = now
            self._changed.notify_all()
        observer = (
            RunObserver(self.session) if self.session is not None else None
        )
        try:
            report = api.submit_jobs(
                [record.spec for record in batch],
                jobs=self.jobs,
                store=self.store,
                observer=observer,
            )
            outcomes = report.outcomes
        except Exception as exc:
            # Scheduler-level failure (not a cell error): fail the whole
            # batch but keep the worker thread alive for later batches.
            message = f"{type(exc).__name__}: {exc}"
            with self._lock:
                for record in batch:
                    record.status = "failed"
                    record.error = message
                    record.finished_unix = time.time()
                    self._queue_depth(-1)
                self._changed.notify_all()
            return
        finished = time.time()
        with self._lock:
            for record, outcome in zip(batch, outcomes):
                record.finished_unix = finished
                record.duration_s = outcome.duration_s
                record.cached = outcome.cached
                record.attempts = outcome.attempts
                if outcome.ok:
                    record.status = "done"
                    record.result = outcome.result
                else:
                    record.status = "failed"
                    record.error = outcome.error
                self._queue_depth(-1)
            self._changed.notify_all()
        if self.session is not None:
            # Live snapshot so `dynunlock top` sees server-side counters
            # between requests, not only at shutdown.
            self.session.write_metrics()

    # -- queries -------------------------------------------------------------

    def get(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._records.get(job_id)

    def list(self) -> list[JobRecord]:
        """All records, oldest first (stable for pagination-free v1)."""
        with self._lock:
            return sorted(self._records.values(), key=lambda r: r.created_unix)

    def counts(self) -> dict[str, int]:
        """Record count per status (for /healthz)."""
        counts = dict.fromkeys(("queued", "running", "done", "failed"), 0)
        with self._lock:
            for record in self._records.values():
                counts[record.status] += 1
        return counts

    def wait(
        self, job_ids: list[str], timeout_s: float = 60.0
    ) -> dict[str, JobRecord]:
        """Block until every id is terminal (or raise ``TimeoutError``)."""
        deadline = time.monotonic() + timeout_s
        with self._lock:
            while True:
                records = {
                    job_id: self._records[job_id]
                    for job_id in job_ids
                    if job_id in self._records
                }
                missing = [j for j in job_ids if j not in records]
                if not missing and all(r.done for r in records.values()):
                    return records
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    pending = missing + [
                        j for j, r in records.items() if not r.done
                    ]
                    raise TimeoutError(
                        f"jobs not finished after {timeout_s}s: "
                        f"{', '.join(pending[:5])}"
                    )
                self._changed.wait(remaining)

    def close(self) -> None:
        """Drain the worker thread; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=True)
