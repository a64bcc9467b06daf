"""The per-invocation observability session and the runner observer.

One :class:`ObsSession` exists per instrumented CLI invocation (started
by ``--metrics-dir``, or programmatically via :func:`start_session`).
It owns the run id and -- when a metrics directory is given -- the
only files a run keeps:

* ``run.json`` -- run identity (id, command, the command's argument
  list, start time);
* ``spans.jsonl`` -- streamed per-job records (``kind: submitted`` when
  a worker takes a job, ``kind: span`` when it finishes), appended as
  they happen so ``dynunlock top`` can watch a live run;
* ``BENCH_obs.json``/``.csv`` -- the per-experiment phase-time summary
  as a standard artifact, written at :meth:`ObsSession.finalize`.

:class:`RunObserver` is the bridge the scheduler calls: it stamps
submit times (queue latency) and streams one span record per finished
:class:`~repro.runner.scheduler.JobOutcome`.  The session is held in a
module global so that an artifact written during the run stamps the
session's run id (:func:`repro.runner.artifacts.run_metadata`) without
any plumbing.  The global is parent-process state: pool workers
inherit it across ``fork`` but never touch it -- worker-side
instrumentation goes through :mod:`repro.observability.spans` only.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from pathlib import Path
from typing import IO, Sequence

#: Schema of the ``run.json`` / ``spans.jsonl`` record layout.
OBS_SCHEMA_VERSION = 1

#: Phase columns of the ``BENCH_obs`` summary, in reporting order;
#: phases outside this list (e.g. ``opt``, ``enumerate``) fold into
#: the ``Other`` column.  Catalogue: ``docs/observability.md``.
SUMMARY_PHASES = ("queue", "model", "encode", "solve", "oracle", "replay")

_SESSION: ObsSession | None = None


def current_session() -> ObsSession | None:
    """The active session, if any."""
    return _SESSION


class ObsSession:
    """Run-scoped observability state; see the module docstring."""

    def __init__(
        self,
        *,
        metrics_dir: str | Path | None = None,
        command: str = "",
        argv: Sequence[str] = (),
    ) -> None:
        self.run_id = uuid.uuid4().hex[:12]
        self.command = command
        self.started_unix = time.time()
        self._t0 = time.perf_counter()
        self._finalized = False
        # Guards the span sink and the finalize flag, so records from
        # more than one thread never tear a ``spans.jsonl`` line and
        # teardown runs once.
        self._lock = threading.Lock()
        self.spans: list[dict] = []
        self.metrics_dir = Path(metrics_dir) if metrics_dir else None
        self._spans_fh: IO[str] | None = None
        if self.metrics_dir is not None:
            self.metrics_dir.mkdir(parents=True, exist_ok=True)
            (self.metrics_dir / "run.json").write_text(
                json.dumps(
                    {
                        "schema_version": OBS_SCHEMA_VERSION,
                        "run_id": self.run_id,
                        "command": command,
                        "argv": list(argv),
                        "started_unix": round(self.started_unix, 3),
                    },
                    indent=1,
                    sort_keys=True,
                )
                + "\n"
            )
            self._spans_fh = (self.metrics_dir / "spans.jsonl").open("a")

    def emit(self, record: dict) -> None:
        """Stream one span-file record (and retain ``kind: span`` ones).

        Thread-safe: interleaved writers must not tear ``spans.jsonl``
        lines.
        """
        record = {"run_id": self.run_id, **record}
        with self._lock:
            if record.get("kind") == "span":
                self.spans.append(record)
            if self._spans_fh is not None:
                self._spans_fh.write(json.dumps(record, sort_keys=True) + "\n")
                self._spans_fh.flush()

    def summary(self) -> tuple[list[str], list[list[object]]]:
        """Aggregate retained spans into the ``BENCH_obs`` table."""
        return aggregate_spans(self.spans)

    def finalize(self) -> None:
        """Write ``BENCH_obs`` and close the span sink.

        Idempotent: teardown code may call it any number of times; only
        the first call writes and closes anything.
        """
        with self._lock:
            if self._finalized:
                return
            self._finalized = True
        wall_s = time.perf_counter() - self._t0
        if self.metrics_dir is not None:
            from repro.runner.artifacts import write_artifact

            headers, rows = self.summary()
            write_artifact(
                self.metrics_dir,
                "obs",
                headers,
                rows,
                title=f"Observability summary — run {self.run_id}",
                meta={
                    "run_id": self.run_id,
                    "command": self.command,
                    "wall_s": round(wall_s, 3),
                    "n_spans": len(self.spans),
                },
            )
        with self._lock:
            if self._spans_fh is not None:
                self._spans_fh.close()
                self._spans_fh = None


def start_session(**kwargs) -> ObsSession:
    """Open the process-wide session; at most one may be active."""
    global _SESSION
    if _SESSION is not None:
        raise RuntimeError("an observability session is already active")
    _SESSION = ObsSession(**kwargs)
    return _SESSION


def end_session() -> None:
    """Finalize the current session and clear the slot.

    Idempotent: calling it twice, or with no session active, is a safe
    no-op.  Finalize runs while the session is still current so the
    ``BENCH_obs`` artifact it writes stamps the session's own run id
    (``run_metadata`` resolves it via :func:`current_session`).
    """
    global _SESSION
    target = _SESSION
    if target is None:
        return
    try:
        target.finalize()
    finally:
        _SESSION = None


def aggregate_spans(spans: list[dict]) -> tuple[list[str], list[list[object]]]:
    """Fold span records into one row per experiment (phase-time columns)."""
    headers = ["Experiment", "Jobs", "Computed", "Cached", "Failed"]
    headers += [f"{p.capitalize()} (s)" for p in SUMMARY_PHASES]
    headers += ["Other (s)", "Total (s)"]
    by_exp: dict[str, dict] = {}
    for span in spans:
        agg = by_exp.setdefault(
            span.get("experiment", "?"),
            {"jobs": 0, "computed": 0, "cached": 0, "failed": 0, "phases": {}, "total": 0.0},
        )
        agg["jobs"] += 1
        status = span.get("status", "computed")
        agg[status if status in ("computed", "cached", "failed") else "computed"] += 1
        agg["total"] += float(span.get("duration_s", 0.0))
        phases = dict(span.get("phases") or {})
        phases["queue"] = phases.get("queue", 0.0) + float(span.get("queue_s", 0.0))
        for name, seconds in phases.items():
            agg["phases"][name] = agg["phases"].get(name, 0.0) + float(seconds)
    rows: list[list[object]] = []
    for exp in sorted(by_exp):
        agg = by_exp[exp]
        # "Other" = explicitly timed non-summary phases plus whatever part
        # of the job durations no phase accounted for.  Queue time is not
        # part of ``duration_s`` (it elapses before the worker starts), so
        # it is excluded from the unaccounted computation.
        known = sum(agg["phases"].get(p, 0.0) for p in SUMMARY_PHASES if p != "queue")
        other = sum(v for k, v in agg["phases"].items() if k not in SUMMARY_PHASES)
        other += max(0.0, agg["total"] - known - other)
        row: list[object] = [exp, agg["jobs"], agg["computed"], agg["cached"], agg["failed"]]
        row += [round(agg["phases"].get(p, 0.0), 3) for p in SUMMARY_PHASES]
        row += [round(other, 3), round(agg["total"], 3)]
        rows.append(row)
    return headers, rows


class RunObserver:
    """Scheduler-facing hooks: submit stamps and span streaming."""

    def __init__(self, session: ObsSession) -> None:
        self.session = session
        self._submitted: dict[int, float] = {}

    def submitted(self, outcome) -> None:
        """A job left the scheduler for a worker (or the serial path)."""
        now = time.time()
        self._submitted[outcome.index] = now
        self.session.emit(
            {
                "kind": "submitted",
                "job_id": outcome.index,
                "experiment": outcome.spec.experiment,
                "label": outcome.spec.label,
                "t": round(now, 6),
            }
        )

    def finished(self, outcome) -> None:
        """A job landed: cached, computed, or failed."""
        span = outcome.span or {}
        status = (
            "failed" if not outcome.ok else ("cached" if outcome.cached else "computed")
        )
        submit_t = self._submitted.get(outcome.index)
        queue_s = (
            max(0.0, span["started_unix"] - submit_t)
            if (submit_t is not None and span)
            else 0.0
        )
        spec = outcome.spec
        identity = {
            "experiment": spec.experiment,
            "label": spec.label,
            "spec_hash": spec.spec_hash[:12],
        }
        self._emit_span(
            {**identity, **span},
            job_id=outcome.index,
            status=status,
            cached=outcome.cached,
            queue_s=queue_s,
            duration_s=outcome.duration_s,
            error=outcome.error,
        )

    def inline_span(self, span: dict) -> None:
        """Record a span measured in-process (no scheduler involved)."""
        self._emit_span(span, duration_s=span["duration_s"])

    def _emit_span(
        self,
        span: dict,
        *,
        duration_s: float,
        job_id: int = 0,
        status: str = "computed",
        cached: bool = False,
        queue_s: float = 0.0,
        error: str | None = None,
    ) -> None:
        """Stream one ``kind: span`` record, the layout ``top`` reads.

        ``span`` is an :func:`~repro.observability.spans.end_job_span`
        record, or just the job's identity when no span was collected
        (a cache hit or a failure): its times then default to now.
        """
        now = time.time()
        self.session.emit(
            {
                "kind": "span",
                "job_id": job_id,
                "experiment": span["experiment"],
                "label": span["label"],
                "spec_hash": span["spec_hash"],
                "status": status,
                "cached": cached,
                "queue_s": round(queue_s, 6),
                "duration_s": duration_s,
                "started_unix": round(float(span.get("started_unix", now)), 6),
                "ended_unix": round(float(span.get("ended_unix", now)), 6),
                "phases": span.get("phases", {}),
                "counts": span.get("counts", {}),
                "error": error,
            }
        )
