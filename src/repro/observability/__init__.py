"""Run observability for the runner: spans, their session, and top.

Three dependency-free pieces explain where a run's time went:

* :mod:`repro.observability.spans` -- per-job spans collected inside
  workers (queue→encode→solve→replay timings, DIP counts, solver
  counters, opt stats), zero-cost when off;
* :mod:`repro.observability.session` -- the per-invocation session
  that streams span records to ``spans.jsonl`` and folds them into a
  ``BENCH_obs.json`` artifact;
* :mod:`repro.observability.top` -- the ``dynunlock top`` live view
  over a run's streamed span file.

See ``docs/observability.md`` for the span catalogue and the file
layout of a metrics directory.
"""

from repro.observability.session import (
    OBS_SCHEMA_VERSION,
    SUMMARY_PHASES,
    ObsSession,
    RunObserver,
    aggregate_spans,
    current_session,
    end_session,
    start_session,
)
from repro.observability.spans import (
    JobSpan,
    active,
    add_phase,
    annotate,
    begin_job_span,
    end_job_span,
    incr,
    phase,
)

__all__ = [
    "OBS_SCHEMA_VERSION",
    "SUMMARY_PHASES",
    "ObsSession",
    "RunObserver",
    "aggregate_spans",
    "current_session",
    "end_session",
    "start_session",
    "JobSpan",
    "active",
    "add_phase",
    "annotate",
    "begin_job_span",
    "end_job_span",
    "incr",
    "phase",
]
