"""Production observability for the runner: logs, spans, metrics, top.

The ROADMAP item this package implements: at fuzz-farm scale you
cannot find hot paths or stuck jobs from stdout.  Four pieces,
composable and dependency-free:

* :mod:`repro.observability.logs` -- structured JSON logging with a
  shared run-id context (``--log-json``);
* :mod:`repro.observability.spans` -- per-job spans collected inside
  workers (queue→encode→solve→replay timings, DIP counts, opt stats),
  zero-cost when off;
* :mod:`repro.observability.metrics` -- a Prometheus-style
  counter/histogram registry exported as ``metrics.prom`` and a
  ``BENCH_obs.json`` artifact;
* :mod:`repro.observability.top` -- the ``dynunlock top`` live view
  over a run's streamed span file.

:mod:`repro.observability.session` ties them together per CLI
invocation.  See ``docs/observability.md`` for the span/metric
catalogue and the log schema.
"""

from repro.observability.logs import JsonLogger
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.session import (
    OBS_SCHEMA_VERSION,
    SUMMARY_PHASES,
    ObsSession,
    RunObserver,
    aggregate_spans,
    current_session,
    end_session,
    start_session,
    store_event,
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
    "JsonLogger",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS_SCHEMA_VERSION",
    "SUMMARY_PHASES",
    "ObsSession",
    "RunObserver",
    "aggregate_spans",
    "current_session",
    "end_session",
    "start_session",
    "store_event",
    "JobSpan",
    "active",
    "add_phase",
    "annotate",
    "begin_job_span",
    "end_job_span",
    "incr",
    "phase",
]
