"""The function that runs inside scheduler worker processes.

:func:`execute_job` is the single entry point a
:class:`~concurrent.futures.ProcessPoolExecutor` invokes: it takes a
pickled spec dict (not a :class:`JobSpec` -- plain dicts survive every
start method), resolves the cell function by experiment name, and
returns the cell's JSON-safe result plus the measured duration.  A
cell's only time budget is its attack's own ``timeout_s``.

The cell registry import happens lazily inside the function so that
``repro.runner`` never imports ``repro.reports`` at module load time
(the reports layer imports the runner, not vice versa).
"""

from __future__ import annotations

import time
from typing import Any


def execute_job(spec_dict: dict[str, Any], collect_span: bool = False) -> dict:
    """Run one cell; returns ``{"result": ..., "duration_s": ...}``.

    ``collect_span`` opens a :mod:`repro.observability.spans` span
    around the cell so instrumented hot paths (SatAttack, DynUnlock,
    the opt pipeline) record phase timings and counts; the finished
    span travels back under a ``"span"`` payload key -- never inside
    the result dict, so cache entries and rows are byte-identical with
    instrumentation on or off.
    """
    from repro.reports.cells import run_cell
    from repro.runner.spec import JobSpec

    spec = JobSpec.from_dict(spec_dict)
    span = None
    if collect_span:
        from repro.observability.spans import begin_job_span

        span = begin_job_span(spec.experiment, spec.label, spec.spec_hash[:12])
    span_record = None
    start = time.perf_counter()
    try:
        result = run_cell(spec)
    finally:
        if span is not None:
            from repro.observability.spans import end_job_span

            # Always close the span (clears the process-global slot);
            # the record is discarded if the cell raised.
            span_record = end_job_span(span)
    payload = {"result": result, "duration_s": time.perf_counter() - start}
    if span_record is not None:
        payload["span"] = span_record
    return payload
