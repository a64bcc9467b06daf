"""Per-job span accumulation, zero-cost when nobody is listening.

A *span* is the instrumented life of one cell execution: wall-clock
endpoints, named phase timings (``model``/``opt``/``encode``/``solve``/
``oracle``/``enumerate``/``replay``) and event counts (DIPs, oracle
queries, rounds).  The scheduler's worker
opens one span around :func:`repro.reports.cells.run_cell`
(:func:`begin_job_span` / :func:`end_job_span`), and the instrumented
hot paths -- :class:`~repro.attack.satattack.SatAttack`,
:class:`~repro.core.dynunlock.DynUnlock`, the opt pipeline -- report
into whichever span is active via module functions.

The design constraint is the tentpole's zero-cost-by-default rule:
when no span is open (the normal case -- metrics off), every hook here
is a single global-``None`` check and the :func:`phase` context manager
is a shared no-op instance, so instrumented code paths cost nothing
measurable and results stay byte-identical.  The current span is a
module global rather than a thread-local because cells run one-per-
process (the scheduler's pool workers and the serial path are both
single-threaded); the global also survives ``fork`` harmlessly -- a
forked worker starts with no span until told otherwise.

Span dicts are JSON-safe and travel from pool workers back to the
scheduler inside the ``execute_job`` payload, *never* inside the cell
result itself -- cache entries and table rows are identical with
instrumentation on or off.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

_CURRENT: JobSpan | None = None


@dataclass
class JobSpan:
    """One cell's in-flight instrumentation record."""

    experiment: str
    label: str
    spec_hash: str = ""
    started_unix: float = field(default_factory=time.time)
    phases: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    _t0: float = field(default_factory=time.perf_counter)


def active() -> bool:
    """Whether a span is currently collecting (the hot-path guard)."""
    return _CURRENT is not None


def current() -> JobSpan | None:
    """The open span, if any."""
    return _CURRENT


def begin_job_span(experiment: str, label: str, spec_hash: str = "") -> JobSpan:
    """Open a span and make it the collection target for this process."""
    global _CURRENT
    span = JobSpan(experiment=experiment, label=label, spec_hash=spec_hash)
    _CURRENT = span
    return span


def end_job_span(span: JobSpan) -> dict:
    """Close ``span`` and return its JSON-safe record."""
    global _CURRENT
    if _CURRENT is span:
        _CURRENT = None
    ended_unix = time.time()
    return {
        "experiment": span.experiment,
        "label": span.label,
        "spec_hash": span.spec_hash,
        "started_unix": round(span.started_unix, 6),
        "ended_unix": round(ended_unix, 6),
        "duration_s": time.perf_counter() - span._t0,
        "phases": {k: span.phases[k] for k in sorted(span.phases)},
        "counts": {k: span.counts[k] for k in sorted(span.counts)},
    }


def add_phase(name: str, seconds: float) -> None:
    """Accumulate ``seconds`` into the active span's phase ``name``."""
    span = _CURRENT
    if span is not None:
        span.phases[name] = span.phases.get(name, 0.0) + seconds


def incr(name: str, n: int = 1) -> None:
    """Add ``n`` to the active span's count ``name``."""
    span = _CURRENT
    if span is not None:
        span.counts[name] = span.counts.get(name, 0) + n


class _NullPhase:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _Phase:
    __slots__ = ("name", "_t0")

    def __init__(self, name: str) -> None:
        self.name = name
        self._t0 = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        add_phase(self.name, time.perf_counter() - self._t0)
        return False


_NULL_PHASE = _NullPhase()


def phase(name: str):
    """Context manager timing a phase; a shared no-op when no span is open."""
    if _CURRENT is None:
        return _NULL_PHASE
    return _Phase(name)
