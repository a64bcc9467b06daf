"""Parallel experiment orchestration with a cached artifact store.

The paper's evaluation is a grid of independent cells (benchmark x lock
scheme x attack x profile x LFSR seed).  This package turns each cell
into a declarative :class:`~repro.runner.spec.JobSpec` with a stable
content hash, fans the grid out across cores with
:func:`~repro.runner.scheduler.run_jobs`, and memoises finished cells in
an on-disk result store (:mod:`repro.runner.stores`, one JSON file per
cell) keyed by spec hash plus a fingerprint of the source tree -- so
re-runs are resumable and table regeneration only recomputes stale
cells.  Finished grids are
written out as JSON + CSV artifacts (:mod:`repro.runner.artifacts`) that
:mod:`repro.reports.tables` can render and that CI diffs against a
checked-in timing baseline.

Layering: :mod:`repro.runner` knows nothing about specific experiments;
the cell implementations live in :mod:`repro.reports.cells` and are
looked up by name inside the worker process.
"""

from repro.runner.artifacts import load_artifact, normalize_artifact, write_artifact
from repro.runner.scheduler import JobOutcome, RunReport, run_jobs
from repro.runner.spec import JobSpec, code_version

__all__ = [
    "JobOutcome",
    "JobSpec",
    "RunReport",
    "code_version",
    "load_artifact",
    "normalize_artifact",
    "run_jobs",
    "write_artifact",
]
