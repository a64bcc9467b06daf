"""Experiment grids and paper-style table rendering.

:mod:`repro.reports.experiments` enumerates the paper's experiments
(Tables I-III plus the scalability and ablation studies) as job specs
and folds finished cells into rows; :mod:`repro.reports.cells` holds
the single-cell computations the :mod:`repro.runner` scheduler fans out
across cores; :mod:`repro.reports.tables` renders the resulting rows in
the same shape the paper prints.  :func:`repro.api.run_grid` runs a grid
end to end, and the CLI, the pytest benches and the tests all call it,
so `EXPERIMENTS.md` numbers are regenerable either way.
"""

from repro.reports.experiments import (
    GRID,
    GridExperiment,
    Table1Row,
    Table2Row,
    Table3Row,
)
from repro.reports.profiles import PROFILES, ExperimentProfile, active_profile
from repro.reports.tables import render_table

__all__ = [
    "ExperimentProfile",
    "GRID",
    "GridExperiment",
    "PROFILES",
    "active_profile",
    "Table1Row",
    "Table2Row",
    "Table3Row",
    "render_table",
]
