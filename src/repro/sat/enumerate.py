"""Projected model enumeration.

After DynUnlock's DIP loop converges, the accumulated constraint formula
may still admit several seed assignments; the paper reports these as "seed
candidates" (Tables II and III).  Enumeration projects models onto the
seed variables and blocks each found projection with one clause.
"""

from __future__ import annotations

import time
from typing import Iterator, Sequence

from repro.sat.solver import CdclSolver


def enumerate_models(
    solver: CdclSolver,
    project_vars: Sequence[int],
    limit: int = 1024,
    assumptions: Sequence[int] = (),
    max_conflicts_per_model: int | None = None,
    group: int | None = None,
    timeout_s: float | None = None,
) -> Iterator[list[int]]:
    """Yield distinct assignments to ``project_vars`` (bit lists).

    By default this mutates the solver permanently: after enumeration the
    solver excludes every yielded projection.  Callers holding a live
    :class:`repro.sat.incremental.IncrementalSolver` session can instead
    pass an activation ``group`` (which must also appear positively in
    ``assumptions``); the blocking clauses are then tagged with it, and
    releasing the group afterwards restores the session.  ``limit``
    bounds the number of models; enumeration also stops on UNSAT (space
    exhausted) or an indeterminate result (conflict budget or the
    wall-clock ``timeout_s`` of the whole enumeration exceeded).  A
    caller that must tell exhaustion from a budget stop reads the last
    answer (:attr:`repro.sat.incremental.IncrementalSolver.last_result`).
    """
    deadline = None if timeout_s is None else time.perf_counter() + timeout_s
    produced = 0
    while produced < limit:
        result = solver.solve(
            assumptions=assumptions,
            max_conflicts=max_conflicts_per_model,
            timeout_s=(
                None if deadline is None else max(0.0, deadline - time.perf_counter())
            ),
        )
        if result.satisfiable is not True:
            return
        assert result.model is not None
        projection = [result.model[v] for v in project_vars]
        yield projection
        produced += 1
        blocking = [
            (-v if bit else v) for v, bit in zip(project_vars, projection)
        ]
        if group is not None:
            added = solver.add_clause(blocking, group=group)  # type: ignore[call-arg]
        else:
            added = solver.add_clause(blocking)
        if not added:
            return


def count_models(
    solver: CdclSolver, project_vars: Sequence[int], limit: int = 1024
) -> int:
    """Count projected models up to ``limit`` (destructive, see above)."""
    return sum(1 for _ in enumerate_models(solver, project_vars, limit=limit))
