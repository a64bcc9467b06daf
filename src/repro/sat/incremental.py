"""Persistent, assumption-based incremental solving sessions.

:class:`IncrementalSolver` is the session-level API on top of the raw
CDCL engine (:class:`repro.sat.solver.CdclSolver`): one long-lived solver
instance accumulates the problem (miter plus per-DIP constraints), every
``solve`` call reuses the learned-clause database and variable
activities, and *clause groups* — the standard activation-literal idiom —
let callers switch whole constraint blocks on and off per call or retire
them permanently.

This is what lets the SAT attack build the miter CNF once and extend it
with two constraint copies per DIP instead of re-encoding the whole
formula every iteration.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.sat.cnf import Cnf
from repro.sat.solver import CdclSolver, SolveResult


class IncrementalSolver(CdclSolver):
    """An incremental solving session.

    Adds to the engine:

    * ``solve`` result caching — :meth:`value` and :meth:`values` read
      the most recent model without threading the result object around;
    * clause groups backed by activation literals: a fresh variable
      ``g`` names a group, clauses added with ``add_clause(..., group=g)``
      bind only while ``g`` is among :meth:`solve`'s assumptions, and
      :meth:`release_group` retires them for good;
    * :meth:`absorb` for streaming a growing :class:`Cnf` into the
      session without re-adding already-synced clauses.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._last_result: SolveResult | None = None
        self._released: set[int] = set()

    # ------------------------------------------------------------------
    # clause groups
    # ------------------------------------------------------------------
    def add_clause(self, lits: Sequence[int], group: int | None = None) -> bool:
        """Add a clause, optionally tagged with an activation group.

        Grouped clauses are stored as ``(-group OR lits...)`` so they are
        vacuously satisfied unless the group is assumed active.  Returns
        False when the formula became trivially UNSAT.
        """
        if group is not None:
            if group in self._released:
                return True  # retired group; the clause can never bind
            lits = [-group] + list(lits)
        return super().add_clause(lits)

    def release_group(self, group: int) -> None:
        """Permanently retire a group: its clauses become satisfied units.

        After release the activation variable is pinned false, so every
        clause tagged with the group is satisfied forever and the learned
        clauses derived from it remain sound.
        """
        if group in self._released:
            return
        self._released.add(group)
        super().add_clause([-group])

    # ------------------------------------------------------------------
    # solving and model access
    # ------------------------------------------------------------------
    def solve(self, assumptions: Iterable[int] = (), **kwargs) -> SolveResult:
        """Solve under per-call assumptions; a group is active when assumed."""
        result = super().solve(assumptions=list(assumptions), **kwargs)
        self._last_result = result
        return result

    @property
    def last_result(self) -> SolveResult | None:
        """The result of the most recent :meth:`solve` call, if any."""
        return self._last_result

    def value(self, var: int) -> int:
        """Value of ``var`` in the last model (requires a SAT answer)."""
        result = self._last_result
        if result is None or result.model is None:
            raise RuntimeError("no model: last solve was not satisfiable")
        return result.model[var]

    def values(self, variables: Sequence[int]) -> list[int]:
        """Vector of :meth:`value` over ``variables``."""
        result = self._last_result
        if result is None or result.model is None:
            raise RuntimeError("no model: last solve was not satisfiable")
        model = result.model
        return [model[v] for v in variables]

    # ------------------------------------------------------------------
    # bulk intake
    # ------------------------------------------------------------------
    def absorb(self, cnf: Cnf, already_synced: int = 0) -> int:
        """Stream the clauses of ``cnf`` from index ``already_synced`` on.

        Callers that keep growing one :class:`Cnf` (the Tseitin encoder's
        output) pass the previous return value back in, so each call
        transfers only the new suffix of its flat buffers, in one call
        into the core.  Returns the new synced count.
        """
        with cnf.suffix(already_synced) as (lits, lengths):
            self._core.add_clauses(lits, lengths, cnf.n_vars)
        return cnf.n_clauses
