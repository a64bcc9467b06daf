"""Per-iteration CNF snapshots and early seed-bit extraction.

The paper: "We modify the code-base to dump a conjunctive normal form
(CNF) after each iteration, which may reveal some of the seed bits."

This module reproduces that workflow.  :class:`CnfDumper` is an
iteration hook for :class:`repro.attack.satattack.SatAttack` that writes
a DIMACS snapshot per DIP, and :func:`probe_fixed_key_bits` performs the
"reveal" step: a failed-literal probe per seed variable (is ``k_i = v``
refutable under the constraints accumulated so far?) that reports every
seed bit the current CNF already pins down -- before the attack has even
converged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.attack.satattack import IterationRecord
from repro.sat.solver import CdclSolver


def probe_fixed_key_bits(
    solver: CdclSolver,
    key_vars: list[int],
    assumptions: list[int] | None = None,
    max_conflicts: int = 2000,
) -> dict[int, int]:
    """Seed bits already forced by the solver's current clause set.

    For each key variable, assume each polarity in turn; if one polarity
    is refuted (UNSAT within the conflict budget) the opposite value is
    forced.  Indeterminate probes (budget exhausted) are reported as
    unknown, so the result is sound but possibly incomplete -- matching
    the paper's "may reveal some of the seed bits".
    """
    base = list(assumptions or [])
    fixed: dict[int, int] = {}
    for index, var in enumerate(key_vars):
        positive = solver.solve(
            assumptions=base + [var], max_conflicts=max_conflicts
        )
        if positive.satisfiable is False:
            fixed[index] = 0
            continue
        negative = solver.solve(
            assumptions=base + [-var], max_conflicts=max_conflicts
        )
        if negative.satisfiable is False:
            fixed[index] = 1
    return fixed


@dataclass
class CnfSnapshot:
    """One per-iteration record: CNF size, optional DIMACS path, revealed bits."""
    iteration: int
    n_vars: int
    n_clauses: int
    path: Path | None
    revealed_bits: dict[int, int] = field(default_factory=dict)


class CnfDumper:
    """Iteration hook: DIMACS snapshot (+ optional seed probe) per DIP.

    Wire into the attack with::

        dumper = CnfDumper(attack, directory="dumps", probe=True)
        attack.config.iteration_hook = dumper

    ``directory=None`` keeps snapshots in memory only (sizes are still
    recorded).  ``probe=True`` runs :func:`probe_fixed_key_bits` against
    the attack's live solver after each iteration.
    """

    def __init__(
        self,
        attack,
        directory: str | Path | None = None,
        probe: bool = False,
        probe_conflicts: int = 2000,
    ):
        self._attack = attack
        self._dir = Path(directory) if directory is not None else None
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
        self._probe = probe
        self._probe_conflicts = probe_conflicts
        self.snapshots: list[CnfSnapshot] = []

    def __call__(self, record: IterationRecord) -> None:
        path: Path | None = None
        if self._dir is not None:
            path = self._dir / f"iteration_{record.iteration:04d}.cnf"
            self._attack.encoder.cnf.save(path)
        revealed: dict[int, int] = {}
        if self._probe:
            revealed = probe_fixed_key_bits(
                self._attack.solver,
                self._attack.key_vars_a,
                assumptions=[-self._attack.act_var],
                max_conflicts=self._probe_conflicts,
            )
        self.snapshots.append(
            CnfSnapshot(
                iteration=record.iteration,
                n_vars=record.n_vars,
                n_clauses=record.n_clauses,
                path=path,
                revealed_bits=revealed,
            )
        )
