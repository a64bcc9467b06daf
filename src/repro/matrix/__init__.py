"""The attack x defense scenario matrix.

* :mod:`repro.matrix.registry` -- the plugin registry: defenses
  (``register_defense``) and attacks (``register_attack``) self-describe,
  including which oracle models each attack targets.
* :mod:`repro.matrix.plugins` -- the built-in schemes: the paper's four
  defenses and their published attacks, the SAT-attack/RLL baseline, and
  two defenses beyond the paper (SARLock-style point function, keyed
  scan-chain scrambling).
* :mod:`repro.matrix.grid` -- the grid driver: enumerates the applicable
  cross-product as runner ``JobSpec`` cells, aggregates verdicts
  (``broken``/``resilient``/``partial``/``n/a``), and diffs them against
  the paper's Table I expectations.

Entry points: ``dynunlock matrix`` on the command line, or
:func:`repro.api.run_matrix` from code.  ``docs/matrix.md``
documents the ~30-line recipe for adding a scheme.
"""

from repro.matrix.grid import (
    MATRIX_HEADERS,
    MatrixRow,
    PAPER_EXPECTATIONS,
    check_against_paper,
    default_matrix_benchmarks,
    matrix_cell,
    matrix_rows,
    matrix_specs,
)
from repro.matrix.registry import (
    AttackOutcome,
    AttackSpec,
    DefenseSpec,
    RegistryError,
    applicable_pairs,
    attack_names,
    defense_names,
    ensure_builtins,
    get_attack,
    get_defense,
    is_applicable,
    register_attack,
    register_defense,
)

__all__ = [
    "MATRIX_HEADERS",
    "MatrixRow",
    "PAPER_EXPECTATIONS",
    "check_against_paper",
    "default_matrix_benchmarks",
    "matrix_cell",
    "matrix_rows",
    "matrix_specs",
    "AttackOutcome",
    "AttackSpec",
    "DefenseSpec",
    "RegistryError",
    "applicable_pairs",
    "attack_names",
    "defense_names",
    "ensure_builtins",
    "get_attack",
    "get_defense",
    "is_applicable",
    "register_attack",
    "register_defense",
]
