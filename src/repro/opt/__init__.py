"""ABC-style netlist optimization: the shared front end of every hot path.

Every attack model, replay oracle and fuzz trial in this repo
re-encodes and re-simulates a netlist; :func:`repro.opt.optimize`
shrinks that netlist first while provably preserving its interface
semantics.  The pipeline runs rounds of
:func:`repro.opt.structhash.optimize_round`, and each round has two
passes:

* ``structhash`` -- structural hashing into a canonical DAG: constant
  folding, commutative-input sorting, double-negation and
  XOR-involution rewrites, and common-subexpression merging;
* ``sweep`` -- cone-of-influence dead-logic elimination over the gates
  the rewrite emitted, plus unused-input reporting (the "unused key
  gate" detector), after which the round builds its one output netlist.

The pipeline stops as soon as a read-count check on a round's output
shows another round could change nothing (:mod:`repro.opt.structhash`
gives the argument), which for almost every netlist is after the first.

The contract optimization never breaks: primary inputs, primary
outputs, and flip-flop Q/D nets keep their names, order and semantics,
so key inputs and oracle-interface nets of an attack model map back to
the original netlist unchanged -- a key recovered on the optimized
circuit *is* the key of the original.
"""

from repro.opt.pipeline import (
    DEFAULT_LEVEL,
    MAX_LEVEL,
    OptResult,
    OptStats,
    PassStats,
    optimize,
    resolve_level,
)

__all__ = [
    "DEFAULT_LEVEL",
    "MAX_LEVEL",
    "OptResult",
    "OptStats",
    "PassStats",
    "optimize",
    "resolve_level",
]
