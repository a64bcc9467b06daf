"""ABC-style netlist optimization: the shared front end of every hot path.

Every attack model, replay oracle and fuzz trial in this repo
re-encodes and re-simulates a netlist; :func:`repro.opt.optimize`
shrinks that netlist first while provably preserving its interface
semantics.  Two passes, iterated to a fixpoint, make up the pipeline:

* :mod:`repro.opt.structhash` -- structural hashing into a canonical
  DAG: constant folding, commutative-input sorting, double-negation and
  XOR-involution rewrites, and common-subexpression merging;
* :mod:`repro.opt.sweep` -- cone-of-influence dead-logic elimination
  (plus unused-input reporting, the "unused key gate" detector).

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
