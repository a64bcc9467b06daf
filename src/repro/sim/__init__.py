"""Logic simulation substrate.

Two simulators share the netlist IR:

* :mod:`repro.sim.logicsim` — combinational evaluation: the scalar
  reference walk, and one lowered two-operand gate program that runs on
  one-lane bits, packed lane words or numpy columns;
* :mod:`repro.sim.seqsim` — cycle-accurate sequential simulation with
  explicit flip-flop state, used as ground truth for the scan oracle.
"""

from repro.sim.logicsim import evaluate, evaluate_many, CombinationalSimulator
from repro.sim.seqsim import SequentialSimulator

__all__ = [
    "evaluate",
    "evaluate_many",
    "CombinationalSimulator",
    "SequentialSimulator",
]
