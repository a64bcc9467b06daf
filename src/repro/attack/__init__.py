"""Attack framework.

* :mod:`repro.attack.satattack` — the oracle-guided SAT attack
  (Subramanyan et al., HOST 2015) on locked *combinational* netlists; the
  engine every scan attack in this repo reduces to.  Its
  :class:`~repro.attack.satattack.AttackResult` is the one result type
  of the key-recovery attacks.
* :mod:`repro.attack.bruteforce` — candidate refinement by oracle
  replay, and :func:`~repro.attack.bruteforce.attack_and_replay`: the
  SAT attack on a :class:`~repro.core.modeling.CombinationalModel`, then
  replay, the one pipeline of the replay-verified scan attacks.
* :mod:`repro.attack.scansat` — ScanSAT (static scan obfuscation).
* :mod:`repro.attack.scansat_dyn` — the DOS adjustment (per-pattern keys).
* :mod:`repro.attack.shift_and_leak` — simplified shift-and-leak vs DFS.
* :mod:`repro.attack.scramble_sat` — SAT attack on keyed scan-chain
  scrambling (the :mod:`repro.locking.scramble` extension).

A scan attack builds its model, turns scan responses into model outputs
with :meth:`~repro.core.modeling.CombinationalModel.observe`, and runs
``attack_and_replay``.  DynUnlock itself lives in :mod:`repro.core` (it
is the paper's contribution); its restart loop runs the same steps.
"""

from repro.attack.satattack import (
    AttackResult,
    SatAttack,
    SatAttackConfig,
    SatAttackResult,
)
from repro.attack.bruteforce import attack_and_replay, refine_candidates_by_replay
from repro.attack.scansat import scansat_attack
from repro.attack.scansat_dyn import scansat_dyn_attack
from repro.attack.shift_and_leak import shift_and_leak_attack
from repro.attack.scramble_sat import scramble_sat_attack

__all__ = [
    "AttackResult",
    "attack_and_replay",
    "scramble_sat_attack",
    "SatAttack",
    "SatAttackConfig",
    "SatAttackResult",
    "scansat_attack",
    "scansat_dyn_attack",
    "shift_and_leak_attack",
    "refine_candidates_by_replay",
]
