"""Differential fuzzing of the attack x defense landscape.

The rest of the repo tests hand-enumerated scenarios (fixed ISCAS
registry benchmarks, the matrix grid); this package samples the space
those scenarios live in -- circuit shapes x key sizes x applicable
(attack, defense) pairs -- under one seeded RNG stream and checks
metamorphic invariants on every trial:

* ``key-equivalence``  -- the lock with its correct key behaves exactly
  like the original netlist (bit-parallel replay);
* ``attack-replay``    -- a key an attack claims to have recovered must
  reproduce the live oracle's responses under independent replay;
* ``exec-stability``   -- a trial's result is identical whether it ran
  in a pool worker or serially in-process;
* ``cache-stability``  -- a result store round-trip returns the fresh
  result byte-for-byte.

Failing trials are minimized by a greedy shrinker
(:mod:`repro.fuzz.shrink`) and persisted as replayable crash-corpus
entries (:mod:`repro.fuzz.corpus`).  Trials run as ``"fuzz"``
``JobSpec``s (:mod:`repro.fuzz.campaign`) through the cached parallel
scheduler; the driver is the farm (:mod:`repro.farm`), surfaced as
``dynunlock farm run`` / ``dynunlock fuzz-replay`` and gated in CI by
the ``fuzz-smoke`` job, whose budgetless invocation is one seeded
round.
"""

from repro.fuzz.campaign import CampaignReport, fuzz_cell, sample_trial_params
from repro.fuzz.corpus import CrashEntry, load_corpus, replay_entry
from repro.fuzz.invariants import (
    InvariantViolation,
    check_attack_replay,
    check_key_equivalence,
)
from repro.fuzz.shrink import shrink_trial

__all__ = [
    "CampaignReport",
    "CrashEntry",
    "InvariantViolation",
    "check_attack_replay",
    "check_key_equivalence",
    "fuzz_cell",
    "load_corpus",
    "replay_entry",
    "sample_trial_params",
    "shrink_trial",
]
