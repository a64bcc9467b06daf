"""``repro.farm``: the continuous fuzz farm.

A farm is a long-running, resumable loop of seeded fuzz rounds on top
of :mod:`repro.fuzz` and :mod:`repro.runner`:

* :mod:`repro.farm.corpus` -- a global deduplicating corpus store that
  persists every interesting trial (violations, crashes, near-misses,
  novel circuit shapes) with journal-style atomic writes;
* :mod:`repro.farm.schedule` -- a coverage-style scheduler over
  (attack x defense x circuit-shape-bucket) cells that biases sampling
  toward recently-violating or under-explored cells;
* :mod:`repro.farm.driver` -- the rolling campaign driver: time- or
  round-budgeted rounds, a checkpoint after every round so a killed
  farm resumes byte-identically, and one ``farm_round`` span record
  per round through :mod:`repro.observability`.

Everything persisted (state, corpus, journal) is a pure function of
``(seed, completed rounds)``: no wall-clock values land on disk, so an
interrupted-and-resumed farm converges on the same bytes as an
uninterrupted one.
"""

from repro.farm.corpus import FarmCorpus
from repro.farm.driver import FarmConfig, FarmDriver, FarmReport, run_farm
from repro.farm.schedule import SHAPE_BUCKETS, FarmScheduler, shape_bucket

__all__ = [
    "FarmCorpus",
    "FarmConfig",
    "FarmDriver",
    "FarmReport",
    "FarmScheduler",
    "SHAPE_BUCKETS",
    "shape_bucket",
    "run_farm",
]
