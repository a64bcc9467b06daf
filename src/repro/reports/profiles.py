"""Experiment size profiles.

The paper ran a 24-core Xeon with the lingeling C solver; this repo runs
its own CDCL solver, whose search runs in a native C core
(``repro/sat/_cdcl.c``, built with the system ``cc`` on first use).
Profiles keep the experiment *structure* identical while shrinking
instance sizes.  Wall times below are cache-less ``--jobs 2`` runs on a
2-vCPU Xeon container under Python 3.11:

* ``quick`` (default): circuits at 1/16 of the paper's scan-flop counts,
  16-bit keys, one LFSR seed per circuit.  Table II takes about 1 s,
  Table III (18-22 bits) about 1.5 s.
* ``full``: 1/8 scale, 16-bit keys, two seeds.  Table II takes about
  2 s; Table III's sweep up to 30-bit keys about 80 s (77 s measured
  2026-10-19), nearly all of it in the 30-bit cells (18-29 s each).
* ``paper``: the paper's sizes (128-bit keys, full flop counts, ten
  seeds).  Provided for completeness: at these key widths the native
  core hits a wall (a paper-scale s5378 cell at 128 bits had not
  finished after 60 s), so expect cells to run into their one-day
  timeout -- the substitution is documented in DESIGN.md/EXPERIMENTS.md.

Select with the ``REPRO_PROFILE`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class ExperimentProfile:
    """One named experiment size (scale, key width, seeds, budgets)."""
    name: str
    scale: int  # divides the paper's scan-flop counts
    key_bits: int  # Table II key size
    n_seeds: int  # LFSR seeds averaged per circuit (paper: 10)
    timeout_s: float  # per-attack wall-clock budget
    table3_key_sizes: tuple[int, ...]  # Table III sweep
    candidate_limit: int = 256

    def effective_key_bits(self, n_flops: int, requested: int | None = None) -> int:
        """Clamp the key width to the available key-gate slots."""
        want = requested if requested is not None else self.key_bits
        return min(want, n_flops - 1)


PROFILES: dict[str, ExperimentProfile] = {
    "quick": ExperimentProfile(
        name="quick",
        scale=16,
        key_bits=16,
        n_seeds=1,
        timeout_s=240.0,
        table3_key_sizes=(18, 20, 22),
    ),
    "full": ExperimentProfile(
        name="full",
        scale=8,
        key_bits=16,
        n_seeds=2,
        timeout_s=1200.0,
        table3_key_sizes=(18, 22, 26, 30),
    ),
    "paper": ExperimentProfile(
        name="paper",
        scale=1,
        key_bits=128,
        n_seeds=10,
        timeout_s=86_400.0,
        table3_key_sizes=tuple(range(144, 369, 16)),
    ),
}


def profile_to_dict(profile: ExperimentProfile) -> dict:
    """JSON-safe encoding of a profile (tuples become lists).

    This is what gets embedded in a :class:`repro.runner.spec.JobSpec`,
    so *every* field participates in the cache key -- changing a
    timeout, seed count, or scale invalidates affected cells.
    """
    data = asdict(profile)
    data["table3_key_sizes"] = list(profile.table3_key_sizes)
    return data


def profile_from_dict(data: dict) -> ExperimentProfile:
    """Inverse of :func:`profile_to_dict` (used inside worker processes)."""
    fields = dict(data)
    fields["table3_key_sizes"] = tuple(fields["table3_key_sizes"])
    return ExperimentProfile(**fields)


def active_profile() -> ExperimentProfile:
    """Profile selected by ``REPRO_PROFILE`` (default: quick)."""
    name = os.environ.get("REPRO_PROFILE", "quick").strip().lower()
    if name not in PROFILES:
        raise KeyError(
            f"unknown REPRO_PROFILE {name!r}; choose from {sorted(PROFILES)}"
        )
    return PROFILES[name]
