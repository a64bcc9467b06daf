"""The reproducible crash corpus: entry format, loading and replay.

A corpus is a directory tree of JSON files, one :class:`CrashEntry`
each.  The farm (:class:`~repro.farm.corpus.FarmCorpus`) writes them
as ``<state>/corpus/<invariant>/<content-hash>.json``, atomically
(temp file + rename) so an interrupted run never leaves a torn entry.
Every entry carries the *shrunk* trial params (what ``replay`` runs),
the original sampled params (for forensics), the profile the failure
was observed under, and the invariant + detail -- enough to
re-demonstrate the failure on a clean checkout with no farm state.

Entries are deterministic byte-for-byte: trial params, shrink results
and violation details contain no wall-clock or per-process values, so
rerunning the same seeded round rewrites identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.fuzz.invariants import REPLAYABLE_INVARIANTS
from repro.opt import resolve_level


class CorpusError(ValueError):
    """Raised on malformed corpus entries or directories."""


@dataclass
class CrashEntry:
    """One minimized invariant failure, ready to replay."""

    invariant: str
    detail: str
    trial: dict  # shrunk params -- what replay_entry() executes
    original_trial: dict  # as sampled, pre-shrink
    profile: dict
    shrink_evals: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def replayable(self) -> bool:
        """Whether one in-process run can re-demonstrate the failure."""
        return self.invariant in REPLAYABLE_INVARIANTS

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CrashEntry":
        """Parse an entry; raises :class:`CorpusError` when malformed.

        A trial asking for an optimization level this code lacks is
        malformed too: replaying it would fail for that reason alone and
        be misreported as a fixed (or a reproduced) bug.
        """
        try:
            entry = cls(
                invariant=str(data["invariant"]),
                detail=str(data["detail"]),
                trial=dict(data["trial"]),
                original_trial=dict(data["original_trial"]),
                profile=dict(data["profile"]),
                shrink_evals=int(data.get("shrink_evals", 0)),
                meta=dict(data.get("meta", {})),
            )
            resolve_level(entry.trial.get("opt_level"))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"malformed corpus entry: {exc}") from exc
        return entry


def load_corpus(root: str | Path) -> list[tuple[Path, CrashEntry]]:
    """Every entry under ``root``, sorted by path (missing root = empty)."""
    root = Path(root)
    if not root.is_dir():
        return []
    entries: list[tuple[Path, CrashEntry]] = []
    for path in sorted(root.rglob("*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise CorpusError(f"unreadable corpus entry {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise CorpusError(f"corpus entry {path} is not a JSON object")
        try:
            entries.append((path, CrashEntry.from_dict(data)))
        except CorpusError as exc:
            raise CorpusError(f"{path}: {exc}") from exc
    return entries


def replay_entry(entry: CrashEntry, profile=None) -> bool | None:
    """Re-run one entry's shrunk trial; did the failure reproduce?

    Returns ``True``/``False`` for replayable invariants and ``None``
    for the rest: the stability pair (their failure mode needs a worker
    pool or a store round-trip, which a single-process replay cannot
    exercise) and the farm's near-miss/novel-shape entries, which
    record no failure at all.  ``profile`` defaults to the profile
    recorded in the entry.
    """
    from repro.fuzz.shrink import trial_fails
    from repro.reports.profiles import profile_from_dict

    if not entry.replayable:
        return None
    if profile is None:
        profile = profile_from_dict(entry.profile)
    return trial_fails(entry.trial, entry.invariant, profile)
