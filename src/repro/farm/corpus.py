"""The farm's global corpus store.

Every interesting trial a farm round produces lands here as a
:class:`~repro.fuzz.corpus.CrashEntry` superset -- the same JSON shape
``dynunlock fuzz-replay`` consumes (extra keys are ignored by
``CrashEntry.from_dict``), plus farm bookkeeping: the entry ``kind``
(``violation``/``crash``/``near-miss``/``novel-shape``), the scheduler
cell it came from, a content hash and a scalar trial size.

Layout::

    <state_dir>/corpus/<invariant>/<content-hash>.json   entries
    <state_dir>/journal.jsonl                            append-only log

Dedupe is by content hash of the *shrunk* trial (invariant + params):
re-finding a known reproducer is a no-op, so re-running a round after a
mid-commit kill converges on identical bytes.  Re-minimization is by
identity -- (kind, invariant, attack, defense, shape bucket) -- when a
strictly smaller reproducer for an identity lands, it replaces the
bigger file.

Writes are journal-style and safe under concurrent campaigns: entry
files are written atomically (temp + rename) and the journal is a
single ``O_APPEND`` write per record, so readers never see a torn
entry.  The journal is forensic; the authoritative index is always
rebuilt from the entry files themselves.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.fuzz.corpus import CorpusError, CrashEntry

#: Entry kinds, in display order.
ENTRY_KINDS = ("violation", "crash", "near-miss", "novel-shape")


def content_hash(invariant: str, trial: dict) -> str:
    """Stable identity of one (invariant, shrunk trial) reproducer."""
    blob = json.dumps(
        {"invariant": invariant, "trial": trial},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def trial_size(trial: dict) -> int:
    """Scalar 'how big is this reproducer' metric (smaller = better).

    Ordered by what dominates replay cost: flop count, then key width,
    then I/O width, then gate density.  Matches the shrinker's notion
    of progress closely enough that a shrunk trial always scores lower
    than its original.
    """
    return (
        int(trial.get("n_flops", 0)) * 1000
        + int(trial.get("key_bits", 0)) * 100
        + (int(trial.get("n_inputs", 0)) + int(trial.get("n_outputs", 0))) * 10
        + int(float(trial.get("gates_per_flop", 0.0)) * 2)
        + int(trial.get("max_fanin", 0))
    )


def entry_identity(kind: str, entry: CrashEntry, cell: str) -> str:
    """Re-minimization bucket: one best reproducer per failure mode."""
    trial = entry.trial
    bucket = cell.rsplit("|", 1)[-1] if cell else "?"
    return "|".join(
        [
            kind,
            entry.invariant,
            str(trial.get("attack", "?")),
            str(trial.get("defense", "?")),
            bucket,
        ]
    )


@dataclass
class IndexRecord:
    """One corpus entry as the in-memory index sees it."""

    hash: str
    identity: str
    kind: str
    invariant: str
    size: int
    path: Path


class FarmCorpus:
    """Deduplicating, self-minimizing store of interesting trials."""

    def __init__(self, state_dir: str | Path):
        self.state_dir = Path(state_dir)
        self.entries_dir = self.state_dir / "corpus"
        self.journal_path = self.state_dir / "journal.jsonl"
        self._by_hash: dict[str, IndexRecord] = {}
        self._by_identity: dict[str, IndexRecord] = {}
        self._load()

    # -- loading ----------------------------------------------------------

    def _load(self) -> None:
        if not self.entries_dir.is_dir():
            return
        for path in sorted(self.entries_dir.rglob("*.json")):
            try:
                data = json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                raise CorpusError(f"unreadable corpus entry {path}: {exc}")
            if not isinstance(data, dict):
                raise CorpusError(f"corpus entry {path} is not a JSON object")
            entry = CrashEntry.from_dict(data)
            kind = str(data.get("kind", "violation"))
            cell = str(data.get("cell", "?|?|?"))
            record = IndexRecord(
                hash=str(
                    data.get("content_hash")
                    or content_hash(entry.invariant, entry.trial)
                ),
                identity=str(
                    data.get("identity") or entry_identity(kind, entry, cell)
                ),
                kind=kind,
                invariant=entry.invariant,
                size=int(data.get("size", trial_size(entry.trial))),
                path=path,
            )
            self._by_hash[record.hash] = record
            best = self._by_identity.get(record.identity)
            if best is None or record.size < best.size:
                self._by_identity[record.identity] = record

    # -- writing ----------------------------------------------------------

    def _journal(self, record: dict[str, Any]) -> None:
        self.state_dir.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True) + "\n"
        fd = os.open(
            self.journal_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)

    def _write_file(self, path: Path, payload: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def add(
        self,
        entry: CrashEntry,
        *,
        kind: str = "violation",
        cell: str = "?|?|?",
        round_index: int | None = None,
        identity: str | None = None,
    ) -> str:
        """Persist one interesting trial; returns the disposition.

        ``"new"``        first reproducer for its identity;
        ``"minimized"``  replaced a bigger reproducer (old file removed);
        ``"duplicate"``  exact content already stored (no-op);
        ``"ignored"``    a same-or-bigger reproducer already exists.

        ``identity`` overrides the default re-minimization bucket
        (novel-shape entries key on their shape signature, not their
        cell, so one signature never evicts another).
        """
        digest = content_hash(entry.invariant, entry.trial)
        if digest in self._by_hash:
            return "duplicate"
        if identity is None:
            identity = entry_identity(kind, entry, cell)
        size = trial_size(entry.trial)
        best = self._by_identity.get(identity)
        if best is not None and size >= best.size:
            return "ignored"
        path = self.entries_dir / entry.invariant / f"{digest}.json"
        payload = entry.to_dict()
        payload.update(
            kind=kind,
            cell=cell,
            content_hash=digest,
            identity=identity,
            size=size,
        )
        self._write_file(path, payload)
        journal_record = {
            "op": "replace" if best is not None else "add",
            "hash": digest,
            "identity": identity,
            "invariant": entry.invariant,
            "kind": kind,
            "size": size,
            "path": str(path.relative_to(self.state_dir)),
        }
        if round_index is not None:
            journal_record["round"] = round_index
        if best is not None:
            journal_record["replaced"] = best.hash
            try:
                best.path.unlink()
            except OSError:
                pass
            self._by_hash.pop(best.hash, None)
        self._journal(journal_record)
        record = IndexRecord(
            hash=digest,
            identity=identity,
            kind=kind,
            invariant=entry.invariant,
            size=size,
            path=path,
        )
        self._by_hash[digest] = record
        self._by_identity[identity] = record
        return "minimized" if best is not None else "new"

    # -- reading ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._by_hash)

    def stats(self) -> dict[str, Any]:
        by_kind: dict[str, int] = {}
        by_invariant: dict[str, int] = {}
        for record in self._by_hash.values():
            by_kind[record.kind] = by_kind.get(record.kind, 0) + 1
            by_invariant[record.invariant] = (
                by_invariant.get(record.invariant, 0) + 1
            )
        return {
            "entries": len(self._by_hash),
            "identities": len(self._by_identity),
            "by_kind": dict(sorted(by_kind.items())),
            "by_invariant": dict(sorted(by_invariant.items())),
        }
