"""The result store: one JSON file per finished experiment cell.

Layout: ``<root>/<code-version>/<experiment>/<spec-hash[:32]>.json``.
Each file holds one *entry* -- the canonical JSON encoding of
``{"spec", "label", "duration_s", "result"}`` produced by
:func:`encode_entry` -- so existing ``.repro_cache`` trees stay readable
and freshly written ones are byte-identical to them.

* Writes are atomic (temp file + ``os.replace``): an interrupted or
  concurrent writer never leaves a torn entry behind, and a reader sees
  either the complete previous entry or the complete new one.
* Every failure on the read path -- missing file, torn bytes, foreign
  JSON, a spec that does not match -- degrades to a miss, never a
  wrong row or an exception.
* Directories are created lazily on the first ``put``: constructing a
  store or probing an empty one conjures nothing on disk.

GC policy: entries are ranked newest-first by mtime (ties broken by
``(experiment, key)`` so eviction is deterministic); the survivor set is
the maximal newest prefix whose cumulative size fits ``max_bytes``, and
*everything older is evicted* -- GC never keeps an entry older than one
it evicted, and never evicts below the survivor set.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.runner.spec import JobSpec, code_version

DEFAULT_CACHE_DIR = ".repro_cache"

#: Spec hashes are truncated to this many hex chars in entry file names.
KEY_LENGTH = 32


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``.repro_cache`` in the cwd."""
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


def entry_key(spec: JobSpec) -> str:
    """The content-addressed key a spec's entry is stored under."""
    return spec.spec_hash[:KEY_LENGTH]


def encode_entry(
    spec: JobSpec, result: dict, *, duration_s: float | None = None
) -> bytes:
    """Serialise one entry to its canonical on-disk bytes.

    ``indent=1, sort_keys=True``: the exact bytes every earlier version
    of the store wrote, so old and new caches are indistinguishable.
    """
    entry = {
        "spec": spec.canonical(),
        "label": spec.label,
        "duration_s": duration_s,
        "result": result,
    }
    return json.dumps(entry, indent=1, sort_keys=True).encode("utf-8")


def decode_entry_result(raw: bytes, spec: JobSpec) -> dict | None:
    """Parse entry bytes and return the result dict iff it matches ``spec``.

    Torn writes, hand-edited files, hash collisions, and foreign
    payloads all land here as ``None`` -- a miss, never a wrong row.
    """
    try:
        entry = json.loads(raw)
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(entry, dict):
        return None
    if entry.get("spec") != spec.canonical():
        return None
    result = entry.get("result")
    return result if isinstance(result, dict) else None


@dataclass(frozen=True)
class EntryMeta:
    """Size/age bookkeeping for one stored entry (GC and stats input)."""

    experiment: str
    key: str
    nbytes: int
    mtime: float


@dataclass
class GCReport:
    """What one :meth:`JsonFileStore.gc` sweep kept and evicted."""

    limit_bytes: int
    n_before: int
    n_evicted: int
    bytes_before: int
    bytes_after: int
    dry_run: bool = False
    evicted: list[tuple[str, str]] = field(default_factory=list)

    def summary(self) -> str:
        """One-line accounting for CLI output."""
        verb = "would evict" if self.dry_run else "evicted"
        return (
            f"{verb} {self.n_evicted}/{self.n_before} entr"
            f"{'y' if self.n_evicted == 1 else 'ies'}: "
            f"{self.bytes_before} -> {self.bytes_after} bytes "
            f"(limit {self.limit_bytes})"
        )


class JsonFileStore:
    """Content-addressed one-file-per-cell JSON result store."""

    def __init__(self, root: str | Path | None = None, *, version: str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.version = (version if version is not None else code_version())[:20]

    def _path(self, experiment: str, key: str) -> Path:
        return self.root / self.version / experiment / f"{key}.json"

    def path_for(self, spec: JobSpec) -> Path:
        """File that does (or would) hold ``spec``'s cached result."""
        return self._path(spec.experiment, entry_key(spec))

    def get(self, spec: JobSpec) -> dict | None:
        """Return the cached result dict, or ``None`` on any kind of miss."""
        try:
            return decode_entry_result(self.path_for(spec).read_bytes(), spec)
        except OSError:
            return None

    def put(
        self, spec: JobSpec, result: dict, *, duration_s: float | None = None
    ) -> None:
        """Atomically persist ``result`` for ``spec``."""
        raw = encode_entry(spec, result, duration_s=duration_s)
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(raw)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def invalidate(self, spec: JobSpec) -> bool:
        """Drop one cached cell; returns whether an entry existed."""
        return self._delete(spec.experiment, entry_key(spec))

    def _delete(self, experiment: str, key: str) -> bool:
        try:
            self._path(experiment, key).unlink()
            return True
        except OSError:
            return False

    def _entries(self) -> Iterator[EntryMeta]:
        """Every current-version entry's size and mtime, in no fixed order."""
        version_dir = self.root / self.version
        if not version_dir.is_dir():
            return
        for path in version_dir.rglob("*.json"):
            if not path.is_file():
                continue
            try:
                stat = path.stat()
            except OSError:  # raced with a concurrent invalidate/GC
                continue
            yield EntryMeta(
                experiment=path.relative_to(version_dir).parts[0],
                key=path.stem,
                nbytes=stat.st_size,
                mtime=stat.st_mtime,
            )

    def gc(self, max_bytes: int, *, dry_run: bool = False) -> GCReport:
        """Evict oldest-first until the current version fits ``max_bytes``.

        See the module docstring for the exact survivor-set policy.
        ``dry_run`` computes the report without deleting anything.
        """
        metas = sorted(self._entries(), key=lambda m: (-m.mtime, m.experiment, m.key))
        kept_bytes = 0
        evicted: list[EntryMeta] = []
        for meta in metas:  # newest first; first overflow evicts the rest
            if evicted or kept_bytes + meta.nbytes > max_bytes:
                evicted.append(meta)
            else:
                kept_bytes += meta.nbytes
        if not dry_run:
            for meta in evicted:
                self._delete(meta.experiment, meta.key)
        return GCReport(
            limit_bytes=max_bytes,
            n_before=len(metas),
            n_evicted=len(evicted),
            bytes_before=sum(m.nbytes for m in metas),
            bytes_after=kept_bytes,
            dry_run=dry_run,
            evicted=[(m.experiment, m.key) for m in evicted],
        )

    def prune(self) -> int:
        """Delete entries from *other* code versions; returns files removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for version_dir in self.root.iterdir():
            if not version_dir.is_dir() or version_dir.name == self.version:
                continue
            for path in sorted(version_dir.rglob("*"), reverse=True):
                if path.is_file():
                    path.unlink()
                    removed += 1
                else:
                    path.rmdir()
            version_dir.rmdir()
        return removed

    def stats(self) -> dict:
        """Identity, entry count, byte total and experiments present."""
        metas = list(self._entries())
        return {
            "root": str(self.root),
            "version": self.version,
            "entries": len(metas),
            "stored_bytes": sum(m.nbytes for m in metas),
            "experiments": sorted({m.experiment for m in metas}),
        }

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())
