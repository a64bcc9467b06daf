"""Backend-agnostic result-store machinery.

Every backend stores the same unit: one *entry* -- the canonical JSON
encoding of ``{"spec", "label", "duration_s", "result"}`` produced by
:func:`encode_entry` -- addressed by ``(code version, experiment,
entry key)`` where the key is the spec hash truncated to 32 hex chars.
Because the serialised bytes are defined here, not per backend,
migrating a cache between any two backends preserves every entry
byte-for-byte, and the fuzz campaign's cache-stability invariant means
the same thing everywhere.

Backends implement four raw hooks (:meth:`BaseStore._read_raw`,
``_write_raw``, ``_delete``, ``_entries``) plus :meth:`BaseStore.prune`;
the shared surface (get/put/invalidate/iterate/stats/gc) lives here so
semantics -- spec verification on read, corruption degrading to a miss,
LRU-by-mtime garbage collection -- cannot drift between backends.

GC policy: entries are ranked newest-first by mtime (ties broken by
``(experiment, key)`` so eviction is deterministic); the survivor set is
the maximal newest prefix whose cumulative size fits ``max_bytes``, and
*everything older is evicted* -- GC never keeps an entry older than one
it evicted, and never evicts below the survivor set.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro.observability.session import store_event
from repro.runner.spec import JobSpec, code_version

DEFAULT_CACHE_DIR = ".repro_cache"

#: Spec hashes are truncated to this many hex chars in entry keys
#: (matching the legacy ``<hash>[:32].json`` file names).
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
    """Serialise one entry to its canonical bytes (all backends agree).

    The encoding is byte-identical to what the original per-file JSON
    store wrote (``indent=1, sort_keys=True``), so pre-existing caches
    and freshly written ones are indistinguishable on disk.
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


@dataclass(frozen=True)
class StoreEntry:
    """One entry streamed out of a store (migration/inspection unit)."""

    experiment: str
    key: str
    raw: bytes
    mtime: float


@dataclass
class GCReport:
    """What one :meth:`BaseStore.gc` sweep kept and evicted."""

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


@runtime_checkable
class StoreBackend(Protocol):
    """What the scheduler (and every grid/fuzz harness) needs from a store."""

    def get(self, spec: JobSpec) -> dict | None: ...

    def put(
        self, spec: JobSpec, result: dict, *, duration_s: float | None = None
    ) -> None: ...

    def invalidate(self, spec: JobSpec) -> bool: ...

    def iterate(self) -> Iterator[StoreEntry]: ...

    def stats(self) -> dict: ...

    def gc(self, max_bytes: int, *, dry_run: bool = False) -> GCReport: ...

    def prune(self) -> int: ...

    def close(self) -> None: ...

    def __len__(self) -> int: ...


class BaseStore:
    """Shared store surface; backends supply the four raw hooks."""

    #: Registry name; subclasses override ("json", "sqlite").
    name = "base"

    def __init__(self, root: str | Path | None = None, *, version: str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.version = (version if version is not None else code_version())[:20]

    # -- raw hooks every backend implements ---------------------------------

    def _read_raw(self, experiment: str, key: str) -> bytes | None:
        raise NotImplementedError

    def _write_raw(
        self, experiment: str, key: str, raw: bytes, mtime: float | None
    ) -> None:
        raise NotImplementedError

    def _delete(self, experiment: str, key: str) -> bool:
        raise NotImplementedError

    def _entries(self) -> Iterable[EntryMeta]:
        raise NotImplementedError

    def prune(self) -> int:
        """Delete entries from *other* code versions; returns units removed."""
        raise NotImplementedError

    # -- shared semantics ----------------------------------------------------

    def get(self, spec: JobSpec) -> dict | None:
        """Return the cached result dict, or ``None`` on any kind of miss."""
        raw = self._read_raw(spec.experiment, entry_key(spec))
        result = None if raw is None else decode_entry_result(raw, spec)
        store_event(self.name, "hit" if result is not None else "miss")
        return result

    def put(
        self, spec: JobSpec, result: dict, *, duration_s: float | None = None
    ) -> None:
        """Atomically persist ``result`` for ``spec``."""
        raw = encode_entry(spec, result, duration_s=duration_s)
        self._write_raw(spec.experiment, entry_key(spec), raw, None)
        store_event(self.name, "put")

    def put_raw(
        self, experiment: str, key: str, raw: bytes, *, mtime: float | None = None
    ) -> None:
        """Store pre-serialised entry bytes verbatim (migration path).

        ``mtime`` preserves the source entry's age so a migrated cache
        keeps its LRU order; ``None`` stamps the entry as fresh.
        """
        self._write_raw(experiment, key, raw, mtime)

    def invalidate(self, spec: JobSpec) -> bool:
        """Drop one cached cell; returns whether an entry existed."""
        return self._delete(spec.experiment, entry_key(spec))

    def iterate(self) -> Iterator[StoreEntry]:
        """Stream every current-version entry in deterministic order."""
        for meta in sorted(self._entries(), key=lambda m: (m.experiment, m.key)):
            raw = self._read_raw(meta.experiment, meta.key)
            if raw is not None:
                yield StoreEntry(meta.experiment, meta.key, raw, meta.mtime)

    def gc(self, max_bytes: int, *, dry_run: bool = False) -> GCReport:
        """Evict oldest-first until the current version fits ``max_bytes``.

        See the module docstring for the exact survivor-set policy.
        ``dry_run`` computes the report without deleting anything.
        """
        metas = sorted(
            self._entries(), key=lambda m: (-m.mtime, m.experiment, m.key)
        )
        bytes_before = sum(m.nbytes for m in metas)
        kept_bytes = 0
        evicted: list[EntryMeta] = []
        for meta in metas:  # newest first; first overflow evicts the rest
            if evicted or kept_bytes + meta.nbytes > max_bytes:
                evicted.append(meta)
            else:
                kept_bytes += meta.nbytes
        report = GCReport(
            limit_bytes=max_bytes,
            n_before=len(metas),
            n_evicted=len(evicted),
            bytes_before=bytes_before,
            bytes_after=kept_bytes,
            dry_run=dry_run,
            evicted=[(m.experiment, m.key) for m in evicted],
        )
        if not dry_run and evicted:
            for meta in evicted:
                self._delete(meta.experiment, meta.key)
            self._after_gc()
        return report

    def _after_gc(self) -> None:
        """Hook for space reclamation after deletions (SQLite vacuums)."""

    def stats(self) -> dict:
        """Uniform stats block: identity, entry counts, byte totals."""
        metas = list(self._entries())
        base = {
            "backend": self.name,
            "root": str(self.root),
            "version": self.version,
            "entries": len(metas),
            "stored_bytes": sum(m.nbytes for m in metas),
            "experiments": sorted({m.experiment for m in metas}),
        }
        base.update(self._stats_extra())
        return base

    def _stats_extra(self) -> dict:
        """Backend-specific stats fields (codec mix, db size, ...)."""
        return {}

    def close(self) -> None:
        """Release backend resources (file backends hold none)."""

    def __enter__(self) -> "BaseStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} backend={self.name!r} root={str(self.root)!r} "
            f"version={self.version!r}>"
        )
