"""Pluggable result-store backends for the experiment runner.

Two backends, one contract (:class:`~repro.runner.stores.base
.StoreBackend`):

``json``
    One JSON file per cell (the default; byte-compatible with every
    pre-existing ``.repro_cache`` tree).
``sqlite``
    One WAL-mode database with per-row zlib compression -- the
    scale-out backend for full sweeps and services.

Selection: pass ``backend=`` explicitly, or let :func:`open_store`
consult ``$REPRO_CACHE_BACKEND`` (the CLI's ``--cache-backend`` flag
feeds the explicit argument).  All backends store identical entry
bytes, so :func:`migrate` moves a cache from one to the other
byte-for-byte -- and ``dynunlock cache migrate`` is exactly that.

See ``docs/caching.md`` for the backend matrix, layouts, GC policy,
and migration recipes.
"""

from __future__ import annotations

import os

from repro.runner.stores.base import (
    DEFAULT_CACHE_DIR,
    BaseStore,
    EntryMeta,
    GCReport,
    StoreBackend,
    StoreEntry,
    decode_entry_result,
    default_cache_dir,
    encode_entry,
    entry_key,
)
from repro.runner.stores.json_file import JsonFileStore
from repro.runner.stores.sqlite_store import SqliteStore

#: Registry name -> backend class.  Names are part of the CLI/env surface.
BACKENDS: dict[str, type[BaseStore]] = {
    JsonFileStore.name: JsonFileStore,
    SqliteStore.name: SqliteStore,
}

DEFAULT_BACKEND = JsonFileStore.name
ENV_BACKEND = "REPRO_CACHE_BACKEND"


def resolve_backend(name: str | None = None) -> str:
    """Backend choice: explicit arg > ``$REPRO_CACHE_BACKEND`` > ``json``."""
    choice = name or os.environ.get(ENV_BACKEND) or DEFAULT_BACKEND
    if choice not in BACKENDS:
        raise ValueError(
            f"unknown cache backend {choice!r}; known: {', '.join(sorted(BACKENDS))}"
        )
    return choice


def open_store(
    root=None, *, backend: str | None = None, version: str | None = None
) -> BaseStore:
    """Construct a store at ``root`` with the resolved backend."""
    return BACKENDS[resolve_backend(backend)](root, version=version)


def migrate(src: BaseStore, dst: BaseStore) -> int:
    """Copy every current-version entry ``src`` -> ``dst`` byte-for-byte.

    Entry bytes and mtimes (LRU order) are preserved exactly; existing
    destination entries with the same key are overwritten.  Returns the
    number of entries copied.
    """
    copied = 0
    for entry in src.iterate():
        dst.put_raw(entry.experiment, entry.key, entry.raw, mtime=entry.mtime)
        copied += 1
    return copied


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "DEFAULT_CACHE_DIR",
    "ENV_BACKEND",
    "BaseStore",
    "EntryMeta",
    "GCReport",
    "JsonFileStore",
    "SqliteStore",
    "StoreBackend",
    "StoreEntry",
    "decode_entry_result",
    "default_cache_dir",
    "encode_entry",
    "entry_key",
    "migrate",
    "open_store",
    "resolve_backend",
]
