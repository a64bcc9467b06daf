"""The default per-file JSON backend (byte-compatible with seed caches).

Layout: ``<root>/<code-version>/<experiment>/<spec-hash>.json``, one
file per cell, written atomically (temp file + rename) so an interrupted
or concurrent writer never leaves a torn entry behind -- a reader sees
either the complete previous entry or the complete new one.  This is
exactly the layout (and the exact bytes) the original single-backend
store wrote, so existing ``.repro_cache`` trees keep working
unchanged.

Fine at matrix scale; at 10^5+ entries every cell of an experiment
shares one directory, and :class:`~repro.runner.stores.sqlite_store
.SqliteStore` is the better fit.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable

from repro.runner.stores.base import BaseStore, EntryMeta, entry_key


class JsonFileStore(BaseStore):
    """Content-addressed one-file-per-cell JSON store (the default)."""

    name = "json"
    suffix = ".json"

    def _path(self, experiment: str, key: str) -> Path:
        return self.root / self.version / experiment / f"{key}{self.suffix}"

    def path_for(self, spec) -> Path:
        """File that does (or would) hold ``spec``'s cached result."""
        return self._path(spec.experiment, entry_key(spec))

    # -- raw hooks -----------------------------------------------------------

    def _read_raw(self, experiment: str, key: str) -> bytes | None:
        try:
            return self._path(experiment, key).read_bytes()
        except OSError:
            return None

    def _write_raw(
        self, experiment: str, key: str, raw: bytes, mtime: float | None
    ) -> None:
        path = self._path(experiment, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(raw)
            if mtime is not None:
                os.utime(tmp, (mtime, mtime))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _delete(self, experiment: str, key: str) -> bool:
        try:
            self._path(experiment, key).unlink()
            return True
        except OSError:
            return False

    def _entries(self) -> Iterable[EntryMeta]:
        version_dir = self.root / self.version
        if not version_dir.is_dir():
            return
        for path in version_dir.rglob(f"*{self.suffix}"):
            if not path.is_file():
                continue
            try:
                stat = path.stat()
            except OSError:  # raced with a concurrent invalidate/GC
                continue
            relative = path.relative_to(version_dir)
            yield EntryMeta(
                experiment=relative.parts[0],
                key=path.stem,
                nbytes=stat.st_size,
                mtime=stat.st_mtime,
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
