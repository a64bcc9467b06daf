"""SQLite backend: one compressed row per cell, safe concurrent writers.

One database file (``<root>/cells.sqlite3``) holds every code version's
entries, keyed ``(version, experiment, spec_hash)``.  Payloads are the
same canonical entry bytes every backend stores, zlib-compressed per
row through :mod:`repro.runner.stores.codecs`, with the codec recorded
in the row; a row whose codec this code cannot decode reads as a miss.

Concurrency: WAL journal mode plus a generous busy timeout make
concurrent writer processes safe -- writers queue on the WAL lock
instead of failing, readers never block, and a row is visible either
entirely or not at all (no torn reads by construction).  Each process
opens its own connection; stores are cheap to construct and the
connection is opened lazily on first use, so merely instantiating one
(or probing an empty cache) conjures no database file.

Every failure mode on the read path -- missing file, foreign schema,
corrupt payload, undecodable codec -- degrades to a cache miss, never
an exception, matching the file backends' contract.
"""

from __future__ import annotations

import sqlite3
import time
from typing import Iterable

from repro.runner.stores.base import BaseStore, EntryMeta
from repro.runner.stores.codecs import CodecError, decode_blob, encode_blob

_SCHEMA = """
CREATE TABLE IF NOT EXISTS cells (
    version     TEXT NOT NULL,
    experiment  TEXT NOT NULL,
    spec_hash   TEXT NOT NULL,
    codec       TEXT NOT NULL,
    payload     BLOB NOT NULL,
    stored_bytes INTEGER NOT NULL,
    raw_bytes   INTEGER NOT NULL,
    mtime       REAL NOT NULL,
    PRIMARY KEY (version, experiment, spec_hash)
)
"""


class SqliteStore(BaseStore):
    """Compressed embedded-DB result store (stdlib ``sqlite3`` only)."""

    name = "sqlite"
    DB_FILENAME = "cells.sqlite3"
    BUSY_TIMEOUT_S = 30.0

    def __init__(self, root=None, *, version: str | None = None):
        super().__init__(root, version=version)
        self._conn: sqlite3.Connection | None = None

    @property
    def db_path(self):
        """Where the database file lives (or would live) under the root."""
        return self.root / self.DB_FILENAME

    def _connect(self, *, create: bool) -> sqlite3.Connection | None:
        """Open (or reuse) the connection; ``create=False`` never touches disk."""
        if self._conn is not None:
            return self._conn
        if not create and not self.db_path.is_file():
            return None
        self.root.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.db_path), timeout=self.BUSY_TIMEOUT_S)
        try:
            self._enable_wal(conn)
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={int(self.BUSY_TIMEOUT_S * 1000)}")
            with conn:
                conn.execute(_SCHEMA)
        except sqlite3.Error:
            # A foreign or damaged file: readers degrade to misses,
            # writers surface the error when they actually write.
            if create:
                conn.close()
                raise
        self._conn = conn
        return conn

    def _enable_wal(self, conn: sqlite3.Connection) -> None:
        """Switch ``conn`` to WAL, waiting out a concurrent first open.

        On a fresh database two processes can both hold the shared lock
        and both need the exclusive one to change the journal mode;
        SQLite then answers "database is locked" at once instead of
        waiting out the busy timeout.  Retry for as long as that timeout
        promises, so a writer queues instead of failing.
        """
        deadline = time.monotonic() + self.BUSY_TIMEOUT_S
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
                time.sleep(0.01)

    # -- raw hooks -----------------------------------------------------------

    def _read_raw(self, experiment: str, key: str) -> bytes | None:
        try:
            conn = self._connect(create=False)
        except sqlite3.Error:
            return None
        if conn is None:
            return None
        try:
            row = conn.execute(
                "SELECT codec, payload FROM cells"
                " WHERE version = ? AND experiment = ? AND spec_hash = ?",
                (self.version, experiment, key),
            ).fetchone()
        except sqlite3.Error:
            return None
        if row is None:
            return None
        try:
            return decode_blob(row[0], row[1])
        except CodecError:
            return None

    def _write_raw(
        self, experiment: str, key: str, raw: bytes, mtime: float | None
    ) -> None:
        conn = self._connect(create=True)
        codec, blob = encode_blob(raw)
        with conn:
            conn.execute(
                "INSERT OR REPLACE INTO cells"
                " (version, experiment, spec_hash, codec, payload,"
                "  stored_bytes, raw_bytes, mtime)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    self.version,
                    experiment,
                    key,
                    codec,
                    blob,
                    len(blob),
                    len(raw),
                    time.time() if mtime is None else mtime,
                ),
            )

    def _delete(self, experiment: str, key: str) -> bool:
        try:
            conn = self._connect(create=False)
        except sqlite3.Error:
            return False
        if conn is None:
            return False
        try:
            with conn:
                cursor = conn.execute(
                    "DELETE FROM cells"
                    " WHERE version = ? AND experiment = ? AND spec_hash = ?",
                    (self.version, experiment, key),
                )
            return cursor.rowcount > 0
        except sqlite3.Error:
            return False

    def _entries(self) -> Iterable[EntryMeta]:
        try:
            conn = self._connect(create=False)
        except sqlite3.Error:
            return
        if conn is None:
            return
        try:
            rows = conn.execute(
                "SELECT experiment, spec_hash, stored_bytes, mtime FROM cells"
                " WHERE version = ?",
                (self.version,),
            ).fetchall()
        except sqlite3.Error:
            return
        for experiment, key, stored_bytes, mtime in rows:
            yield EntryMeta(experiment, key, stored_bytes, mtime)

    def prune(self) -> int:
        """Delete rows from *other* code versions; returns rows removed."""
        try:
            conn = self._connect(create=False)
        except sqlite3.Error:
            return 0
        if conn is None:
            return 0
        try:
            with conn:
                cursor = conn.execute(
                    "DELETE FROM cells WHERE version != ?", (self.version,)
                )
            removed = cursor.rowcount
        except sqlite3.Error:
            return 0
        if removed:
            self._vacuum()
        return removed

    # -- backend extras ------------------------------------------------------

    def _after_gc(self) -> None:
        self._vacuum()

    def _vacuum(self) -> None:
        """Best-effort space reclamation after bulk deletes."""
        if self._conn is None:
            return
        try:
            self._conn.execute("VACUUM")
        except sqlite3.Error:  # busy under a concurrent writer: fine
            pass

    def _stats_extra(self) -> dict:
        extra: dict = {"db_path": str(self.db_path)}
        try:
            extra["db_bytes"] = self.db_path.stat().st_size
        except OSError:
            extra["db_bytes"] = 0
        try:
            conn = self._connect(create=False)
        except sqlite3.Error:
            conn = None
        if conn is None:
            extra.update({"codecs": {}, "raw_bytes": 0, "foreign_entries": 0})
            return extra
        try:
            codec_rows = conn.execute(
                "SELECT codec, COUNT(*) FROM cells WHERE version = ?"
                " GROUP BY codec",
                (self.version,),
            ).fetchall()
            raw_total = conn.execute(
                "SELECT COALESCE(SUM(raw_bytes), 0) FROM cells WHERE version = ?",
                (self.version,),
            ).fetchone()[0]
            foreign = conn.execute(
                "SELECT COUNT(*) FROM cells WHERE version != ?", (self.version,)
            ).fetchone()[0]
        except sqlite3.Error:
            codec_rows, raw_total, foreign = [], 0, 0
        extra.update(
            {
                "codecs": {codec: count for codec, count in codec_rows},
                "raw_bytes": raw_total,
                "foreign_entries": foreign,
            }
        )
        return extra

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
