"""Per-entry payload compression for the SQLite store backend.

The backend records the codec *per row* and writes stdlib ``zlib``,
which every interpreter can decode.  A row carrying any other codec
name (``zstd`` rows from older caches, say) fails to decode with
:class:`CodecError`, which the backend reads as a cache miss.

Codec names are part of the on-disk format: add new ones, never rename.
"""

from __future__ import annotations

import zlib

#: Codec names accepted by :func:`encode_blob` / :func:`decode_blob`.
KNOWN_CODECS = ("raw", "zlib")

_ZLIB_LEVEL = 6


class CodecError(ValueError):
    """A blob could not be encoded or decoded (bad codec or bad bytes)."""


def encode_blob(raw: bytes, codec: str = "zlib") -> tuple[str, bytes]:
    """Compress ``raw``; returns ``(codec_name, blob)`` for the row."""
    if codec == "raw":
        return "raw", bytes(raw)
    if codec == "zlib":
        return "zlib", zlib.compress(raw, _ZLIB_LEVEL)
    raise CodecError(f"unknown codec {codec!r}; known: {', '.join(KNOWN_CODECS)}")


def decode_blob(codec: str, blob: bytes) -> bytes:
    """Inverse of :func:`encode_blob`; raises :class:`CodecError` on rot."""
    if codec == "raw":
        return bytes(blob)
    if codec == "zlib":
        try:
            return zlib.decompress(blob)
        except zlib.error as exc:
            raise CodecError(f"zlib payload is corrupt: {exc}") from exc
    raise CodecError(f"unknown codec {codec!r}; known: {', '.join(KNOWN_CODECS)}")
