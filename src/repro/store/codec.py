"""The one data-only container for store artifacts and task-AST files::

    bytes 0..7        MAGIC  b"RPASTOR\\x02"
    bytes 8..39       SHA-256 of every byte from 40 on
    bytes 40..47      header length H, little-endian uint64
    bytes 48..48+H    UTF-8 JSON header (the document)
    bytes 48+H..      buffer section: raw little-endian int64, concatenated

Every ``np.ndarray`` of the document lives in the buffer section; in the
header it is ``{"__nd__": [offset, *shape]}`` (offset in int64 words).
Decoding parses JSON and nothing else (no pickle, zip or ``np.load``),
so bytes read from disk can at worst be wrong data, never code: the
checksum catches bit-rot, and a file re-signed by whoever can write it
still reaches only the JSON parser and the bounds-checked buffer
references.  Decoded arrays are read-only views into the file bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import numpy as np

MAGIC = b"RPASTOR\x02"
_SIGNED = len(MAGIC) + 32  # the SHA-256 covers every byte from here on
_PREFIX = _SIGNED + 8  # ... starting with the header length
_INT64 = np.dtype("<i8")


class ArtifactCorruptError(ValueError):
    """The on-disk artifact bytes fail the integrity checks."""


def encode(doc: Any) -> bytes:
    """Document (plain data + int64 arrays) -> checksummed bytes."""
    buffers: list[bytes] = []
    used = 0

    def array_ref(value):
        nonlocal used
        if not isinstance(value, np.ndarray) or not np.can_cast(
            value.dtype, _INT64, "safe"
        ):
            raise TypeError(f"not plain data or int64-safe: {value!r:.60}")
        buffers.append(np.ascontiguousarray(value, dtype=_INT64).tobytes())
        ref = {"__nd__": [used, *value.shape]}
        used += value.size
        return ref

    header = json.dumps(doc, default=array_ref, separators=(",", ":"))
    body = header.encode("utf-8")
    body = len(body).to_bytes(8, "little") + body + b"".join(buffers)
    return MAGIC + hashlib.sha256(body).digest() + body


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`: checks magic, lengths and checksum,
    then parses the JSON; raises :class:`ArtifactCorruptError`."""
    data = bytes(data)
    if data[: len(MAGIC)] != MAGIC:
        raise ArtifactCorruptError("bad artifact magic")
    header_len = int.from_bytes(data[_SIGNED:_PREFIX], "little")
    words, partial = divmod(len(data) - _PREFIX - header_len, 8)
    if len(data) < _PREFIX or words < 0 or partial:
        raise ArtifactCorruptError(
            f"artifact truncated: {len(data)} bytes do not hold a "
            f"{header_len}-byte header and whole int64 words"
        )
    digest = data[len(MAGIC) : _SIGNED]
    if hashlib.sha256(memoryview(data)[_SIGNED:]).digest() != digest:
        raise ArtifactCorruptError("artifact payload checksum mismatch")
    buffers = np.frombuffer(data, dtype=_INT64, offset=_PREFIX + header_len)

    def array_of(obj: dict):
        if len(obj) != 1 or "__nd__" not in obj:
            return obj
        ref = obj["__nd__"]
        if not (
            isinstance(ref, list)
            and ref
            and all(type(v) is int and v >= 0 for v in ref)
        ):
            raise ArtifactCorruptError(f"malformed array reference {ref!r}")
        offset, shape = ref[0], ref[1:]
        end = offset + math.prod(shape)
        if end > words:
            raise ArtifactCorruptError(
                f"array reference {ref!r} overruns {words} buffer words"
            )
        # reshape refuses dims NumPy cannot represent (ValueError)
        return buffers[offset:end].reshape(shape)

    try:
        text = data[_PREFIX : _PREFIX + header_len].decode("utf-8")
        return json.loads(text, object_hook=array_of)
    except (ValueError, RecursionError) as exc:
        raise ArtifactCorruptError(f"artifact unreadable: {exc}") from None
