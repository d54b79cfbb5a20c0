"""Versioned binary container for agent snapshots.

Layout: a fixed header (magic ``CMCA``, format version, seed), then a count
of entries.  Each entry is a UTF-8 name plus either a float64 little-endian
row-major array (with explicit shape) or a JSON-encoded metadata value.
Everything round-trips bit-exactly, which downstream code relies on for
replay-identical restores.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

MAGIC = b"CMCA"
VERSION = 1

_KIND_ARRAY = 0
_KIND_META = 1


class SnapshotError(Exception):
    """Base class for container problems."""


class SnapshotFormatError(SnapshotError):
    """Bad magic, malformed entry, or trailing garbage."""


class SnapshotVersionError(SnapshotError):
    """Container written by an unsupported format version."""


class SnapshotTruncatedError(SnapshotError):
    """Container ends before a declared entry is complete."""


def write_snapshot(arrays, meta, seed=0):
    """Serialize named arrays and JSON-able metadata to bytes.

    Entries are written in sorted name order so equal state always yields
    equal bytes.  Names must be unique across both dicts.
    """
    overlap = set(arrays) & set(meta)
    if overlap:
        raise ValueError(f"names used as both array and metadata: {sorted(overlap)}")
    chunks = [MAGIC, struct.pack("<IQ", VERSION, seed & 0xFFFFFFFFFFFFFFFF)]
    entries = sorted(
        [(name, _KIND_ARRAY, arrays[name]) for name in arrays]
        + [(name, _KIND_META, meta[name]) for name in meta]
    )
    chunks.append(struct.pack("<I", len(entries)))
    for name, kind, value in entries:
        raw_name = name.encode("utf-8")
        chunks.append(struct.pack("<HB", len(raw_name), kind))
        chunks.append(raw_name)
        if kind == _KIND_ARRAY:
            arr = np.asarray(value, dtype="<f8", order="C")  # copies only if it must
            chunks.append(struct.pack("<B", arr.ndim))
            chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            chunks.append(arr.reshape(-1).view(np.uint8))  # join copies it, once
        else:
            raw = json.dumps(value, sort_keys=True).encode("utf-8")
            chunks.append(struct.pack("<I", len(raw)))
            chunks.append(raw)
    return b"".join(chunks)


class _Reader:
    """Takes slices of ``data`` as views: the one copy of an array is its own."""

    def __init__(self, data):
        self.data = memoryview(data)
        self.pos = 0

    def take(self, n, what):
        if self.pos + n > len(self.data):
            raise SnapshotTruncatedError(
                f"container ends inside {what} (need {n} bytes at offset {self.pos})"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def read_snapshot(data):
    """Parse container bytes back into (arrays, meta, seed)."""
    r = _Reader(data)
    magic = r.take(4, "header")
    if magic != MAGIC:
        raise SnapshotFormatError(f"bad magic {bytes(magic)!r}; expected {MAGIC!r}")
    version, seed = r.unpack("<IQ", "header")
    if version != VERSION:
        raise SnapshotVersionError(f"unsupported container version {version}")
    (count,) = r.unpack("<I", "entry count")
    arrays, meta = {}, {}
    seen = set()
    for i in range(count):
        name_len, kind = r.unpack("<HB", f"entry {i} header")
        raw_name = r.take(name_len, f"entry {i} name")
        try:
            name = str(raw_name, "utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotFormatError(f"entry {i} name is not valid UTF-8: {exc}") from None
        if name in seen:
            raise SnapshotFormatError(f"duplicate entry name {name!r}")
        seen.add(name)
        if kind == _KIND_ARRAY:
            (ndim,) = r.unpack("<B", f"array {name!r} rank")
            shape = r.unpack(f"<{ndim}Q", f"array {name!r} shape")
            n_items = math.prod(shape)  # exact, where np.prod wraps past int64
            raw = r.take(8 * n_items, f"array {name!r} data")
            try:
                arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            except ValueError as exc:  # more dimensions, or a larger size, than NumPy holds
                raise SnapshotFormatError(f"array {name!r} cannot take its shape: {exc}") from None
        elif kind == _KIND_META:
            (raw_len,) = r.unpack("<I", f"metadata {name!r} length")
            raw = r.take(raw_len, f"metadata {name!r}")
            try:
                meta[name] = json.loads(str(raw, "utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise SnapshotFormatError(f"metadata {name!r} is not valid JSON: {exc}")
        else:
            raise SnapshotFormatError(f"entry {name!r} has unknown kind {kind}")
    if r.pos != len(data):
        raise SnapshotFormatError(f"{len(data) - r.pos} bytes of trailing garbage")
    return arrays, meta, seed


def load_snapshot(path):
    with open(path, "rb") as fh:
        return read_snapshot(fh.read())
