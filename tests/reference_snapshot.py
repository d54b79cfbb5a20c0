"""Reference oracle for ``cogkit.snapshot``: the straightforward writer.

``write_snapshot`` turns each array into bytes with ``tobytes`` and then
joins them, so each array is copied twice.  The package's writer must give
the same bytes while copying each array once.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from cogkit.snapshot import _KIND_ARRAY, _KIND_META, MAGIC, VERSION


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
            arr = np.asarray(value, dtype="<f8")
            chunks.append(struct.pack("<B", arr.ndim))
            chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            chunks.append(arr.tobytes(order="C"))
        else:
            raw = json.dumps(value, sort_keys=True).encode("utf-8")
            chunks.append(struct.pack("<I", len(raw)))
            chunks.append(raw)
    return b"".join(chunks)
