import struct
import tracemalloc

import numpy as np
import pytest
import reference_snapshot

from cogkit.snapshot import (
    SnapshotFormatError,
    SnapshotTruncatedError,
    SnapshotVersionError,
    load_snapshot,
    read_snapshot,
    write_snapshot,
)


def sample_payload():
    rng = np.random.default_rng(0)
    arrays = {
        "weights": rng.normal(size=(3, 5)),
        "vector": rng.normal(size=7),
        "empty": np.zeros((0, 4)),
    }
    meta = {
        "step": 42,
        "name": "agent-1",
        "nested": {"a": [1, 2, 3], "b": None, "flag": True},
        "bigint": 2**100,
    }
    return arrays, meta


def test_roundtrip_bit_exact():
    arrays, meta = sample_payload()
    data = write_snapshot(arrays, meta, seed=123)
    arrays2, meta2, seed = read_snapshot(data)
    assert seed == 123
    assert meta2 == meta
    assert set(arrays2) == set(arrays)
    for name in arrays:
        assert arrays[name].shape == arrays2[name].shape
        assert np.array_equal(
            arrays[name].view(np.uint64), arrays2[name].view(np.uint64)
        ), name  # bit-level, not just value-level


def test_rewrite_is_byte_identical():
    arrays, meta = sample_payload()
    data = write_snapshot(arrays, meta, seed=9)
    arrays2, meta2, seed = read_snapshot(data)
    assert write_snapshot(arrays2, meta2, seed=seed) == data


def test_entry_order_does_not_matter():
    arrays, meta = sample_payload()
    a_rev = dict(reversed(list(arrays.items())))
    m_rev = dict(reversed(list(meta.items())))
    assert write_snapshot(a_rev, m_rev, seed=1) == write_snapshot(arrays, meta, seed=1)


def test_bad_magic():
    data = write_snapshot({}, {"x": 1})
    with pytest.raises(SnapshotFormatError, match="magic"):
        read_snapshot(b"NOPE" + data[4:])


def test_bad_version():
    data = bytearray(write_snapshot({}, {"x": 1}))
    data[4] = 99
    with pytest.raises(SnapshotVersionError):
        read_snapshot(bytes(data))


def test_truncation_detected_everywhere():
    arrays, meta = sample_payload()
    data = write_snapshot(arrays, meta)
    for cut in (2, 10, len(data) // 2, len(data) - 1):
        with pytest.raises(SnapshotTruncatedError):
            read_snapshot(data[:cut])


def test_trailing_garbage_detected():
    data = write_snapshot({}, {"x": 1})
    with pytest.raises(SnapshotFormatError, match="trailing"):
        read_snapshot(data + b"\x00")


def test_name_collision_rejected():
    with pytest.raises(ValueError):
        write_snapshot({"x": np.zeros(2)}, {"x": 1})


def test_file_roundtrip(tmp_path):
    arrays, meta = sample_payload()
    path = tmp_path / "agent.cmca"
    path.write_bytes(write_snapshot(arrays, meta, seed=7))
    arrays2, meta2, seed = load_snapshot(path)
    assert seed == 7 and meta2 == meta
    assert np.array_equal(arrays2["weights"], arrays["weights"])


def _container(*entries):
    """A version-1 container made by hand from raw (name bytes, kind, body)
    entries, so that it can hold what ``write_snapshot`` never writes."""
    chunks = [b"CMCA", struct.pack("<IQ", 1, 0), struct.pack("<I", len(entries))]
    for name, kind, body in entries:
        chunks += [struct.pack("<HB", len(name), kind), name, body]
    return b"".join(chunks)


def test_a_name_that_is_not_utf8_is_a_format_error():
    data = _container((b"ok", 1, struct.pack("<I", 1) + b"1"),
                      (b"bad\xffname", 1, struct.pack("<I", 1) + b"1"))
    with pytest.raises(SnapshotFormatError, match="entry 1 name is not valid UTF-8"):
        read_snapshot(data)


@pytest.mark.parametrize("shape, error, match", [
    ((2**62, 4), SnapshotTruncatedError, "array 'w' data"),
    ((2**32, 2**32, 2**32), SnapshotTruncatedError, "array 'w' data"),
    ((2**64 - 1,), SnapshotTruncatedError, "array 'w' data"),
    ((0,) * 65, SnapshotFormatError, "array 'w' cannot take its shape"),
    ((0, 2**62), SnapshotFormatError, "array 'w' cannot take its shape"),
], ids=["shape0", "shape1", "shape2", "rank65", "too_big"])
def test_a_shape_past_int64_is_counted_exactly(shape, error, match):
    # np.prod would wrap the first to 0 items; the data is not there.  The
    # last two hold 0 items, but NumPy holds no more than 64 dimensions, nor
    # an array whose size passes its limit, zero items or not
    body = struct.pack(f"<B{len(shape)}Q", len(shape), *shape) + bytes(64)
    with pytest.raises(error, match=match):
        read_snapshot(_container((b"w", 0, body)))


def _layouts():
    """Arrays of each layout and dtype ``write_snapshot`` may be handed."""
    rng = np.random.default_rng(3)
    grid = rng.normal(size=(6, 5))
    return {
        "c_order": grid,
        "f_order": np.asfortranarray(grid),
        "sliced": grid[1::2, ::-2],
        "zero_d": np.asarray(2.5),
        "scalar": np.float64(-1.25),
        "empty": np.zeros((0, 4)),
        "empty_f": np.zeros((3, 0), order="F"),
        "float32": rng.normal(size=7).astype(np.float32),
        "big_endian": grid.astype(">f8"),
        "ints": np.arange(5),
    }


@pytest.mark.parametrize("name", sorted(_layouts()))
def test_write_matches_the_tobytes_reference(name):
    arrays = {name: _layouts()[name]}
    meta = {"step": 3}
    assert write_snapshot(arrays, meta, seed=5) == reference_snapshot.write_snapshot(
        arrays, meta, seed=5)


def test_write_matches_the_tobytes_reference_for_all_layouts_at_once():
    arrays, meta = _layouts(), {"nested": {"a": [1, 2]}}
    assert write_snapshot(arrays, meta) == reference_snapshot.write_snapshot(arrays, meta)


def test_read_arrays_own_their_data():
    arrays, meta = sample_payload()
    data = write_snapshot(arrays, meta)
    blob = np.frombuffer(data, np.uint8)
    for name, arr in read_snapshot(data)[0].items():
        assert arr.flags.owndata and arr.flags.writeable, name
        assert not np.shares_memory(arr, blob), name
    big = {"w": np.arange(2**17, dtype=float)}  # 1 MiB
    data = write_snapshot(big, {})
    tracemalloc.start()
    try:
        read_snapshot(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 2**20  # a bytes slice and then a copy took twice that
