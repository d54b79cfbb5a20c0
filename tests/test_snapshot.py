import numpy as np
import pytest

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
