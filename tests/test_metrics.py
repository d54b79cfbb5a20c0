"""Metrics CSV byte determinism and run metadata."""

import numpy as np
import pytest

from cogkit.metrics import MetricsWriter, format_value, write_metadata


def test_format_value():
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(3) == "3"
    assert format_value(np.int64(3)) == "3"
    assert format_value(0.5) == "0.5"
    assert format_value(np.float64(0.5)) == "0.5"
    # shortest round-trip repr keeps every bit
    assert format_value(0.1 + 0.2) == "0.30000000000000004"
    assert float(format_value(1 / 3)) == 1 / 3


def test_rows_and_header_bytes(tmp_path):
    path = tmp_path / "metrics.csv"
    with MetricsWriter(path) as w:
        w.write(0, 0, "accuracy", 0.5)
        w.write(10, -1, "ACC", 0.75)
        w.write(10, 0, "success", True)
    expected = (
        "step,task,metric,value\n"
        "0,0,accuracy,0.5\n"
        "10,-1,ACC,0.75\n"
        "10,0,success,1\n"
    ).encode()
    assert path.read_bytes() == expected
    assert w.rows == [(0, 0, "accuracy", 0.5), (10, -1, "ACC", 0.75), (10, 0, "success", True)]


def test_writer_without_a_path_keeps_rows():
    with MetricsWriter() as w:
        w.write(0, 0, "x", 1.0)
        w.write(1, 0, "x", 2.0)
        w.flush()
        with pytest.raises(ValueError, match="backwards"):
            w.write(0, 0, "x", 3.0)
    assert w.rows == [(0, 0, "x", 1.0), (1, 0, "x", 2.0)]


def test_identical_runs_identical_bytes(tmp_path):
    rows = [(i, i % 2, "m", 0.1 * i) for i in range(20)]
    paths = []
    for name in ("a.csv", "b.csv"):
        p = tmp_path / name
        with MetricsWriter(p) as w:
            for row in rows:
                w.write(*row)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_step_must_not_decrease(tmp_path):
    with MetricsWriter(tmp_path / "m.csv") as w:
        w.write(5, 0, "x", 1)
        w.write(5, 0, "x", 2)  # equal is fine
        with pytest.raises(ValueError, match="backwards"):
            w.write(4, 0, "x", 3)


def test_comma_in_metric_name_rejected(tmp_path):
    with MetricsWriter(tmp_path / "m.csv") as w:
        with pytest.raises(ValueError, match="comma"):
            w.write(0, 0, "a,b", 1)


def test_flush_leaves_valid_prefix(tmp_path):
    path = tmp_path / "m.csv"
    w = MetricsWriter(path)
    w.write(0, 0, "x", 1)
    w.flush()
    text = path.read_text()
    assert text == "step,task,metric,value\n0,0,x,1\n"
    w.close()


def test_metadata_file(tmp_path):
    path = tmp_path / "metadata.txt"
    write_metadata(path, seed=7, cfg_hash="ab" * 32, wall_time_s=1.23456,
                   extra={"command": "continual"})
    lines = path.read_text().splitlines()
    assert lines[0] == "seed = 7"
    assert lines[1] == "config_hash = " + "ab" * 32
    assert lines[2] == "wall_time_s = 1.235"
    assert lines[3] == "command = continual"
