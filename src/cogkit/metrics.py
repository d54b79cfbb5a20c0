"""Append-only metrics rows, their CSV, and run metadata.

Rows are ``step,task,metric,value`` with deterministic float formatting
(shortest round-trip repr), so identical runs produce identical bytes.  The
writer flushes on request so an interrupted run still leaves a valid prefix.
"""

from __future__ import annotations

import numbers


def format_value(value):
    if hasattr(value, "item"):  # numpy scalar -> python scalar
        value = value.item()
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return repr(float(value))


class MetricsWriter:
    """Keeps every row in ``rows`` and, given a path, mirrors them to a CSV."""

    HEADER = "step,task,metric,value\n"

    def __init__(self, path=None):
        self.rows = []
        self._fh = None
        if path:
            self._fh = open(path, "w", encoding="utf-8", newline="\n")
            self._fh.write(self.HEADER)
        self._last_step = None

    def write(self, step, task, metric, value):
        step = int(step)
        if self._last_step is not None and step < self._last_step:
            raise ValueError(f"step went backwards: {step} after {self._last_step}")
        self._last_step = step
        if "," in str(metric):
            raise ValueError(f"metric name {metric!r} contains a comma")
        self.rows.append((step, int(task), metric, value))
        if self._fh:
            self._fh.write(f"{step},{int(task)},{metric},{format_value(value)}\n")

    def flush(self):
        if self._fh:
            self._fh.flush()

    def close(self):
        if self._fh:
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def write_metadata(path, seed, cfg_hash, wall_time_s, extra=None):
    """Key=value run metadata (the only place wall time is allowed)."""
    lines = [f"seed = {int(seed)}", f"config_hash = {cfg_hash}",
             f"wall_time_s = {wall_time_s:.3f}"]
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

