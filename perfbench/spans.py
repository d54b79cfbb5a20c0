"""Span tracing for the traced benchmark run.

The tracer wraps the public functions of each cogkit layer from outside the
package: every caller in cogkit looks these names up through their module or
class at call time, so replacing the attribute is enough and no source file
changes.  Each call becomes a span ``[name, start, end, parent, note]``; the
parent index gives self time (a span's duration minus what its child spans
cover).  Spans stay in memory while a suite run executes and are folded into
per-layer totals after it.
"""

from __future__ import annotations

import csv
import statistics
import time
from collections import defaultdict

from cogkit import agent, envs, gate, hrr, memory, motor, ngc, runner, snapshot


class Patches:
    """Replaces attributes of modules and classes and puts the originals back."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, name, make):
        raw = vars(owner)[name]  # a KeyError here means cogkit moved the name
        wrapped = make(getattr(owner, name))
        if isinstance(raw, (classmethod, staticmethod)):
            # getattr already bound the class; keep the wrapper unbound
            wrapped = staticmethod(wrapped)
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, raw))

    def restore(self):
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _settle_args(circuit, clamps=None, mask=None, init=None, pin0=None):
    return circuit, clamps or {}, mask or {}


def _settle_note(*args, **kwargs):
    """(iterations, flops, redundant, masked units, gated-off units) of one
    ``ngc.settle`` call, from the circuit sizes and K.

    FLOPs count the matrix-vector products only: one prediction pass per
    layer before the loop and after each of the K steps, plus one feedback
    product per free hidden layer and step.  A settle is redundant when every
    hidden layer is clamped: its K steps then recompute the same prediction.
    """
    circuit, clamps, mask = _settle_args(*args, **kwargs)
    sizes, L, K = circuit.sizes, circuit.L, circuit.K
    pairs = [2 * sizes[ell - 1] * sizes[ell] for ell in range(1, L + 1)]
    free = [p for ell, p in zip(range(1, L + 1), pairs) if ell not in clamps]
    moving = K if circuit.beta != 0.0 else 0
    flops = (K + 1) * sum(pairs) + moving * sum(free)
    units = sum(len(g) for g in mask.values())
    off = sum(int((g == 0).sum()) for g in mask.values())
    return K, flops, not free, units, off


def targets():
    """(span name, owner, attribute, note) for every wrapped layer function."""
    Agent = agent.Agent
    return [
        ("ngc.settle", ngc, "settle", _settle_note),
        ("ngc.update_weights", ngc, "update_weights", None),
        ("motor.q_values", motor.MotorCircuit, "q_values", None),
        ("motor.learn", motor.MotorCircuit, "learn", None),
        ("gate.select_or_recruit", gate.CompetitiveGate, "select_or_recruit", None),
        ("gate.match", gate.CompetitiveGate, "match", None),
        ("memory.wm_encode", memory, "wm_encode", None),
        ("memory.dm_store", memory, "dm_store", None),
        ("memory.dm_retrieve", memory, "dm_retrieve", None),
        ("memory.wm_recall", memory, "wm_recall", None),
        ("hrr.cleanup", hrr, "cleanup", None),
        ("hrr.permute", hrr, "permute", None),
        ("hrr.cosine", hrr, "cosine", None),
        ("agent.cycle", Agent, "cycle", None),
        ("agent.perceive", Agent, "perceive", None),
        ("agent.probe", Agent, "probe", None),
        ("agent.rollback", Agent, "_rollback", None),
        ("agent.init", Agent, "__init__", None),
        ("agent.snapshot", Agent, "snapshot", None),
        ("agent.restore", Agent, "restore", None),
        ("snapshot.write", snapshot, "write_snapshot", None),
        ("snapshot.read", snapshot, "read_snapshot", None),
        # the runner imported these names itself, so patch its copies
        ("data.synthetic", runner, "make_synthetic_digits", None),
        ("runner.calibrate_theta", runner, "calibrate_theta", None),
        ("envs.step", envs.RpsEnv, "step", None),
    ]


class Tracer:
    """Records spans while installed and folds them into per-layer totals."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.runs = 0
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.settle = defaultdict(float)

    def _traced(self, name, fn, note):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1,
                   note(*args, **kwargs) if note else None]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()

        return traced

    def install(self, patches):
        for name, owner, attr, note in targets():
            patches.wrap(owner, attr, lambda fn, n=name, c=note: self._traced(n, fn, c))

    def fold(self):
        """Add the spans of one finished suite run to the totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, note) in enumerate(spans):
            if name == "agent.init" and parent >= 0 and spans[parent][0] == "agent.restore":
                name = "agent.init.in_restore"
            dur = end - start
            self.calls[name] += 1
            self.busy[name] += dur
            self.self_time[name] += dur - child[i]
            self.durations[name].append(dur)
            if note is not None:
                iters, flops, redundant, units, off = note
                s = self.settle
                s["iters"] += iters
                s["flops"] += flops
                s["redundant"] += redundant
                s["redundant_busy"] += dur if redundant else 0.0
                s["units"] += units
                s["off"] += off
        self.runs += 1
        spans.clear()
        self._open.clear()

    def write_spans(self, path):
        """Write the spans recorded since the last fold as CSV."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                out.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent])

    def metrics(self):
        """Per-layer metrics; counts and times are per suite run."""
        runs = max(self.runs, 1)
        calls, busy, own, s = self.calls, self.busy, self.self_time, self.settle

        def p50_ms(name):
            d = self.durations.get(name)
            return 1e3 * statistics.median(d) if d else 0.0

        def share(num, den):
            return num / den if den else 0.0

        m = {}
        for name in ("ngc.settle", "ngc.update_weights", "motor.q_values", "motor.learn",
                     "gate.match", "memory.wm_encode", "memory.dm_store",
                     "memory.dm_retrieve", "memory.wm_recall", "hrr.cleanup",
                     "hrr.permute", "hrr.cosine", "agent.cycle", "agent.probe"):
            m[f"{name}.calls"] = calls[name] / runs
            m[f"{name}.busy_s"] = busy[name] / runs
        for name in ("ngc.settle", "ngc.update_weights"):
            m[f"{name}.ms_p50"] = p50_ms(name)
        m["ngc.settle.iters"] = s["iters"] / runs
        m["ngc.settle.gflop"] = s["flops"] / 1e9 / runs
        m["ngc.settle.redundant_frac"] = share(s["redundant"], calls["ngc.settle"])
        m["ngc.settle.redundant_busy_frac"] = share(s["redundant_busy"], busy["ngc.settle"])
        m["ngc.settle.gated_off_frac"] = share(s["off"], s["units"])
        m["gate.select_or_recruit.busy_s"] = busy["gate.select_or_recruit"] / runs
        for name in ("agent.cycle", "agent.perceive", "agent.probe"):
            m[f"{name}.self_s"] = own[name] / runs
        m["agent.rollbacks"] = calls["agent.rollback"] / runs
        m["snapshot.write_ms"] = 1e3 * share(busy["agent.snapshot"], calls["agent.snapshot"])
        m["snapshot.read_ms"] = 1e3 * share(busy["agent.restore"], calls["agent.restore"])
        m["snapshot.restore_init_frac"] = share(busy["agent.init.in_restore"],
                                                busy["agent.restore"])
        m["data.synthetic_s"] = busy["data.synthetic"] / runs
        m["runner.calibrate_theta_s"] = busy["runner.calibrate_theta"] / runs
        m["agent.init_s"] = busy["agent.init"] / runs
        m["envs.step.busy_s"] = busy["envs.step"] / runs
        return m

    def top_self(self, n=5):
        """The ``n`` spans with the most self time, as (name, seconds per run)."""
        ranked = sorted(self.self_time.items(), key=lambda kv: -kv[1])[:n]
        return [(name, t / max(self.runs, 1)) for name, t in ranked]
