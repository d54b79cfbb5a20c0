"""The benchmark's workloads and the closed loop that measures them.

One caller runs a workload's suite again and again with the same seed until
the time is spent; each run waits for the one before it.  The program gets
only the config and the seed, through the public runner entry points, with
an ``out`` directory as a user would give it.

End-to-end timings come from an ``OpClock`` that wraps only the operations a
user waits on (``Agent.cycle``, ``Agent.probe`` and, for recall, the start of
each list); no layer is wrapped.  Between ops the clock runs slices of the
workload's yardstick (see ``yardstick.py``), outside the ops' times, and the
end-to-end times of each run are scaled by the machine speed the slices
measured.  With tracing on, every second run also wraps the layers (see
``spans.py``) and runs no slices; the difference in unscaled run time
between the two kinds of run is the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from cogkit import memory, runner
from cogkit.agent import Agent
from cogkit.config import resolve

import spans
import yardstick

# CONTINUAL_CFG of tests/test_acceptance.py, shortened from 500 to 100
# training samples per task, 500 to 50 test samples and 3 to 2 epochs, so
# that several runs fit in one measurement.
CONTINUAL = dict(
    d=1024, sensory_hidden=(256,), sensory_K=30,
    sensory_eta_W=0.01, sensory_eta_E=0.01,
    mask_mode="blocks", mask_p=0.25, M_max=4, eta_c=0.02,
    theta="auto", theta_factor=2.25, context_window=32,
    motor_state_dim=128, motor_hidden=(), motor_K=20,
    motor_eta_W=0.05, motor_eta_E=0.05,
    gamma_d=0.0, eps_start=0.2, eps_end=0.02,
    route_wm_encode=False, route_dm_store=False, route_dm_retrieve=False,
    n_tasks=2, per_task_train=100, per_task_test=50, epochs=2,
    synthetic_per_class=900, readout="rl",
)

# RPS_CFG of tests/test_acceptance.py with the three route_* flags left at
# their schema default (on) and d=2048, so the memory write path runs on
# every cycle.  Rounds stay at 2000: late_payoff scores rounds 1000..2000
# while epsilon decays over half the run, so more rounds would change it.
RPS = dict(
    env="rps", rounds=2000, d=2048, sensory_hidden=(32,), sensory_K=10,
    motor_K=10, motor_state_dim=32, context_window=16, M_max=1,
    mask_p=1.0, theta=1e9, gamma_d=0.0, alpha_e=0.0,
    motor_eta_W=0.05, motor_eta_E=0.05,
)

# the acceptance recall parameters, with 2000 lists instead of 100
RECALL = dict(
    recall_d=2048, recall_rho=0.9, recall_lexicon=16,
    recall_list_len=7, recall_lists=2000,
)

CHECKPOINTS_PER_RUN = 3
# yardstick slices per block of ops scaled together in latency percentiles:
# 100 cycles of rps, 160 of continual, 100 recall lists
SLICES_PER_BLOCK = 20


def _continual_quality(summary):
    return {"acc": summary["ACC"], "forgetting": summary["forgetting"],
            "acc_last_task": summary["final"][-1]}


def _recall_quality(summary):
    return {"recall_cos_mean": float(np.mean(summary["mean_cosine"])),
            "recall_acc_mean": float(np.mean(summary["accuracy"]))}


@dataclass(frozen=True)
class Workload:
    config: dict
    run: Callable  # (cfg, seed, out) -> runner summary
    quality: Callable  # summary -> {name: value}
    floors: dict  # quality name -> lowest value a correct run reaches
    agent: bool  # ops are agent cycles (else recall lists)
    yardstick: Callable  # a function of yardstick.py
    slice_every: int  # ops per yardstick slice: slices take about 2% of the time


WORKLOADS = {
    "continual": Workload(
        CONTINUAL,
        lambda cfg, seed, out: runner.run_continual(cfg, seed=seed, out=out),
        _continual_quality,
        {"acc": 0.6, "acc_last_task": 0.9},
        agent=True,
        yardstick=yardstick.wide_layer,
        slice_every=8,
    ),
    "rps": Workload(
        RPS,
        lambda cfg, seed, out: runner.run_rps(cfg, seed=seed, out=out),
        lambda summary: {"late_payoff": summary["late_payoff"]},
        {"late_payoff": 0.4},
        agent=True,
        yardstick=yardstick.small_circuit,
        slice_every=5,
    ),
    "recall": Workload(
        RECALL,
        lambda cfg, seed, out: runner.run_recall(cfg, seed=seed, out=out),
        _recall_quality,
        {"recall_cos_mean": 0.3, "recall_acc_mean": 0.95},
        agent=False,
        yardstick=yardstick.cleanup_read,
        slice_every=5,
    ),
}


class OpClock:
    """Times the operations a user waits on, at their outer boundary only,
    and runs a yardstick slice after every ``every``-th cycle or list."""

    def __init__(self, slice_work, every):
        self.slice_work, self.every = slice_work, every
        self.reset()

    def reset(self, slicing=False):
        self.first = None  # start of the first operation: the end of set-up
        self.samples = {"cycles": [], "probes": []}  # seconds per call
        self.failed = {"cycles": 0, "probes": 0}
        self.list_starts = []  # start of each recall list
        self.list_ends = []  # end of each recall list but the last
        self.slicing = slicing
        self.slices = []  # seconds per yardstick slice
        self._since = 0  # ops since the last slice

    def _after_op(self):
        self._since += 1
        if self.slicing and self._since >= self.every:
            self._since = 0
            self.slices.append(yardstick.timed_slice(self.slice_work))

    def install(self, patches, agent_ops):
        if agent_ops:
            patches.wrap(Agent, "cycle", lambda fn: self._timed(fn, "cycles"))
            patches.wrap(Agent, "probe", lambda fn: self._timed(fn, "probes"))
        else:
            # run_recall starts every list with an empty buffer
            patches.wrap(memory.WorkingMemoryBuffer, "empty", self._list_start)

    def _timed(self, fn, kind):
        clock = time.perf_counter

        def timed(*args, **kwargs):
            t0 = clock()
            if self.first is None:
                self.first = t0
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.failed[kind] += 1
                raise
            finally:
                self.samples[kind].append(clock() - t0)
                if kind == "cycles":
                    self._after_op()

        return timed

    def _list_start(self, fn):
        def start(*args, **kwargs):
            if self.list_starts:  # the list before this one ends here
                self.list_ends.append(time.perf_counter())
                self._after_op()
            t0 = time.perf_counter()
            if self.first is None:
                self.first = t0
            self.list_starts.append(t0)
            return fn(*args, **kwargs)

        return start


@dataclass
class Run:
    """One suite run: its timings, outputs and checkpoint samples."""

    traced: bool
    wall_s: float = 0.0  # run plus checkpoints
    run_s: float = 0.0  # without the yardstick slices
    setup_s: float = 0.0
    ops: list = field(default_factory=list)  # seconds per op
    probes: list = field(default_factory=list)
    checkpoint_s: list = field(default_factory=list)
    slices: list = field(default_factory=list)  # yardstick slice seconds
    snapshot_bytes: int = 0
    snapshot_digest: str = ""
    digest: str = ""
    quality: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0  # of the process, by the end of this run
    ok: bool = False
    recruits: int = 0
    saturated: bool = False


class Tally:
    """Attempted and failed operations by kind, plus failed checks."""

    def __init__(self):
        self.attempted = {}
        self.failed = {}
        self.problems = []

    def count(self, kind, attempted, failed=0):
        self.attempted[kind] = self.attempted.get(kind, 0) + attempted
        self.failed[kind] = self.failed.get(kind, 0) + failed

    def check(self, ok, what):
        self.count("checks", 1, 0 if ok else 1)
        if not ok:
            self.problems.append(what)
            print(f"FAILED check: {what}", flush=True)

    def totals(self):
        return sum(self.attempted.values()), sum(self.failed.values())


def _one_run(work, cfg, seed, out, clock, tally, traced):
    run = Run(traced=traced)
    gc.collect()  # start each run from the same heap, whatever the last one left
    clock.reset(slicing=not traced)
    t0 = time.perf_counter()
    try:
        summary = work.run(cfg, seed, out)
        run.ok = True
    except Exception:
        traceback.print_exc()
    end = time.perf_counter()
    run.slices = clock.slices
    run.run_s = end - t0 - sum(run.slices)
    run.setup_s = (clock.first - t0) if clock.first is not None else run.run_s
    if work.agent:
        run.ops, run.probes = clock.samples["cycles"], clock.samples["probes"]
        for kind, samples in clock.samples.items():
            tally.count(kind, len(samples), clock.failed[kind])
    else:
        starts = clock.list_starts
        run.ops = [b - a for a, b in zip(starts, clock.list_ends + [end])]
        length = cfg["recall_list_len"]
        failed = 1 if not run.ok and starts else 0
        tally.count("recalls", length * len(starts), length * failed)
    if not run.ok:
        return run
    run.digest = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
    run.quality = work.quality(summary)
    if work.agent:
        agent = summary["agent"]
        run.recruits, run.saturated = agent.gate.active_count, agent.gate.saturated
        failed = 0
        for i in range(CHECKPOINTS_PER_RUN):
            t = time.perf_counter()
            try:
                blob = agent.snapshot()
                twin = Agent.restore(blob)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            run.checkpoint_s.append(time.perf_counter() - t)
            run.snapshot_bytes = len(blob)
            if i == 0:
                run.snapshot_digest = hashlib.sha256(blob).hexdigest()
                tally.check(twin.snapshot() == blob,
                            "Agent.restore(b).snapshot() != b for the trained agent")
        tally.count("checkpoints", CHECKPOINTS_PER_RUN, failed)
    return run


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(name, seed, seconds, trace, out_root):
    """Run workload ``name`` for about ``seconds``; return the report dict.

    With ``trace`` the runs alternate untraced and traced, starting
    untraced, and the report carries the per-layer metrics.
    """
    work = WORKLOADS[name]
    cfg = resolve(work.config)
    out_dir = out_root / name
    if out_dir.exists():
        shutil.rmtree(out_dir)
    tally = Tally()
    tracer = spans.Tracer()
    clock = OpClock(work.yardstick, work.slice_every)
    runs = []
    least = 4 if trace else 2
    start, cpu = time.perf_counter(), time.process_time()
    with spans.Patches() as outer:
        clock.install(outer, work.agent)
        while True:
            traced = bool(trace) and len(runs) % 2 == 1
            out = out_dir / f"run{len(runs)}"
            t = time.perf_counter()
            if traced:
                with spans.Patches() as inner:
                    tracer.install(inner)
                    run = _one_run(work, cfg, seed, out, clock, tally, traced)
                if tracer.runs == 0:
                    tracer.write_spans(out_dir / "spans.csv")
                tracer.fold()
            else:
                run = _one_run(work, cfg, seed, out, clock, tally, traced)
            run.wall_s = time.perf_counter() - t
            run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            runs.append(run)
            elapsed = time.perf_counter() - start
            typical = _median([r.wall_s for r in runs])
            if len(runs) >= least and elapsed + typical / 2 > seconds:
                break

    elapsed = time.perf_counter() - start
    cpu_share = (time.process_time() - cpu) / elapsed
    done = [r for r in runs if r.ok]
    tally.check(len(done) == len(runs), f"{len(runs) - len(done)} of {len(runs)} runs raised")
    ref = done[0] if done else None
    for r in done[1:]:
        tally.check(r.digest == ref.digest,
                    f"metrics.csv sha256 differs between runs of seed {seed} "
                    f"({'traced' if r.traced else 'untraced'} run)")
        tally.check(r.quality == ref.quality, "quality differs between runs of one seed")
        tally.check(r.snapshot_digest == ref.snapshot_digest,
                    "trained agent's snapshot differs between runs of one seed")
    if ref is not None:
        for key, floor in work.floors.items():
            tally.check(ref.quality[key] >= floor,
                        f"{key} = {ref.quality[key]:.4f} below its floor {floor}")

    # a run that raised still took its time, so it stays in the timings
    plain = [r for r in runs if not r.traced]
    traced_runs = [r for r in done if r.traced]
    e2e = _end_to_end(work, cfg, plain)
    e2e["unscaled"] = _end_to_end(work, cfg, plain, scaled=False)
    layers = {}
    if trace:
        layers = tracer.metrics()
        last = traced_runs[-1] if traced_runs else Run(traced=True)
        layers["gate.recruits"] = last.recruits
        layers["gate.saturated"] = int(last.saturated)
        layers["snapshot.bytes"] = last.snapshot_bytes
        base = _median([r.run_s for r in plain])
        traced_s = _median([r.run_s for r in traced_runs])
        layers["bench.trace_overhead_frac"] = (traced_s - base) / base if base else 0.0
        e2e["top_self"] = [(name, sec, sec / traced_s if traced_s else 0.0)
                           for name, sec in tracer.top_self()]
    attempted, failed = tally.totals()
    e2e["failed_frac"] = failed / attempted if attempted else 0.0
    return {
        "correct": not tally.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "e2e": e2e,
        "layers": layers,
        "quality": ref.quality if ref else {},
        "digest": ref.digest if ref else "",
        "runs": {"untraced": len(plain), "traced": len(traced_runs),
                 "seconds": elapsed, "cpu_share": cpu_share},
        "tally": {k: (tally.attempted[k], tally.failed[k]) for k in tally.attempted},
    }


def speed_factor(work, run):
    """The yardstick's nominal slice time over its mean slice time in ``run``:
    the factor that turns the run's times into reference-box times."""
    if not run.slices:
        return 1.0
    return yardstick.NOMINAL_S[work.yardstick] / statistics.fmean(run.slices)


def op_factors(work, run):
    """A speed factor per op of ``run``.  The box can change state within a
    run, so the ops are taken in blocks of ``SLICES_PER_BLOCK`` slices'
    worth, and each block is scaled by the slices taken within it."""
    n = len(run.ops)
    if not run.slices:
        return np.ones(n)
    slices = np.asarray(run.slices)
    block = SLICES_PER_BLOCK * work.slice_every  # ops per block
    nominal = yardstick.NOMINAL_S[work.yardstick]
    factors = np.empty(n)
    for b, start in enumerate(range(0, n, block)):
        taken = slices[b * SLICES_PER_BLOCK:(b + 1) * SLICES_PER_BLOCK]
        factors[start:start + block] = nominal / (taken.mean() if taken.size else slices.mean())
    return factors


def _end_to_end(work, cfg, runs, scaled=True):
    """End-to-end metrics from untraced runs: medians over runs, and
    latency percentiles over every op of every run.  With ``scaled`` every
    time is first multiplied by its run's ``speed_factor``, and every op
    time by its block's factor from ``op_factors``."""
    m = {"runs": len(runs)}
    k = [speed_factor(work, r) if scaled else 1.0 for r in runs]
    m["speed_factor"] = _median(k)
    ops = np.concatenate([np.asarray(r.ops) * (op_factors(work, r) if scaled else 1.0)
                          for r in runs] or [np.empty(0)])
    busy = [f * (r.run_s - r.setup_s - sum(r.probes)) for r, f in zip(runs, k)]
    m["setup_s"] = _median([f * r.setup_s for r, f in zip(runs, k)])
    m["run_s"] = _median([f * r.run_s for r, f in zip(runs, k)])
    m["ops_per_s"] = _median([len(r.ops) / b for r, b in zip(runs, busy) if b > 0])
    for q in (50, 90, 99):
        m[f"op_ms.p{q}"] = 1e3 * float(np.percentile(ops, q)) if ops.size else 0.0
    m["ops"] = int(ops.size)
    # The process's high-water mark after several runs varied by 10% from
    # one invocation to the next; after the first run it is steady, and a
    # process that runs one suite is how a user runs it.
    m["peak_rss_mb"] = runs[0].peak_rss_mb
    if work.agent:
        m["checkpoint_ms"] = 1e3 * _median([f * t for r, f in zip(runs, k)
                                            for t in r.checkpoint_s])
        probes = [len(r.probes) / (f * sum(r.probes)) for r, f in zip(runs, k) if r.probes]
        if probes:
            m["probes_per_s"] = _median(probes)
    else:
        m["recalls_per_s"] = m["ops_per_s"] * cfg["recall_list_len"]
    return m
