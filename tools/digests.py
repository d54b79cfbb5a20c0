"""Print digests that show whether a change moved any output bytes.

    python tools/digests.py [--src DIR] [--seeds 1,2,3] [CONFIG ...]

Runs each config at each seed and prints one line per run:

    <config> seed=<seed> metrics=<sha256 of metrics.csv> snapshot=<sha256> <quality>

where ``snapshot`` is the sha256 of the trained agent's ``snapshot()``, or
``-`` for a run with no agent, and ``<quality>`` the run's quality numbers
as ``name=value`` words: ACC and forgetting (continual), late_payoff (rps),
success_rate (maze) or recall_acc_mean (recall), so a diff of two checkouts
shows what each moved line did to learning.  The configs are the acceptance
suite's (``tests/test_acceptance.py``: continual gated and ungated, rps, maze), its
continual with a supervised readout (``readout="supervised"``, the only
config that runs ``Agent.supervised_step`` and the motor head's
regression), its rps with a motor head of one hidden layer (``motor_hidden=(8,)``, the only
config whose motor head settles) and the benchmark's
(``perfbench/suites.py``: continual, rps, recall), imported from those
files, and the benchmark's continual with random masks
(``mask_mode="random"``, the schema default), whose scattered open units
the update reaches through index arrays, and a short continual run of the
schema's own circuit (``default-shape-continual``: two masked, clipped
hidden layers of 360 with random masks), the only config that masks a
layer above the first; names on the command line pick a subset.  Runs
write to a temporary directory that is removed afterwards.

``--src`` picks the cogkit source to run (``src`` of this checkout by
default), so two checkouts compare as

    python tools/digests.py --src ../parent/src > parent.txt
    python tools/digests.py > change.txt && diff parent.txt change.txt

BLAS runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def runs():
    """Config name -> run(seed, out), which returns the runner's summary."""
    from cogkit import runner
    from cogkit.config import resolve

    # both files import their siblings by name, as their own runners do
    for folder in ("tests", "perfbench"):
        if str(ROOT / folder) not in sys.path:
            sys.path.insert(0, str(ROOT / folder))
    acc = importlib.import_module("test_acceptance")
    suites = importlib.import_module("suites")
    table = {
        "acceptance-continual": lambda seed, out: runner.run_continual(
            acc.CONTINUAL_CFG, seed=seed, out=out),
        "acceptance-continual-ungated": lambda seed, out: runner.run_continual(
            acc.CONTINUAL_CFG, seed=seed, out=out, ungated=True),
        "acceptance-continual-supervised": lambda seed, out: runner.run_continual(
            {**acc.CONTINUAL_CFG, "readout": "supervised"}, seed=seed, out=out),
        "acceptance-rps": lambda seed, out: runner.run_rps(acc.RPS_CFG, seed=seed, out=out),
        "acceptance-rps-motor-hidden": lambda seed, out: runner.run_rps(
            {**acc.RPS_CFG, "motor_hidden": (8,)}, seed=seed, out=out),
        "acceptance-maze": lambda seed, out: runner.run_maze(acc.MAZE_CFG, seed=seed, out=out),
    }
    for name, work in suites.WORKLOADS.items():
        table[f"bench-{name}"] = (lambda seed, out, work=work, cfg=resolve(work.config):
                                  work.run(cfg, seed, out))
    continual = suites.WORKLOADS["continual"]
    table["bench-continual-random-masks"] = (
        lambda seed, out, cfg=resolve({**continual.config, "mask_mode": "random"}):
        continual.run(cfg, seed, out))
    table["default-shape-continual"] = (
        lambda seed, out, cfg=resolve(dict(n_tasks=2, per_task_train=40, per_task_test=40,
                                           epochs=1, synthetic_per_class=100)):
        runner.run_continual(cfg, seed=seed, out=out))
    return table


def digest_line(name, run, seed, out):
    """The line for one run of config ``name`` at ``seed``, written to ``out``."""
    summary = run(seed, out)
    metrics = hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest()
    agent = summary.get("agent")
    snap = "-" if agent is None else hashlib.sha256(agent.snapshot()).hexdigest()
    return f"{name} seed={seed} metrics={metrics} snapshot={snap} {quality(summary)}"


def quality(summary):
    """The quality numbers of a runner's ``summary`` as ``name=value`` words."""
    values = {key: summary[key] for key in ("ACC", "forgetting", "late_payoff", "success_rate")
              if key in summary}
    if "accuracy" in summary:  # recall: one accuracy per list position
        values["recall_acc_mean"] = summary["accuracy"].mean()
    return " ".join(f"{key}={value:.4f}" for key, value in values.items())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="*", help="config names (default: all)")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="cogkit source to run")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before NumPy loads BLAS
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import cogkit

    if Path(cogkit.__file__).resolve().parent != src / "cogkit":
        raise SystemExit(f"cogkit came from {cogkit.__file__}, not {src}")
    table = runs()
    unknown = sorted(set(args.configs) - set(table))
    if unknown:
        raise SystemExit(f"unknown configs {unknown}; known: {', '.join(table)}")
    seeds = [int(s) for s in args.seeds.split(",")]
    with tempfile.TemporaryDirectory(prefix="cogkit-digests-") as tmp:
        for name in args.configs or table:
            for seed in seeds:
                out = Path(tmp) / name / str(seed)
                print(digest_line(name, table[name], seed, out), flush=True)


if __name__ == "__main__":
    main()
