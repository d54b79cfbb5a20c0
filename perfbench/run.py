"""cogkit benchmark: one workload, one process, one caller in a closed loop.

    python3 perfbench/run.py --workload continual --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file, with BLAS pinned to one thread.  Workloads and metric
names are listed in ``BENCHMARK.json``; why each workload exists is in
``perfbench/NOTES.md``.

Standard output carries the machine record, every end-to-end metric that
applies to the workload by name and unit (times scaled to the reference box
by ``yardstick.py``, each followed by its unscaled value), the output checks
that failed,
and, with ``--trace 1``, the per-layer metrics and the layers with the most
self time.  Its last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The exit code is 0 when every check passed, 1 when one
failed and 2 when the program could not be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("continual", "rps", "recall")

# end-to-end times printed by name, on the workloads where they apply
DETAIL_UNITS = {
    "setup_s": "s", "run_s": "s", "cycles_per_s": "1/s", "cycle_ms.p50": "ms",
    "cycle_ms.p99": "ms", "probes_per_s": "1/s", "recalls_per_s": "1/s",
    "checkpoint_ms": "ms",
}
# the rest printed by name, with no unscaled twin
OTHER_UNITS = {
    "peak_rss_mb": "MB", "failed_frac": "fraction", "acc": "fraction",
    "forgetting": "fraction", "acc_last_task": "fraction", "late_payoff": "payoff",
    "recall_cos_mean": "cosine", "recall_acc_mean": "fraction",
}


def _detail(e2e, workload):
    """``e2e`` plus the per-cycle names of the agent workloads' ops."""
    detail = dict(e2e)
    if workload != "recall":
        detail["cycles_per_s"] = e2e["ops_per_s"]
        detail["cycle_ms.p50"] = e2e["op_ms.p50"]
        detail["cycle_ms.p99"] = e2e["op_ms.p99"]
    return detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_record(np):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def run_all(args):
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        print(f"== {name} (exit {proc.returncode})")
        print(proc.stdout, end="", flush=True)
        code = max(code, proc.returncode)
        if proc.returncode == 2:
            return 2  # the program could not be imported: no result
        lines = proc.stdout.strip().splitlines()
        if not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged))
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before NumPy loads BLAS
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy as np
        import cogkit
    except ImportError as exc:
        print(f"perfbench: cannot import cogkit from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(cogkit.__file__).resolve().parent != src / "cogkit":
        print(f"perfbench: cogkit came from {cogkit.__file__}, not {src}", file=sys.stderr)
        return 2
    import suites

    record = machine_record(np)
    record["loadavg_before"] = os.getloadavg()
    report = suites.measure(args.workload, args.seed % 2**32, args.seconds,
                            args.trace, OUT)
    record["loadavg_after"] = os.getloadavg()
    print("machine " + json.dumps(record))
    print("runs " + json.dumps({"seed": args.seed, **report["runs"],
                                "operations": report["tally"],
                                "metrics_sha256": report["digest"]}))

    e2e = report["e2e"]
    scaled = _detail(e2e, args.workload)
    wall = _detail(e2e["unscaled"], args.workload)
    print(f"end-to-end ({e2e.get('runs')} untraced runs, {e2e.get('ops')} ops): "
          f"times scaled to the reference box (median speed factor "
          f"{e2e['speed_factor']:.4g}), then unscaled wall-clock times")
    for name, unit in DETAIL_UNITS.items():
        if scaled.get(name) is not None:
            print(f"  {name:<18} {scaled[name]:>14.6g} {unit:<3} {wall[name]:>14.6g} {unit}")
    other = dict(report["quality"], peak_rss_mb=e2e["peak_rss_mb"],
                 failed_frac=e2e["failed_frac"])
    for name, unit in OTHER_UNITS.items():
        if name in other:
            print(f"  {name:<18} {other[name]:>14.6g} {unit}")

    if args.trace:
        layers = report["layers"]
        section = spec["per_layer"]
        print(f"per-layer (per suite run, {report['runs']['traced']} traced runs)")
        for m in section:
            print(f"  {m['name']:<32} {layers[m['name']]:>14.6g} {m['unit']}")
        print("top self time per traced run: " + ", ".join(
            f"{name} {sec:.3g} s ({share:.0%})" for name, sec, share in e2e["top_self"]))
        values = layers
    else:
        section = spec["end_to_end"]
        values = e2e
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
