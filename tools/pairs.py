"""Compare two checkouts on one benchmark workload in alternating pairs.

    python tools/pairs.py --parent DIR --change DIR --workload W \\
        [--pairs 10] [--seconds 10] [--seed 29] [--bench-out FILE]

``DIR`` is the root of a checkout.  Give the two commits checkouts whose
paths have the same length, for example ``../p0`` and ``../c0`` made with
``git archive <commit> | tar -x -C ../p0`` (and the same into ``../c0``):
the path enters ``argv``, ``sys.path`` and every module's file name, and two
copies of one commit whose paths differed in length have read recall about
5% apart.  The tool warns when the two resolved paths differ in length, and
runs each checkout by its resolved path.  Each pair runs each checkout's own
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once, and
the side that runs first alternates from pair to pair, so a drift in the
machine's speed falls on both sides alike.  Every run replaces its
checkout's git-ignored ``perfbench/out/<workload>``.

Each run's last output line is read as the benchmark's JSON result.  A run
that exits non-zero, ends in no JSON object or reports ``correct: false``
stops the tool with exit code 1.

Then, for each end-to-end metric of the change's ``BENCHMARK.json``, one line:

    <metric> parent <median> [<q1>, <q3>] change <median> <relative change>
    won <pairs the change won>/<pairs>

A pair is won when the change's value is better by the metric's ``better``,
and lost when it is worse; a tie counts for neither side.  A metric whose
change median is worse than the parent's median by more than ``bound``
times the parent's median is marked ``OVER BOUND``.  A metric is marked
``CLAIMABLE`` when the change won at least nine tenths of the pairs and its
median is better than the parent's by more than the parent's interquartile
range (q3 - q1) and by more than 1% of the parent's median: the rule for
claiming a gain.  It is marked ``WORSE``, the mirror of that rule, when the
change lost at least nine tenths of the pairs and its median is worse than
the parent's by more than that range and that 1%: a loss too steady to be
noise, however far inside the bound.  The 1% floor keeps a metric whose runs
barely spread, such as ``peak_rss_mb``, from being marked for a move too
small to matter.

``--bench-out FILE`` also writes the pairs to ``FILE`` as JSON: the machine
record of the first run (its load averages left out), each side's runs in
pair order, each with its metrics, its ``metrics_sha256`` and the quality
lines ``run.py`` printed, and the summary rows.
Standard library only, so it runs in any checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

FLOOR = 0.01  # the least median gap, as a fraction of the parent's median, that is marked


# lines run.py prints beside the quality numbers, with no unscaled twin
NOT_QUALITY = ("peak_rss_mb", "failed_frac")


def run_once(checkout, workload, seconds, seed):
    """One ``--trace 0`` run of ``checkout``'s benchmark: its ``metrics``
    (name -> value), its ``machine`` record and ``metrics_sha256``, and its
    ``quality`` lines as ``run.py`` printed them."""
    cmd = [sys.executable, str(Path(checkout) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if done.returncode or not isinstance(result, dict) or result.get("correct") is not True:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{checkout}: the {workload} run failed (exit {done.returncode})")
    printed = dict(line.split(" ", 1) for line in lines if line.startswith(("machine ", "runs ")))
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "machine": json.loads(printed["machine"]),
            "metrics_sha256": json.loads(printed["runs"])["metrics_sha256"],
            "quality": [line.strip() for line in lines if line.startswith("  ")
                        and len(line.split()) == 3 and line.split()[0] not in NOT_QUALITY]}


def quartiles(values):
    """(q1, median, q3) of ``values``, the quartiles taken inclusively."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(parent, change, metrics):
    """One row per metric of ``metrics`` (``BENCHMARK.json``'s ``end_to_end``)
    from ``parent`` and ``change``, lists of per-run metric values in pair order."""
    rows = []
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        q1, p_med, q3 = quartiles(p)
        c_med = statistics.median(c)
        rel = (c_med - p_med) / p_med if p_med else 0.0
        gap = sign * (c_med - p_med)  # > 0 when the change's median is better
        margin = max(q3 - q1, FLOOR * abs(p_med))
        won = sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c))
        lost = sum(sign * (cv - pv) < 0 for pv, cv in zip(p, c))
        rows.append({
            "name": name, "unit": m["unit"], "parent": p_med, "q1": q1, "q3": q3,
            "change": c_med, "rel": rel, "won": won, "pairs": len(p),
            "over_bound": -sign * rel > m["bound"],
            "claimable": 10 * won >= 9 * len(p) and gap > margin,
            "worse": 10 * lost >= 9 * len(p) and -gap > margin,
        })
    return rows


def format_row(row):
    return (f"{row['name']:<12} parent {row['parent']:.4g} [{row['q1']:.4g}, {row['q3']:.4g}] "
            f"change {row['change']:.4g} {row['unit']} {row['rel']:+.1%} "
            f"won {row['won']}/{row['pairs']}" + ("  OVER BOUND" if row["over_bound"] else "")
            + ("  CLAIMABLE" if row["claimable"] else "") + ("  WORSE" if row["worse"] else ""))


def parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--seed", type=int, default=29)
    p.add_argument("--bench-out", metavar="FILE", type=Path)
    return p


def path_warning(parent, change):
    """A warning when the resolved paths of the checkouts ``parent`` and
    ``change`` differ in length, else None."""
    if len(str(parent)) == len(str(change)):
        return None
    return (f"warning: the parent's path {parent} ({len(str(parent))} characters) and the "
            f"change's {change} ({len(str(change))}) differ in length, which alone can move "
            "a metric by several percent; use checkouts whose paths have equal length")


def main(argv=None):
    args = parser().parse_args(argv)
    args.parent, args.change = Path(args.parent).resolve(), Path(args.change).resolve()
    warning = path_warning(args.parent, args.change)
    if warning:
        print(warning, file=sys.stderr)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            checkout = getattr(args, side)
            runs[side].append(run_once(checkout, args.workload, args.seconds, args.seed))
    print(f"{args.workload}: {args.pairs} pairs, seed {args.seed}, {args.seconds:g} s each")
    rows = summarise(*([run["metrics"] for run in runs[side]] for side in ("parent", "change")),
                     spec["end_to_end"])
    for row in rows:
        print(format_row(row))
    if args.bench_out:
        machine = {k: v for k, v in runs["parent"][0]["machine"].items()
                   if not k.startswith("loadavg")}
        sides = {side: [{k: v for k, v in run.items() if k != "machine"} for run in runs[side]]
                 for side in runs}
        bench = {"workload": args.workload, "pairs": args.pairs, "seed": args.seed,
                 "seconds": args.seconds, "machine": machine, **sides, "summary": rows}
        args.bench_out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
