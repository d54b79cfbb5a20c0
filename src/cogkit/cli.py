"""Command-line entry point.

Subcommands mirror the experiment runners: ``continual`` for the sequential
split-digit benchmark, ``rl`` for the rock-paper-scissors and maze agents,
``recall`` for the serial-recall protocol, and ``inspect`` to print the
directory of a snapshot file.
"""

from __future__ import annotations

import argparse
import sys

from . import runner
from .config import load_config, resolve
from .snapshot import load_snapshot


def _add_run_args(p, ungated=False, agent=True):
    p.add_argument("--config", help="key=value config file (defaults when omitted)")
    p.add_argument("--seed", type=int, default=None,
                   help="run seed (overrides the config's)")
    p.add_argument("--out", default=None,
                   help="directory for metrics.csv and metadata.txt")
    if ungated:
        p.add_argument("--ungated", action="store_true",
                       help="force p=1 masks (interference baseline)")
    if agent:
        p.add_argument("--agent", choices=runner.AGENT_KINDS, default="learned",
                       help="learned agent or a bracketing stub")


def build_parser():
    p = argparse.ArgumentParser(
        prog="cogkit",
        description="Cognitive-architecture experiment harness.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("continual", help="sequential split-digit benchmark")
    _add_run_args(c, ungated=True)

    r = sub.add_parser("rl", help="reinforcement-learning suites")
    r.add_argument("--env", choices=("rps", "maze"), default=None,
                   help="environment (default: the config's env key)")
    _add_run_args(r)

    rec = sub.add_parser("recall", help="serial-recall protocol")
    _add_run_args(rec, agent=False)

    ins = sub.add_parser("inspect", help="print a snapshot file's directory")
    ins.add_argument("--snapshot", required=True, help="snapshot file path")
    return p


def _load(args):
    if args.config:
        return load_config(args.config)
    return resolve(), None


def cmd_continual(args):
    cfg, text = _load(args)
    out = runner.run_continual(cfg, seed=args.seed, out=args.out,
                               ungated=args.ungated, agent_kind=args.agent,
                               cfg_text=text)
    print(f"ACC = {out['ACC']:.4f}")
    print(f"forgetting = {out['forgetting']:.4f}")
    for j, acc in enumerate(out["final"]):
        print(f"task {j} final accuracy = {acc:.4f}")
    return 0


def cmd_rl(args):
    cfg, text = _load(args)
    if (args.env or cfg["env"]) == "rps":
        out = runner.run_rps(cfg, seed=args.seed, out=args.out,
                             agent_kind=args.agent, cfg_text=text)
        print(f"late payoff = {out['late_payoff']:.4f}")
        print(f"mean payoff = {out['mean_payoff']:.4f}")
    else:
        out = runner.run_maze(cfg, seed=args.seed, out=args.out,
                              agent_kind=args.agent, cfg_text=text)
        print(f"success rate (last window) = {out['success_rate']:.4f}")
        print(f"mean return = {out['mean_return']:.4f}")
    return 0


def cmd_recall(args):
    cfg, text = _load(args)
    out = runner.run_recall(cfg, seed=args.seed, out=args.out, cfg_text=text)
    for p, acc in enumerate(out["accuracy"], start=1):
        print(f"position {p}: accuracy = {acc:.4f}, "
              f"mean cosine = {out['mean_cosine'][p - 1]:.4f}")
    return 0


def cmd_inspect(args):
    arrays, meta, seed = load_snapshot(args.snapshot)
    print(f"snapshot seed {seed}: {len(arrays)} arrays, {len(meta)} metadata entries")
    for name in sorted(arrays):
        print(f"  {name}  array{arrays[name].shape}")
    for name in sorted(meta):
        text = repr(meta[name])
        if len(text) > 60:
            text = text[:57] + "..."
        print(f"  {name}  meta {text}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "continual": cmd_continual,
        "rl": cmd_rl,
        "recall": cmd_recall,
        "inspect": cmd_inspect,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
