"""Every name the benchmark replaces exists.

``perfbench/spans.py`` and ``perfbench/suites.py`` wrap cogkit functions by
replacing attributes by name, so a rename in ``src`` would otherwise show up
only as a ``KeyError`` in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class _Recorder:
    """Stands in for ``spans.Patches``: records what would be wrapped."""

    def __init__(self):
        self.names = []

    def wrap(self, owner, name, make):
        self.names.append((owner, name))


def test_every_name_the_benchmark_replaces_exists():
    # the benchmark's modules import their siblings by name, as its runner does
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    spans, suites = importlib.import_module("spans"), importlib.import_module("suites")
    traced, timed = _Recorder(), _Recorder()
    spans.Tracer().install(traced)
    clock = suites.OpClock(slice_work=None, every=1)
    clock.install(timed, agent_ops=True)
    clock.install(timed, agent_ops=False)
    assert len(traced.names) == 25 and len(timed.names) == 3
    wrapped = traced.names + timed.names
    missing = [f"{owner.__name__}.{name}" for owner, name in wrapped if name not in vars(owner)]
    assert missing == []
    timed_names = {f"{owner.__name__}.{name}" for owner, name in timed.names}
    assert timed_names == {"Agent.cycle", "Agent.probe", "WorkingMemoryBuffer.empty"}
