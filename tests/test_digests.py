"""The byte-equality checker ``tools/digests.py``."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digests.py"


def _lines(*args):
    done = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True,
                          text=True, check=True)
    return done.stdout.splitlines()


def test_two_runs_of_one_config_print_equal_lines():
    first = _lines("--seeds", "1", "acceptance-rps")
    assert len(first) == 1
    assert re.fullmatch(r"acceptance-rps seed=1 metrics=[0-9a-f]{64} snapshot=[0-9a-f]{64} "
                        r"late_payoff=-?\d+\.\d{4}", first[0])
    assert _lines("--seeds", "1", "acceptance-rps") == first
