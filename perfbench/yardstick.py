"""Machine-speed yardsticks: fixed slices of work that share no code with cogkit.

The benchmark's box is shared, and the speed it gives one process swings
between a fast and a slow state as neighbouring tenants load the host: an
`rps` cycle takes about 0.85 ms in the one and 1.5 ms in the other, and the
state changes within seconds (see ``NOTES.md``).  A yardstick slice runs
between the timed operations of a workload, so it samples the same states
the operations ran in.  Each run's times are then scaled by

    factor = NOMINAL_S / mean slice time of the run

which reads them as times on the reference box at the nominal slice speed,
close to its fast state.  The slices use NumPy only, with inputs fixed at
import, so a change to cogkit cannot change them.

Each workload has the yardstick whose work is most like its own op, since
the slow state slows interpreter-bound, BLAS-bound and vector-bound code by
different amounts.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20210517)
_W = 0.1 * _rng.standard_normal((32, 32))
_W_OUT = 0.1 * _rng.standard_normal((3, 32))
_A = _rng.standard_normal(2048)
_B = _rng.standard_normal(2048)
_W_WIDE = 0.05 * _rng.standard_normal((256, 784))
_E_WIDE = 0.05 * _rng.standard_normal((784, 256))
_DW_WIDE = np.empty((256, 784))
_X = _rng.standard_normal(784)
_LEX = _rng.standard_normal((16, 2048))
_LEX_NORM = np.linalg.norm(_LEX, axis=1)


class _State:
    """A few attributes and a dict, updated as an agent updates its own.

    Scratch state, like ``_DW_WIDE``: ``small_circuit`` settles to the same
    point on every slice, and nothing reads it but the slice itself.
    """

    def __init__(self):
        self.z = np.zeros(32)
        self.log = {}


_STATE = _State()


def small_circuit():
    """Like an `rps` cycle: small settle steps with Python glue, then one
    2048-wide permute and cosine."""
    s = _STATE
    for k in range(4):
        s.z = np.tanh(_W @ s.z + 0.1)
        err = s.z - np.clip(s.z, -0.2, 0.2)
        s.z = s.z - 0.05 * (_W.T @ err)
        s.log[k] = float((_W_OUT @ s.z).max())
    y = np.roll(_A, 3)
    return float(y @ _B) / (np.linalg.norm(y) * np.linalg.norm(_B))


def wide_layer():
    """Like a `continual` cycle: eight settle steps of a 784->256 prediction
    and its feedback through a second matrix, then a rank-one weight update
    written to a scratch matrix."""
    z = np.zeros(256)
    for _ in range(8):
        z = np.tanh(_W_WIDE @ _X + 0.1 * z)
        err = _X - _E_WIDE @ z
    np.multiply(z[:, None], err[None, :], out=_DW_WIDE)
    return float(err @ err)


def cleanup_read():
    """Like a `recall` list: un-permute a 2048-wide trace and clean it up
    against 16 symbols, three times."""
    m = _A + np.roll(_B, 2)
    best = 0
    for p in (1, 2, 3):
        y = np.roll(m, -p)
        best = int(np.argmax(_LEX @ y / (_LEX_NORM * np.linalg.norm(y))))
    return best


# Seconds one slice takes on the reference box (2-vCPU Xeon at 2.1 GHz,
# OpenBLAS one thread) in its fast state: the tenth percentile of the mean
# slice time per run, measured between a workload's ops as the benchmark
# runs it, over 100 or more runs.
NOMINAL_S = {small_circuit: 1.0e-4, wide_layer: 1.5e-3, cleanup_read: 0.9e-4}


def timed_slice(work):
    """Run one slice of ``work``; return its wall time in seconds."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0
