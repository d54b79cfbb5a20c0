"""Reference oracle for ``cogkit.ngc``: the straightforward kernels.

``settle``: each of the K steps builds a fresh state through ``predict``
and checks every layer for divergence with two reductions; nothing
short-circuits, and gating masks multiply every unit, open or closed.
``update_weights``: every weight of every layer gets its Hebbian change,
closed units included.  The package's kernels must reproduce these numbers,
bit for bit where they add the same terms in the same order.  Only the
state assembly (validation and layout) comes from the package; every
prediction, error and weight here is computed by the code below.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from cogkit import ngc
from cogkit.ngc import _Z_LIMIT, DivergenceError, _apply_phi, energy


def _gated(state, ell):
    g = state.mask.get(ell)
    return state.z[ell] if g is None else state.z[ell] * g


def make_state(circuit, clamps=None, mask=None, init=None, pin0=None):
    """A fresh package state with predictions and errors from ``predict``;
    every mask given is kept, all-open ones too."""
    state = ngc.make_state(circuit, clamps=clamps, mask=mask, init=init, pin0=pin0)
    state.mask = {ell: np.asarray(g, dtype=float) for ell, g in (mask or {}).items()}
    return predict(circuit, state)


def predict(circuit, state):
    """Refresh top-down predictions and error units from current activities."""
    L = circuit.L
    if len(state.z) != L + 1:
        raise ValueError(f"state has {len(state.z)} layers, circuit expects {L + 1}")
    mu = []
    for ell in range(1, L + 1):
        a = _apply_phi(circuit.phi[ell], _gated(state, ell))
        mu.append(circuit.W[ell] @ a)
    e = [state.z[ell] - mu[ell] for ell in range(L)]
    e.append(np.zeros(circuit.sizes[L]))
    return replace(state, mu=mu, e=e)


def settle(circuit, clamps=None, mask=None, init=None, pin0=None):
    """Run K predict/correct iterations and return the final state."""
    state = make_state(circuit, clamps=clamps, mask=mask, init=init, pin0=pin0)

    def track_output(st):
        # An unclamped layer 0 follows its own prediction; pinned units stay
        # at their targets, so only they carry error.
        if 0 in st.clamps:
            return
        z0 = st.mu[0].copy()
        for idx, val in st.pin0.items():
            z0[idx] = val
        st.z[0] = z0
        st.e[0] = st.z[0] - st.mu[0]

    for _ in range(circuit.K):
        if circuit.beta != 0.0:
            track_output(state)
            for ell in range(1, circuit.L + 1):
                if ell in state.clamps:
                    continue
                step = -circuit.gamma * state.z[ell] - state.e[ell]
                feedback = circuit.E[ell] @ state.e[ell - 1]
                g = state.mask.get(ell)
                step = step + (feedback if g is None else feedback * g)
                state.z[ell] = state.z[ell] + circuit.beta * step
        for zv in state.z:
            if not np.isfinite(zv).all() or np.abs(zv).max() > _Z_LIMIT:
                raise DivergenceError(
                    f"state exceeded {_Z_LIMIT:g} during settling; "
                    f"beta={circuit.beta} is too large for this circuit"
                )
        state = predict(circuit, state)
    if circuit.beta != 0.0:
        track_output(state)  # leave z0 consistent with the final predictions
    state.energy = energy(state)
    return state


def update_weights(circuit, state, eta_W, eta_E, clip=False):
    """Dense local Hebbian updates; returns a new circuit."""
    W = [None]
    E = [None]
    for ell in range(1, circuit.L + 1):
        pre = _apply_phi(circuit.phi[ell], _gated(state, ell))
        below = state.e[ell - 1]
        g = state.mask.get(ell - 1)
        grad = np.outer(below if g is None else below * g, pre)
        W.append(circuit.W[ell] + eta_W * grad)
        E.append(circuit.E[ell] + eta_E * grad.T)
        if clip:
            for M in (W[ell], E[ell]):
                norms = np.linalg.norm(M, axis=0)
                big = norms > 1.0
                if big.any():
                    M[:, big] /= norms[big]
    return replace(circuit, W=W, E=E)
