"""Generative-coding circuit: predict, settle, and local Hebbian updates.

A circuit is a stack of layers 0..L.  Each layer ell >= 1 predicts the one
below it through a generative matrix W[ell]; the mismatch lives in error
units e[ell] = z[ell] - mu[ell].  Settling nudges unclamped states down the
error landscape using separate learned feedback matrices E[ell] (no reuse of
W transposed), and learning is a local outer product of the error below with
the activity above -- the negative gradient of the layer-local energy.

Gating masks multiply hidden activities: a unit behind a closed gate
contributes nothing to predictions, its error-driven state term is silenced,
and its synapses (both the columns it sends and the rows that predict it)
receive exactly zero change, which is what makes task-specific subnetworks
non-interfering.

With one hidden layer, a clamped input and a 0/1 mask, that subnetwork is the
whole computation: a closed unit starts at 0 and stays there, so it never
reaches a prediction, an error or a weight change.  ``settle`` and
``update_weights`` then work on the open units alone (see ``_open_units``).
A mask with every unit open is no mask at all and is dropped on entry.

Weight matrices are kept in C order: every update returns C-ordered W and E,
as a restore does, so a restored circuit sums its products in the order the
live one does and resumes byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

_Z_LIMIT = 1e6


class DivergenceError(RuntimeError):
    """Raised when settling produces non-finite or runaway state."""


@dataclass
class NgcCircuit:
    """Layer sizes plus generative (W) and error-feedback (E) matrices.

    W[ell] has shape (sizes[ell-1], sizes[ell]) and maps layer ell activity
    to a prediction of layer ell-1; E[ell] has the transposed shape and
    carries errors back up.  Index 0 of both lists is unused padding so the
    code reads like the math.
    """

    sizes: tuple
    W: list
    E: list
    phi: tuple
    beta: float = 0.05
    gamma: float = 0.001
    K: int = 50

    @property
    def L(self):
        return len(self.sizes) - 1


@dataclass
class CircuitState:
    """Activities, predictions, and errors, plus what was held fixed.

    ``z`` and ``e`` have one entry per layer 0..L (e[L] is always zero);
    ``mu`` has entries for layers 0..L-1.  ``energy`` is filled in by
    ``settle`` with the final free energy.
    """

    z: list
    mu: list
    e: list
    clamps: dict = field(default_factory=dict)
    mask: dict = field(default_factory=dict)
    pin0: dict = field(default_factory=dict)
    energy: float | None = None


def _apply_phi(name, v):
    if name == "tanh":
        return np.tanh(v)
    if name == "identity":
        return v
    raise ValueError(f"unknown activation {name!r}")


def init_circuit(sizes, seed, beta=0.05, gamma=0.001, K=50, sigma=0.05, phi=None):
    """Build a circuit with i.i.d. Normal(0, sigma^2) weights.

    ``phi`` is a per-layer activation name list; the default is identity at
    layer 0 and tanh everywhere above.
    """
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2:
        raise ValueError(f"need at least two layer sizes, got {sizes}")
    if any(s < 1 for s in sizes):
        raise ValueError(f"all layer sizes must be >= 1, got {sizes}")
    if not beta >= 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if not gamma >= 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    L = len(sizes) - 1
    phi = ("identity",) + ("tanh",) * L if phi is None else tuple(phi)
    if len(phi) != L + 1:
        raise ValueError(f"phi needs {L + 1} entries, got {len(phi)}")
    for name in phi:
        _apply_phi(name, np.zeros(1))  # validate names early
    rng = np.random.default_rng(seed)
    W = [None]
    E = [None]
    for ell in range(1, L + 1):
        W.append(sigma * rng.standard_normal((sizes[ell - 1], sizes[ell])))
        E.append(sigma * rng.standard_normal((sizes[ell], sizes[ell - 1])))
    return NgcCircuit(sizes=sizes, W=W, E=E, phi=phi, beta=beta, gamma=gamma, K=K)


def _check_layer_vec(circuit, ell, v, what):
    v = np.asarray(v, dtype=float)
    if v.shape != (circuit.sizes[ell],):
        raise ValueError(
            f"{what} for layer {ell} has shape {v.shape}, expected ({circuit.sizes[ell]},)"
        )
    return v


def _validate_mask(circuit, mask):
    out = {}
    for ell, g in (mask or {}).items():
        if not 1 <= ell <= circuit.L:
            raise ValueError(f"gating mask on layer {ell}; only hidden layers 1..{circuit.L}")
        g = _check_layer_vec(circuit, ell, g, "gating mask")
        if (g < 0).any() or (g > 1).any():
            raise ValueError(f"gate values for layer {ell} outside [0, 1]")
        if not (g == 1.0).all():  # multiplying by 1 changes nothing
            out[ell] = g
    return out


def _gate(state, ell, v):
    g = state.mask.get(ell)
    return v if g is None else v * g


def _open_units(circuit, state):
    """The open units of hidden layer 1, as a slice when they are one run;
    None unless it is the only hidden layer and has a 0/1 mask that opens
    at least one unit.

    A closed unit's activity enters every prediction and every weight change
    multiplied by 0.  Dropping those terms leaves each computed value a sum of
    the same nonzero terms, and each weight change exactly the same product,
    so the open-unit path gives the masked path's numbers up to the order
    BLAS adds the terms of a product.
    """
    g = state.mask.get(1)
    if circuit.L != 1 or g is None or not ((g == 0.0) | (g == 1.0)).all():
        return None
    idx = np.flatnonzero(g)
    if idx.size == 0:
        return None
    if idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _assemble(circuit, clamps, mask, init, pin0):
    """A fresh state with clamped layers fixed and the rest from ``init``
    (zeros by default); predictions and errors are left unset."""
    clamps = dict(clamps or {})
    init = dict(init or {})
    for name, d in (("clamp", clamps), ("init", init)):
        for ell in list(d):
            if not 0 <= ell <= circuit.L:
                raise ValueError(f"{name} on layer {ell}; circuit has layers 0..{circuit.L}")
            d[int(ell)] = _check_layer_vec(circuit, ell, d[ell], name)
    pin = {}
    for idx, val in (pin0 or {}).items():
        if 0 in clamps:
            raise ValueError("cannot pin layer-0 units when layer 0 is clamped")
        if not 0 <= idx < circuit.sizes[0]:
            raise ValueError(f"pinned unit {idx} out of range for layer 0")
        pin[int(idx)] = float(val)
    start = {**init, **clamps}
    z = [start[ell].copy() if ell in start else np.zeros(n) for ell, n in enumerate(circuit.sizes)]
    return CircuitState(
        z=z,
        mu=[None] * circuit.L,
        e=[None] * circuit.L + [np.zeros(circuit.sizes[-1])],
        clamps=clamps,
        mask=_validate_mask(circuit, mask),
        pin0=pin,
    )


def make_state(circuit, clamps=None, mask=None, init=None, pin0=None):
    """Assemble a fresh state: clamped layers fixed, the rest from ``init``
    (zeros by default), with predictions and errors refreshed once."""
    return _refresh(circuit, _assemble(circuit, clamps, mask, init, pin0))


def _refresh(circuit, state):
    """Overwrite the entries of ``state.mu`` and ``state.e[0..L-1]`` with
    predictions and errors from the current activities; returns ``state``."""
    z, mu, e = state.z, state.mu, state.e
    for ell in range(1, circuit.L + 1):
        mu[ell - 1] = circuit.W[ell] @ _apply_phi(circuit.phi[ell], _gate(state, ell, z[ell]))
        e[ell - 1] = z[ell - 1] - mu[ell - 1]
    return state


def predict(circuit, state):
    """A new state sharing ``z`` with ``state`` (which is left as it was),
    with top-down predictions and error units refreshed from its activities."""
    if len(state.z) != circuit.L + 1:
        raise ValueError(f"state has {len(state.z)} layers, circuit expects {circuit.L + 1}")
    return _refresh(circuit, replace(state, mu=list(state.mu), e=list(state.e)))


def energy(state):
    """Total free energy: half the squared norm of every error vector."""
    return float(sum(0.5 * np.dot(ev, ev) for ev in state.e))


def _track_output(state):
    # An unclamped layer 0 follows its own prediction; pinned units stay at
    # their targets, so only they carry error.
    z0 = state.mu[0].copy()
    for idx, val in state.pin0.items():
        z0[idx] = val
    state.z[0] = z0
    state.e[0] = z0 - state.mu[0]


def settle(circuit, clamps=None, mask=None, init=None, pin0=None):
    """Run up to K predict/correct iterations and return the final state.

    Clamped layers stay bit-identical.  An unclamped layer 0 tracks its own
    prediction each step (so its error is zero), except at pinned units,
    which are held to their target values and therefore carry exactly the
    error needed to pull the prediction toward the target.  Hidden states
    move by ``beta * (-gamma*z - e + (E @ e_below) * gate)``; with beta = 0
    no state changes at all.

    Predictions depend only on layers 1..L, so when none of them can move
    (every hidden layer is clamped, or beta = 0) one pass gives the state
    that K passes would: settling stops after it, divergence check included.

    With one hidden layer that starts at rest under a 0/1 mask and layer 0
    clamped, the same loop runs on the open units alone: ``W[1][:, open]``
    and ``E[1][open]`` are gathered once, and the settled activities are
    scattered back, so closed units stay exactly 0.  A pinned or free layer
    0, a hidden layer that starts away from 0, and deeper stacks keep the
    masked computation.  Each step overwrites the fresh state built for this
    call and nothing else; clamp, init, mask and circuit arrays are only read.
    """
    state = _assemble(circuit, clamps, mask, init, pin0)
    opened = None
    if 0 in state.clamps and 1 not in state.clamps and not state.z[1].any():
        opened = _open_units(circuit, state)
    if opened is None:
        return _settle(circuit, _refresh(circuit, state))
    W1 = np.ascontiguousarray(circuit.W[1][:, opened])
    E1 = np.ascontiguousarray(circuit.E[1][opened])
    sub = replace(circuit, sizes=(circuit.sizes[0], len(E1)), W=[None, W1], E=[None, E1])
    part = _settle(sub, make_state(sub, clamps=state.clamps))
    state.z[1][opened] = part.z[1]
    state.mu[0], state.e[0], state.energy = part.mu[0], part.e[0], part.energy
    return state


def _settle(circuit, state):
    """The predict/correct loop of ``settle``, on a refreshed ``state``."""
    z, e, E = state.z, state.e, circuit.E
    beta, gamma = circuit.beta, circuit.gamma
    track = beta != 0.0 and 0 not in state.clamps
    free = [ell for ell in range(1, circuit.L + 1) if beta != 0.0 and ell not in state.clamps]
    for _ in range(circuit.K if free else 1):
        if track:
            _track_output(state)
        for ell in free:
            step = -gamma * z[ell] - e[ell]
            step = step + _gate(state, ell, E[ell] @ e[ell - 1])
            z[ell] = z[ell] + beta * step
        for zv in z:
            if not np.abs(zv).max() <= _Z_LIMIT:  # also true for NaN
                raise DivergenceError(
                    f"state exceeded {_Z_LIMIT:g} during settling; "
                    f"beta={beta} is too large for this circuit"
                )
        _refresh(circuit, state)
    if track:
        _track_output(state)  # leave z0 consistent with the final predictions
    state.energy = energy(state)
    return state


def update_weights(circuit, state, eta_W, eta_E, clip=False):
    """Apply local Hebbian updates and return a new circuit.

    For each layer the raw change is the outer product of the error below
    with the gated activity above; W gets eta_W times it and E gets eta_E
    times its transpose.  Errors at gated-off hidden units are zeroed on the
    postsynaptic side too, so a closed gate means zero change in both the
    unit's outgoing columns and the rows predicting it.  With one hidden
    layer under a 0/1 mask, only the open units' columns of W and rows of E
    are computed, into copies of the old matrices; every other entry would
    have gained exactly 0.  With ``clip``, columns of W and E are rescaled
    onto the unit ball when they exceed it, all columns, open or not.  The
    new matrices are C-ordered whatever the old ones were.
    """
    opened = _open_units(circuit, state)
    if opened is None:
        W, E = [None], [None]
        for ell in range(1, circuit.L + 1):
            pre = _apply_phi(circuit.phi[ell], _gate(state, ell, state.z[ell]))
            grad = np.outer(_gate(state, ell - 1, state.e[ell - 1]), pre)
            W.append(np.add(circuit.W[ell], eta_W * grad, order="C"))
            E.append(np.add(circuit.E[ell], eta_E * grad.T, order="C"))
    else:
        grad = np.outer(state.e[0], _apply_phi(circuit.phi[1], state.z[1][opened]))
        W, E = [None, circuit.W[1].copy()], [None, circuit.E[1].copy()]
        W[1][:, opened] += eta_W * grad
        E[1][opened] += eta_E * grad.T
    if clip:
        for M in W[1:] + E[1:]:
            norms = np.linalg.norm(M, axis=0)
            big = norms > 1.0
            if big.any():
                M[:, big] /= norms[big]
    return replace(circuit, W=W, E=E)
