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
non-interfering.  The optional clip keeps that: it rescales only the
columns an update writes.  In a masked layer those are W's open columns and
the columns of E's open rows.  A layer with no mask writes all of its
columns, so a clip there may rescale the rows of W and columns of E that
predict the closed units of the masked layer below.

A mask is 0/1, so ``update_weights`` writes only the open units' columns
and rows (see ``_open_units``), into the live W and E: it copies that block
of each, runs the step of a layer with no mask on the copies (``_swapped``)
and writes the results back.  A layer with no mask changes every entry, so
its update writes into nothing: it forms the new W and E as new arrays.
Either way the update returns a new circuit with its own lists, and if
anything raises inside it, it writes back the copies it took, so W and E
end as they were.  The agent's sensory update is the last step of a cycle,
so nothing after it can fail.  With one hidden layer and a clamped input, a
closed unit starts at 0 and stays there, so ``settle`` works on the open
units alone.  A mask with every unit open is no mask at all and is dropped.

``settle`` checks its arguments (``_checked``) and runs ``_settle``, which
checks nothing; the agent settles the observations it checked and the
masks its gate made through ``_settle`` (see ``agent``).

That circuit, one hidden layer with layer 0 its only clamp and no init or
pins, is every sensory settle of the agent, and ``settle`` runs it
reassociated: the feedback ``E @ (x - W @ phi(z))`` equals
``b - G @ phi(z)`` with ``b = E @ x`` and ``G = E @ W`` formed once per
call, so each pass reads the small square ``G`` instead of ``W`` and ``E``,
and the prediction and error are formed once, after the loop.  The
numbers equal the loop's up to float64 rounding of the reassociated sums.
Every settle takes a batch too: clamps and inits all of shape (n, B) settle
B inputs that share the weights and masks, one per column, each with its own
energy.

Weight matrices are kept in C order: an update keeps W and E C-ordered, as
a restore makes them, so a restored circuit sums its products in the order
the live one does and resumes byte for byte.  A clip takes its norms from
the C-ordered arrays it rescales, so it holds nothing between updates.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .config import check, check_vector

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
    ``mu`` has entries for layers 0..L-1.  ``energy`` is the free energy of
    the errors, taken when first read: a settle whose energy nobody reads
    never sums it.
    """

    z: list
    mu: list
    e: list
    clamps: dict = field(default_factory=dict)
    mask: dict = field(default_factory=dict)
    pin0: dict = field(default_factory=dict)

    @cached_property
    def energy(self):
        return energy(self)  # the module's function


def phi(v):
    """The activation of every layer above layer 0, whose own activity is
    never put through one: tanh."""
    return np.tanh(v)


def init_circuit(sizes, seed, beta=0.05, gamma=0.001, K=50, sigma=0.05):
    """Build a circuit with i.i.d. Normal(0, sigma^2) weights."""
    sizes = check("sensory_hidden", sizes, name="sizes")  # whole numbers >= 1
    if len(sizes) < 2:
        raise ValueError(f"need at least two layer sizes, got {sizes}")
    for name, value in (("beta", beta), ("gamma", gamma), ("sigma", sigma), ("K", K)):
        check(f"sensory_{name}", value, name=name)
    L = len(sizes) - 1
    rng = np.random.default_rng(seed)
    W = [None]
    E = [None]
    for ell in range(1, L + 1):
        W.append(sigma * rng.standard_normal((sizes[ell - 1], sizes[ell])))
        E.append(sigma * rng.standard_normal((sizes[ell], sizes[ell - 1])))
    return NgcCircuit(sizes=sizes, W=W, E=E, beta=beta, gamma=gamma, K=K)


def blank_circuit(sizes, beta=0.05, gamma=0.001, K=50):
    """A circuit of ``sizes`` whose weights are read-only zeros that hold no
    memory and are drawn from nothing: the frame a restore loads saved
    weights into."""
    W, E = [None], [None]
    for ell in range(1, len(sizes)):
        W.append(np.broadcast_to(0.0, (sizes[ell - 1], sizes[ell])))
        E.append(np.broadcast_to(0.0, (sizes[ell], sizes[ell - 1])))
    return NgcCircuit(sizes=tuple(sizes), W=W, E=E, beta=beta, gamma=gamma, K=K)


def _check_layer_vec(circuit, ell, v, what):
    v = np.asarray(v, dtype=float)
    n = circuit.sizes[ell]
    if v.shape != (n,) and not (v.ndim == 2 and v.shape[0] == n and v.size):
        raise ValueError(f"{what} for layer {ell} has shape {v.shape}, "
                         f"expected ({n},) or ({n}, B)")
    return v


def _validate_mask(circuit, mask):
    out = {}
    for ell, g in (mask or {}).items():
        if not 1 <= ell <= circuit.L:
            raise ValueError(f"gating mask on layer {ell}; only hidden layers 1..{circuit.L}")
        g = check_vector(f"mask[{ell}]", g, circuit.sizes[ell])
        n_open = np.count_nonzero(g == 1.0)
        if n_open == g.size:  # multiplying by 1 changes nothing
            continue
        if n_open + np.count_nonzero(g == 0.0) != g.size:  # NaN is neither
            raise ValueError(f"gating mask for layer {ell} is not 0/1")
        out[ell] = g
    return out


def _gate(state, ell, v):
    g = state.mask.get(ell)
    if g is None:
        return v
    return v * (g if v.ndim == 1 else g[:, None])


def _open_units(g):
    """The units a validated mask ``g`` opens: a slice when they are one run,
    else an index array; every unit, ``slice(None)``, when ``g`` is None.

    A closed unit's activity enters every prediction and every weight change
    multiplied by 0.  Dropping those terms leaves each weight change exactly
    the same product, and each computed value a sum of the same nonzero terms.
    """
    if g is None:
        return slice(None)
    idx = np.flatnonzero(g)
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


def _checked(circuit, clamps, mask, init, pin0):
    """``clamps``, ``mask``, ``init`` and ``pin0`` as ``_settle`` takes them,
    once each is checked: clamps and inits as float arrays of their layer's
    width, one batch shape for all, each finite and within 1e6; the mask as
    ``_validate_mask`` leaves it; pins as whole units of an unclamped layer 0."""
    clamps = dict(clamps or {})
    init = dict(init or {})
    batch = None  # the shape every clamp and init shares past its first axis
    for name, d in (("clamp", clamps), ("init", init)):
        for ell in list(d):
            if not 0 <= ell <= circuit.L:
                raise ValueError(f"{name} on layer {ell}; circuit has layers 0..{circuit.L}")
            v = d[int(ell)] = _check_layer_vec(circuit, ell, d[ell], name)
            _check_given(ell, v, name)
            if batch is None:
                batch = v.shape[1:]
            elif v.shape[1:] != batch:
                raise ValueError(f"{name} for layer {ell} has shape {v.shape}; every clamp "
                                 f"and init must share one batch shape, here {batch}")
    pin = {}
    for idx, val in (pin0 or {}).items():
        if 0 in clamps:
            raise ValueError("cannot pin layer-0 units when layer 0 is clamped")
        if not 0 <= idx < circuit.sizes[0]:
            raise ValueError(f"pinned unit {idx} out of range for layer 0")
        pin[operator.index(idx)] = float(val)
    return clamps, _validate_mask(circuit, mask), init, pin


def _state(circuit, clamps, mask, init=None, pin0=None):
    """A fresh state with clamped layers fixed and the rest from ``init``
    (zeros by default), predictions and errors unset; checks nothing (see
    ``_checked`` for what it takes)."""
    start = {**init, **clamps} if init else clamps
    batch = next(iter(start.values())).shape[1:] if start else ()
    z = [start[ell].copy() if ell in start else np.zeros((n, *batch))
         for ell, n in enumerate(circuit.sizes)]
    return CircuitState(
        z=z,
        mu=[None] * circuit.L,
        e=[None] * circuit.L + [np.zeros((circuit.sizes[-1], *batch))],
        clamps=clamps,
        mask=mask,
        pin0=pin0 or {},
    )


def make_state(circuit, clamps=None, mask=None, init=None, pin0=None):
    """Assemble a fresh state: clamped layers fixed, the rest from ``init``
    (zeros by default), with predictions and errors refreshed once.  A clamp
    or init that is not finite or beyond 1e6 raises ``DivergenceError``."""
    return _refresh(circuit, _state(circuit, *_checked(circuit, clamps, mask, init, pin0)))


def _refresh(circuit, state):
    """Overwrite the entries of ``state.mu`` and ``state.e[0..L-1]`` with
    predictions and errors from the current activities; returns ``state``."""
    z, mu, e = state.z, state.mu, state.e
    for ell in range(1, circuit.L + 1):
        mu[ell - 1] = circuit.W[ell] @ phi(_gate(state, ell, z[ell]))
        e[ell - 1] = z[ell - 1] - mu[ell - 1]
    return state


def predict(circuit, state):
    """A new state sharing ``z`` with ``state`` (which is left as it was),
    with top-down predictions and error units refreshed from its activities."""
    if len(state.z) != circuit.L + 1:
        raise ValueError(f"state has {len(state.z)} layers, circuit expects {circuit.L + 1}")
    return _refresh(circuit, replace(state, mu=list(state.mu), e=list(state.e)))


def energy(state):
    """Total free energy: half the squared norm of every error vector; one
    value per column for a batch."""
    if state.e[0].ndim == 1:
        return float(sum(0.5 * np.dot(ev, ev) for ev in state.e))
    return sum(0.5 * np.einsum("ij,ij->j", ev, ev) for ev in state.e)


def _track_output(state):
    # An unclamped layer 0 follows its own prediction; pinned units stay at
    # their targets, so only they carry error.
    z0 = state.mu[0].copy()
    for idx, val in state.pin0.items():
        z0[idx] = val
    state.z[0] = z0
    state.e[0] = z0 - state.mu[0]


def _check_bounded(v, beta):
    # np.abs(v).max(initial=0.0) without the method's wrapper; also true for NaN
    if not np.maximum.reduce(np.abs(v), axis=None, initial=0.0) <= _Z_LIMIT:
        raise DivergenceError(
            f"state exceeded {_Z_LIMIT:g} during settling; "
            f"beta={beta} is too large for this circuit"
        )


def _check_given(ell, v, name):
    if not np.maximum.reduce(np.abs(v), axis=None, initial=0.0) <= _Z_LIMIT:  # as above
        raise DivergenceError(f"{name} for layer {ell} is not finite or exceeds {_Z_LIMIT:g}")


def settle(circuit, clamps=None, mask=None, init=None, pin0=None):
    """Run up to K predict/correct iterations and return the final state.

    Clamped layers stay bit-identical.  An unclamped layer 0 tracks its own
    prediction each step and ends at it (so its error is zero), except at
    pinned units, which are held to their target values and therefore carry
    exactly the error needed to pull the prediction toward the target; that
    holds for any beta.  Hidden states move by
    ``beta * (-gamma*z - e + (E @ e_below) * gate)``, so beta decides only
    whether they move: with beta = 0 none does.

    Predictions depend only on layers 1..L, so when none of them can move
    (every hidden layer is clamped, or beta = 0) no pass runs.  Each value
    is checked against divergence once, when it is set: clamps and inits on
    entry, free layers after each step, a tracked layer 0 after its last.
    The clamped-input kernel skips its per-step checks only where a bound
    formed before its first pass proves that none could fail (see
    ``_passes_stay_bounded``), so it raises where and when the checks would.

    It checks its arguments (``_checked``) and settles them in ``_settle``.
    Each step overwrites the fresh state built for this call and nothing
    else; clamp, init, mask and circuit arrays are only read.
    """
    return _settle(circuit, *_checked(circuit, clamps, mask, init, pin0))


def _settle(circuit, clamps, mask, init=None, pin0=None):
    """``settle`` of arguments as ``_checked`` leaves them, checking none:
    the agent's path for the states and masks it made itself.  The
    circuit's shape picks the path: one hidden layer, layer 0 its only clamp
    (which rules out pins) and no init settles in ``_settle_clamped_input``;
    all others run the masked loop, ``_settle_loop``."""
    state = _state(circuit, clamps, mask, init, pin0)
    if circuit.L == 1 and not init and len(clamps) == 1 and 0 in clamps:
        return _settle_clamped_input(circuit, state)
    return _settle_loop(circuit, _refresh(circuit, state))


def _settle_clamped_input(circuit, state):
    """``settle`` of one hidden layer at rest under a clamped layer 0, on the
    units the mask of the assembled ``state`` opens (see the module
    docstring).  Fills in ``z[1]``, ``mu[0]`` and ``e[0]``; closed units
    stay exactly 0, and with beta = 0 no pass runs.  Each pass is checked
    against divergence unless ``_passes_stay_bounded`` proves that no check
    could fail."""
    X = state.z[0]
    beta, gamma = circuit.beta, circuit.gamma
    opened = _open_units(state.mask.get(1))
    W1, E1 = circuit.W[1][:, opened], circuit.E[1][opened]
    z = np.zeros((W1.shape[1], *X.shape[1:]))
    if beta != 0.0:
        b = E1 @ X
        G = E1 @ W1
        checked = not _passes_stay_bounded(circuit, b, G)
        for _ in range(circuit.K):
            step = b - G @ phi(z)
            step -= gamma * z
            step *= beta
            z += step
            if checked:
                _check_bounded(z, beta)
    state.z[1][opened] = z
    state.mu[0] = W1 @ phi(z)
    state.e[0] = X - state.mu[0]
    return state


def _passes_stay_bounded(circuit, b, G):
    """Whether no pass of ``_settle_clamped_input`` on ``b = E @ x`` and
    ``G = E @ W`` can take a unit past ``_Z_LIMIT``, so that no per-pass
    check could fail.

    A pass sets ``z <- (1 - beta*gamma) z + beta (b - G tanh(z))``.  As
    |tanh| <= 1, a unit's feedback is at most max|b| + the largest row sum
    of |G| in size, and with 0 <= beta*gamma <= 2 the factor on ``z`` is at
    most 1 in size.  So from z = 0 each pass adds at most |beta| times that
    bound, and K passes stay within K times it.  Held to half the limit,
    which leaves far more room than float64 rounding of K passes can take.
    A NaN or inf in ``b`` or ``G`` makes the bound NaN or inf, and false.
    """
    beta = circuit.beta
    if not 0.0 <= beta * circuit.gamma <= 2.0:
        return False
    feedback = (np.maximum.reduce(np.abs(b), axis=None, initial=0.0)
                + np.maximum.reduce(np.add.reduce(np.abs(G), axis=1), initial=0.0))
    return bool(circuit.K * abs(beta) * feedback <= 0.5 * _Z_LIMIT)


def _settle_loop(circuit, state):
    """The predict/correct loop of ``settle``, on a refreshed ``state``."""
    z, e, E = state.z, state.e, circuit.E
    beta, gamma = circuit.beta, circuit.gamma
    track = 0 not in state.clamps
    free = [ell for ell in range(1, circuit.L + 1) if beta != 0.0 and ell not in state.clamps]
    for _ in range(circuit.K if free else 0):
        if track:
            _track_output(state)
        for ell in free:
            step = -gamma * z[ell] - e[ell]
            step = step + _gate(state, ell, E[ell] @ e[ell - 1])
            z[ell] = z[ell] + beta * step
            _check_bounded(z[ell], beta)
        _refresh(circuit, state)
    if track:
        _track_output(state)  # leave z0 consistent with the final predictions
        _check_bounded(z[0], beta)
    return state


def update_weights(circuit, state, eta_W, eta_E, clip=False):
    """Apply local Hebbian updates and return a new circuit with its own
    ``W`` and ``E`` lists.

    For each layer the raw change is the outer product of the error below
    with the gated activity above; W gets eta_W times it and E gets eta_E
    times its transpose, formed as the outer product the other way round.
    Errors at gated-off hidden units are zeroed on the postsynaptic side
    too, so a closed gate means zero change in both the unit's outgoing
    columns and the rows predicting it.  With ``clip``, each column that the
    update writes is rescaled onto the unit ball when it exceeds it (see
    ``_clip``).

    A layer with no mask changes every entry, so it swaps: ``_swapped``
    forms its new W and E as new C-ordered arrays for the new circuit, and
    ``circuit``'s arrays are never written.

    A masked layer changes only the columns of W and rows of E that its mask
    opens (every other entry would gain exactly 0).  It copies that block of
    each, C-ordered, runs ``_swapped`` on the copies and writes the two
    results back in place, into the arrays both circuits hold; W and E must
    be C-ordered and writeable.  So its clip rescales the open columns of W
    and the columns of E's open rows, norms taken over those rows alone.
    The copies are what the writes overwrite: if anything raises inside the
    call, each is written back, the latest first, so W and E end as they
    were, and the error propagates.
    """
    out = NgcCircuit(circuit.sizes, list(circuit.W), list(circuit.E),
                     circuit.beta, circuit.gamma, circuit.K)
    kept = []  # (array, index, copy of array[index]) before each write in place
    try:
        for ell in range(1, circuit.L + 1):
            W, E, g = circuit.W[ell], circuit.E[ell], state.mask.get(ell)
            below = _gate(state, ell - 1, state.e[ell - 1])
            if g is None:
                out.W[ell], out.E[ell] = _swapped(W, E, phi(state.z[ell]), below,
                                                  eta_W, eta_E, clip)
                continue
            opened = _open_units(g)
            columns = (slice(None), opened)
            if isinstance(opened, slice):
                block_W, block_E = W[columns].copy(), E[opened].copy()
            else:  # an index array copies, C-ordered through ``take``
                block_W, block_E = W.take(opened, axis=1), E[opened]
            kept += [(W, columns, block_W), (E, opened, block_E)]
            W[columns], E[opened] = _swapped(block_W, block_E, phi(state.z[ell][opened]),
                                             below, eta_W, eta_E, clip)
    except BaseException:
        for M, index, saved in reversed(kept):
            M[index] = saved
        raise
    return out


def _outer(a, b):
    """The outer product of vectors ``a`` and ``b`` as a new C-ordered array,
    entry (i, j) the one product ``a[i] * b[j]``: the bits of
    ``a[:, None] * b``.

    ``einsum`` forms a large one in about half the time of the broadcast
    multiply, whose call costs less below a few thousand entries.  It adds
    each product to 0, which turns a product of -0.0 into +0.0, so it runs
    only where no product is 0: where the least ``|a[i]|`` times the least
    ``|b[j]|`` is not (rounding is monotone, so no product is smaller)."""
    if a.size * b.size > 2048 and np.abs(a).min() * np.abs(b).min() != 0.0:
        return np.einsum("i,j->ij", a, b)
    return a[:, None] * b


def _swapped(W, E, pre, below, eta_W, eta_E, clip):
    """The Hebbian step of a layer, or of a masked layer's open block, as new
    C-ordered arrays: ``W + eta_W * outer(below, pre)`` and
    ``E + eta_E * outer(pre, below)``, the element-wise sums
    ``update_weights`` makes (float addition commutes, so the change is
    scaled and ``W`` added into it).  ``W`` and ``E`` are only read.  With
    ``clip`` each new matrix goes through ``_clip``."""
    new_W = _outer(below, pre)
    new_W *= eta_W
    new_W += W
    new_E = _outer(pre, below)
    new_E *= eta_E
    new_E += E
    if clip:
        _clip(new_W)
        _clip(new_E)
    return new_W, new_E


def _clip(M):
    """Divide each column of ``M`` whose norm exceeds 1 by that norm, in
    place.  When at least one column in eight does, the whole matrix is
    divided by max(norm, 1), which leaves every other column as it was, in
    one pass; else those columns alone, through a mask, which costs less
    when they are few in a wide matrix."""
    norms = np.sqrt(np.add.reduce(M * M, axis=0))
    big = norms > 1.0
    n_big = np.count_nonzero(big)
    if 8 * n_big >= M.shape[1]:
        M /= np.fmax(norms, 1.0)
    elif n_big:
        M[:, big] /= norms[big]
