"""Competitive task gate: prototype matching, recruitment, and gating masks.

A small pool of units competes for each context vector (a running summary of
recent observations).  The nearest prototype wins; a context farther than the
novelty threshold from every prototype recruits a fresh unit instead, up to
capacity.  Each unit carries an immutable binary mask per gated cortical
layer, so a revisited task re-opens exactly the subnetwork it trained before.
The gate's ``prototypes`` and ``masks`` and the tracker's ``window`` are
tuples that each change replaces, never writes into.

``match`` and ``update_winner`` check the context and run ``_match`` and
``_update_winner``, which ``select_or_recruit`` and the agent call on a
context already checked, so a cycle checks its context once.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from . import hrr
from .config import check, check_vector


class CompetitiveGate:
    """Hard winner-take-all detector with novelty-based recruitment.

    Parameters
    ----------
    context_dim : dimensionality of context vectors.
    layer_widths : map of gated layer index -> layer width; every recruited
        unit gets one {0,1} mask per entry.
    theta : novelty distance threshold (>= 0), in the gate's own metric.
    eta_c : prototype learning rate in [0, 1].
    M_max : unit capacity.
    p : mask density; each mask has exactly round(p * width) ones.
    mask_mode : "random" for i.i.d. subsets, "blocks" for contiguous blocks
        (disjoint across units while k * round(p*width) fits in the layer).
    metric : "euclid" or "cosine" prototype distance.

    Each is checked with the check of the config key that sets it.
    """

    def __init__(
        self,
        context_dim,
        layer_widths,
        theta,
        eta_c=0.1,
        M_max=8,
        p=0.5,
        mask_mode="random",
        metric="euclid",
        seed=0,
    ):
        if check("theta", theta) == "auto":
            raise ValueError("bad value for 'theta': 'auto' is calibrated by the runner; "
                             "a gate needs a number")
        self.context_dim = int(check("obs_dim", context_dim, name="context_dim"))
        widths = dict(layer_widths)  # hidden layers 1, 2, ... and their sizes
        self.layer_widths = dict(zip(*(check("sensory_hidden", tuple(part), name="layer_widths")
                                       for part in (widths, widths.values()))))
        self.theta = float(theta)
        self.eta_c = float(check("eta_c", eta_c))
        self.M_max = int(check("M_max", M_max))
        self.p = float(check("mask_p", p, name="p"))
        self.mask_mode = check("mask_mode", mask_mode)
        self.metric = check("gate_metric", metric, name="metric")
        self.rng = np.random.default_rng(seed)
        self.prototypes = ()
        self.masks = ()
        self.saturated = False

    @property
    def active_count(self):
        return len(self.prototypes)

    def _distance(self, context, w):
        if self.metric == "cosine":
            return 1.0 - hrr.cosine(context, w)
        return float(hrr._norm(context - w))  # np.linalg.norm's value

    def match(self, context):
        """Nearest recruited prototype: (winner index, distance).

        Ties go to the lowest index; unrecruited capacity never matters.
        """
        if not self.prototypes:
            raise ValueError("match on a gate with no recruited units")
        return self._match(check_vector("context", context, self.context_dim))

    def _match(self, context):
        """``match`` of a checked context on a gate with a unit.  The first
        of the least distances wins, as ``np.argmin`` picks it: a NaN
        distance comes only from a context holding NaN, and then every
        distance is NaN and unit 0 wins either way."""
        dists = [self._distance(context, w) for w in self.prototypes]
        winner = dists.index(min(dists))
        return winner, dists[winner]

    def _fresh_mask(self, unit_index):
        mask = {}
        for layer, width in sorted(self.layer_widths.items()):
            n_on = int(round(self.p * width))
            n_on = max(1, min(width, n_on))
            if self.mask_mode == "blocks":
                start = (unit_index * n_on) % width
                idx = (start + np.arange(n_on)) % width
            else:
                idx = self.rng.choice(width, size=n_on, replace=False)
            g = np.zeros(width)
            g[idx] = 1.0
            g.flags.writeable = False
            mask[layer] = g
        return MappingProxyType(mask)

    def _recruit(self, context):
        k = self.active_count
        self.prototypes += (context.copy(),)
        self.masks += (self._fresh_mask(k),)
        return k

    def select_or_recruit(self, context):
        """Return the winner for ``context``, recruiting a unit on novelty.

        Novelty means every recruited prototype is farther than theta.  At
        capacity the gate falls back to the nearest winner and sets the
        sticky ``saturated`` flag instead of recruiting.
        """
        context = check_vector("context", context, self.context_dim)
        if not self.prototypes:
            winner = self._recruit(context)
        else:
            winner, dist = self._match(context)
            if dist > self.theta:
                if self.active_count < self.M_max:
                    winner = self._recruit(context)
                else:
                    self.saturated = True
        return winner

    def update_winner(self, winner, context):
        """Move only the winning prototype toward the context (hard WTA)."""
        if not 0 <= winner < self.active_count:
            raise ValueError(f"unit {winner} is not recruited")
        return self._update_winner(winner, check_vector("context", context, self.context_dim))

    def _update_winner(self, winner, context):
        """``update_winner`` of a recruited unit and a checked context."""
        w = self.prototypes[winner]
        self.prototypes = (*self.prototypes[:winner], w + self.eta_c * (context - w),
                           *self.prototypes[winner + 1:])
        return self

    def mask_for(self, winner):
        """The winner's per-layer gating mask, read-only since it was made."""
        if not 0 <= winner < self.active_count:
            raise ValueError(f"unit {winner} is not recruited")
        return self.masks[winner]

    def _gating(self, winner):
        """The mask of a recruited ``winner`` as ``ngc._settle`` takes it,
        which ``ngc._validate_mask`` would leave: its layers that close a
        unit; a layer whose mask opens every unit gates nothing.  A mask is
        0/1 and as wide as its layer, as ``_fresh_mask`` makes it or a
        restore checks it, so it is not checked again.  It is taken on each
        call and kept nowhere, so a rollback has nothing here to undo."""
        return {layer: g for layer, g in self.masks[winner].items() if not g.all()}


class ContextTracker:
    """Running mean of the last ``capacity`` observations, which it keeps,
    oldest first, as the tuple ``window``.

    Feeds the gate a slowly varying context so task switches show up as a
    prototype-distance jump rather than per-sample noise.
    """

    def __init__(self, dim, window=32):
        self.dim = int(check("obs_dim", dim, name="dim"))
        self.capacity = int(check("context_window", window, name="window"))
        self.window = ()

    def update(self, obs):
        obs = check_vector("obs", obs, self.dim).copy()  # the caller may reuse its array
        self.window = (*self.window, obs)[-self.capacity:]
        return self.context()

    def context(self):
        if not self.window:
            raise ValueError("context requested before any observation")
        # np.mean(self.window, axis=0) without its wrapper: the same sum and division
        return np.add.reduce(np.array(self.window), axis=0) / len(self.window)

    def __len__(self):
        return len(self.window)
