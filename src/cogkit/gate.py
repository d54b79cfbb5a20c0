"""Competitive task gate: prototype matching, recruitment, and gating masks.

A small pool of units competes for each context vector (a running summary of
recent observations).  The nearest prototype wins; a context farther than the
novelty threshold from every prototype recruits a fresh unit instead, up to
capacity.  Each unit carries an immutable binary mask per gated cortical
layer, so a revisited task re-opens exactly the subnetwork it trained before.
"""

from __future__ import annotations

from collections import deque

import numpy as np


class CompetitiveGate:
    """Hard winner-take-all detector with novelty-based recruitment.

    Parameters
    ----------
    context_dim : dimensionality of context vectors.
    layer_widths : map of gated layer index -> layer width; every recruited
        unit gets one {0,1} mask per entry.
    theta : novelty distance threshold (>= 0).
    eta_c : prototype learning rate in [0, 1].
    M_max : unit capacity.
    p : mask density; each mask has exactly round(p * width) ones.
    mask_mode : "random" for i.i.d. subsets, "blocks" for contiguous blocks
        (disjoint across units while k * round(p*width) fits in the layer).
    metric : "euclid" or "cosine" prototype distance.
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
        if theta < 0:
            raise ValueError(f"theta must be >= 0, got {theta}")
        if not 0.0 <= eta_c <= 1.0:
            raise ValueError(f"eta_c must be in [0, 1], got {eta_c}")
        if M_max < 1:
            raise ValueError(f"M_max must be >= 1, got {M_max}")
        if not 0.0 < p <= 1.0:
            raise ValueError(f"mask density p must be in (0, 1], got {p}")
        if mask_mode not in ("random", "blocks"):
            raise ValueError(f"unknown mask_mode {mask_mode!r}")
        if metric not in ("euclid", "cosine"):
            raise ValueError(f"unknown metric {metric!r}")
        self.context_dim = int(context_dim)
        self.layer_widths = {int(l): int(w) for l, w in dict(layer_widths).items()}
        self.theta = float(theta)
        self.eta_c = float(eta_c)
        self.M_max = int(M_max)
        self.p = float(p)
        self.mask_mode = mask_mode
        self.metric = metric
        self.rng = np.random.default_rng(seed)
        self.prototypes = []
        self.masks = []
        self.saturated = False

    @property
    def active_count(self):
        return len(self.prototypes)

    def _distance(self, context, w):
        if self.metric == "cosine":
            na, nb = np.linalg.norm(context), np.linalg.norm(w)
            if na == 0.0 or nb == 0.0:
                raise ValueError("cosine distance undefined for zero-norm vector")
            return 1.0 - float(np.dot(context, w) / (na * nb))
        return float(np.linalg.norm(context - w))

    def _check_context(self, context):
        context = np.asarray(context, dtype=float)
        if context.shape != (self.context_dim,):
            raise ValueError(
                f"context shape {context.shape} does not match dim {self.context_dim}"
            )
        return context

    def match(self, context):
        """Nearest recruited prototype: (winner index, distance).

        Ties go to the lowest index; unrecruited capacity never matters.
        """
        if not self.prototypes:
            raise ValueError("match on a gate with no recruited units")
        context = self._check_context(context)
        dists = [self._distance(context, w) for w in self.prototypes]
        winner = int(np.argmin(dists))
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
            mask[layer] = g
        return mask

    def _recruit(self, context):
        k = self.active_count
        self.prototypes.append(context.copy())
        self.masks.append(self._fresh_mask(k))
        return k

    def select_or_recruit(self, context):
        """Return the winner for ``context``, recruiting a unit on novelty.

        Novelty means every recruited prototype is farther than theta.  At
        capacity the gate falls back to the nearest winner and sets the
        sticky ``saturated`` flag instead of recruiting.
        """
        context = self._check_context(context)
        if not self.prototypes:
            winner = self._recruit(context)
        else:
            winner, dist = self.match(context)
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
        context = self._check_context(context)
        w = self.prototypes[winner]
        self.prototypes[winner] = w + self.eta_c * (context - w)
        return self

    def mask_for(self, winner):
        """The winner's immutable per-layer gating mask."""
        if not 0 <= winner < self.active_count:
            raise ValueError(f"unit {winner} is not recruited")
        return {layer: g.copy() for layer, g in self.masks[winner].items()}


class ContextTracker:
    """Running mean of the last ``window`` observations.

    Feeds the gate a slowly varying context so task switches show up as a
    prototype-distance jump rather than per-sample noise.
    """

    def __init__(self, dim, window=32):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.dim = int(dim)
        self._buf = deque(maxlen=window)

    def update(self, obs):
        obs = np.asarray(obs, dtype=float)
        if obs.shape != (self.dim,):
            raise ValueError(f"observation shape {obs.shape} does not match dim {self.dim}")
        self._buf.append(obs)
        return self.context()

    def context(self):
        if not self._buf:
            raise ValueError("context requested before any observation")
        return np.mean(self._buf, axis=0)

    def __len__(self):
        return len(self._buf)
