"""Motor cortex: action values read out of a generative circuit.

The motor circuit is an NGC stack whose top layer is clamped to the current
state representation and whose layer 0 holds one unit per action.  Settling
with nothing pinned yields Q-value predictions; learning pins the taken
action's unit to a bootstrapped target so that exactly one error row drives
the weight update.  Exploration and replay sampling draw from one seeded
generator, which is what makes whole episodes replayable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import ngc


@dataclass
class Transition:
    """One step of experience: (s, a, r_env, s_next, done)."""

    s: np.ndarray
    a: int
    r_env: float
    s_next: np.ndarray
    done: bool


def greedy_action(q):
    """Index of the largest Q entry; ties resolve to the lowest index."""
    q = np.asarray(q, dtype=float)
    return int(np.argmax(q))


def epistemic_reward(sensory_energy, alpha_e, r_clip):
    """Clipped curiosity bonus: min(alpha_e * energy, r_clip)."""
    if sensory_energy < 0:
        raise ValueError(f"sensory energy must be >= 0, got {sensory_energy}")
    return min(alpha_e * sensory_energy, r_clip)


def epsilon_at(step, horizon, eps_start=1.0, eps_end=0.05, decay_frac=0.5):
    """Linear exploration schedule: eps_start -> eps_end over the first
    ``decay_frac`` of the horizon, flat afterwards."""
    knee = decay_frac * horizon
    if knee <= 0 or step >= knee:
        return eps_end
    return eps_start + (eps_end - eps_start) * (step / knee)


class MotorCircuit:
    """Discrete-action value head with clamp-based Q-learning.

    ``hidden`` lists intermediate layer sizes between the action readout
    (layer 0) and the state layer (top).  ``replay_capacity`` > 0 keeps a
    ring buffer of past transitions; each learn step then also replays
    ``replay_samples`` of them with fresh bootstrapped targets.
    """

    def __init__(
        self,
        n_actions,
        state_dim,
        hidden=(),
        seed=0,
        gamma_d=0.95,
        alpha_e=0.0,
        r_clip=1.0,
        eta_W=0.02,
        eta_E=0.02,
        beta=0.05,
        gamma=0.001,
        K=20,
        sigma=0.05,
        clip_weights=False,
        replay_capacity=0,
        replay_samples=0,
    ):
        if n_actions < 2:
            raise ValueError(f"need at least 2 actions, got {n_actions}")
        if not 0.0 <= gamma_d < 1.0:
            raise ValueError(f"discount gamma_d must be in [0, 1), got {gamma_d}")
        if alpha_e < 0:
            raise ValueError(f"alpha_e must be >= 0, got {alpha_e}")
        if r_clip <= 0:
            raise ValueError(f"r_clip must be positive, got {r_clip}")
        self.n_actions = int(n_actions)
        self.state_dim = int(state_dim)
        self.gamma_d = float(gamma_d)
        self.alpha_e = float(alpha_e)
        self.r_clip = float(r_clip)
        self.eta_W = float(eta_W)
        self.eta_E = float(eta_E)
        self.clip_weights = bool(clip_weights)
        self.circuit = ngc.init_circuit(
            (n_actions, *hidden, state_dim), seed=seed, beta=beta, gamma=gamma, K=K, sigma=sigma
        )
        self.rng = np.random.default_rng(seed)
        self.replay = deque(maxlen=replay_capacity) if replay_capacity > 0 else None
        self.replay_samples = int(replay_samples)

    def _check_state_vec(self, s):
        s = np.asarray(s, dtype=float)
        if s.shape != (self.state_dim,):
            raise ValueError(f"state shape {s.shape} does not match dim {self.state_dim}")
        return s

    def q_values(self, s):
        """Predicted action values: settle with the top layer clamped to s."""
        s = self._check_state_vec(s)
        state = ngc.settle(self.circuit, clamps={self.circuit.L: s})
        return state.mu[0].copy()

    def act(self, q, epsilon):
        """Epsilon-greedy action over the action values ``q``."""
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        if epsilon > 0.0 and self.rng.random() < epsilon:
            return int(self.rng.integers(self.n_actions))
        return greedy_action(q)

    def _apply(self, s, a, r, s_next, done, q_next=None):
        if done:
            y = r
        else:
            if q_next is None:
                q_next = self.q_values(s_next)
            y = r + self.gamma_d * float(np.max(q_next))
        if not np.isfinite(y):
            raise ValueError(f"non-finite learning target {y}")
        state = ngc.settle(self.circuit, clamps={self.circuit.L: s}, pin0={a: y})
        self.circuit = ngc.update_weights(
            self.circuit, state, self.eta_W, self.eta_E, clip=self.clip_weights
        )

    def regress(self, s, targets):
        """Supervised variant: pin every output unit to its target value."""
        s = self._check_state_vec(s)
        targets = np.asarray(targets, dtype=float)
        if targets.shape != (self.n_actions,):
            raise ValueError(f"targets shape {targets.shape} != ({self.n_actions},)")
        if not np.isfinite(targets).all():
            raise ValueError("non-finite regression targets")
        pins = {i: float(t) for i, t in enumerate(targets)}
        state = ngc.settle(self.circuit, clamps={self.circuit.L: s}, pin0=pins)
        self.circuit = ngc.update_weights(
            self.circuit, state, self.eta_W, self.eta_E, clip=self.clip_weights
        )
        return self

    def learn(self, t: Transition, sensory_energy=0.0, q_next=None):
        """One Q-learning update from a transition, plus optional replay.

        The reward is the clipped environment reward plus the epistemic
        bonus.  ``q_next`` may carry precomputed q_values(t.s_next) to skip
        a settle when the caller already has them.
        """
        if not 0 <= t.a < self.n_actions:
            raise ValueError(f"action {t.a} out of range 0..{self.n_actions - 1}")
        s = self._check_state_vec(t.s)
        s_next = self._check_state_vec(t.s_next)
        if not np.isfinite(t.r_env):
            raise ValueError(f"non-finite reward {t.r_env}")
        r = float(np.clip(t.r_env, -self.r_clip, self.r_clip))
        r += epistemic_reward(sensory_energy, self.alpha_e, self.r_clip)
        self._apply(s, t.a, r, s_next, t.done, q_next=q_next)
        if self.replay is not None:
            self.replay.append((s.copy(), int(t.a), r, s_next.copy(), bool(t.done)))
            if self.replay_samples > 0 and len(self.replay) > 1:
                picks = self.rng.integers(len(self.replay), size=self.replay_samples)
                for i in picks:
                    self._apply(*self.replay[int(i)])
        return self
