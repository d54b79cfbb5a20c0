"""Motor cortex: action values read out of a generative circuit.

The motor circuit is an NGC stack whose top layer is clamped to the current
state representation and whose layer 0 holds one unit per action.  Settling
with nothing pinned yields Q-value predictions; learning pins the taken
action's unit to a bootstrapped target so that exactly one error row drives
the weight update.  Exploration and replay sampling draw from one seeded
generator, which is what makes whole episodes replayable.  The replay store
``replay`` is a tuple that each learn step replaces, as it does the circuit.

With no hidden layer (``hidden=()``, every shipped config) nothing in the
circuit can move, so a settle runs no pass: Q is ``W[1] @ phi(s)``, and a
learn step's error is the pinned targets minus that prediction, zero at
every other unit.  Such a head computes both directly, without a settle,
and learns by swapping in new ``W[1]`` and ``E[1]`` built by
``ngc._swapped``, the step ``ngc.update_weights`` takes for every layer (on
a masked layer's open block): the same checks, messages and element-wise
sums, so the same bytes.  A head
with hidden layers settles and learns through ``ngc``, whose update swaps
new arrays into a new circuit for a layer with no mask.  Either way a learn
step writes into no array and replaces the circuit: a rollback puts it back.

``q_values``, ``learn`` and ``regress`` check what their caller gives them
and run ``_q_values``, ``_learn`` and ``_regress``, which the agent calls on
the motor states it made: those check only the reward and the targets, which
come from the agent's caller.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import ngc
from .config import check, check_vector


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
    return int(np.asarray(q, dtype=float).argmax())


def epistemic_reward(sensory_energy, alpha_e, r_clip):
    """Clipped curiosity bonus: min(alpha_e * energy, r_clip)."""
    if not 0 <= sensory_energy < np.inf:  # also false for NaN
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
    (layer 0) and the state layer (top).  ``replay_capacity`` > 0 keeps up
    to that many past transitions in ``replay``; each learn step then also
    replays ``replay_samples`` of them with fresh bootstrapped targets.
    Each argument a config key sets is checked with that key's check, and a
    hidden layer needs ``beta`` > 0 to learn.  ``_draw`` False leaves the
    weights blank for a restore to load (``ngc.blank_circuit``).
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
        *,
        _draw=True,
    ):
        self.n_actions = int(check("n_actions", n_actions))
        self.state_dim = int(check("motor_state_dim", state_dim, name="state_dim"))
        self.gamma_d = float(check("gamma_d", gamma_d))
        self.alpha_e = float(check("alpha_e", alpha_e))
        self.r_clip = float(check("r_clip", r_clip))
        self.eta_W = float(check("motor_eta_W", eta_W, name="eta_W"))
        self.eta_E = float(check("motor_eta_E", eta_E, name="eta_E"))
        self.clip_weights = check("motor_clip", clip_weights, name="clip_weights")
        sizes = (n_actions, *hidden, state_dim)
        self.circuit = (
            ngc.init_circuit(sizes, seed=seed, beta=beta, gamma=gamma, K=K, sigma=sigma)
            if _draw else ngc.blank_circuit(sizes, beta=beta, gamma=gamma, K=K)
        )
        if hidden and beta == 0.0:
            raise ValueError(f"hidden layers {tuple(hidden)} cannot learn at beta {beta}: "
                             "their units would never leave 0")
        self.rng = np.random.default_rng(seed)
        self.replay_capacity = int(check("replay_capacity", replay_capacity))
        self.replay = ()
        self.replay_samples = int(check("replay_samples", replay_samples))

    def q_values(self, s):
        """Predicted action values: settle with the top layer clamped to s,
        or to a batch of states, one per column.  With no hidden layer that
        settle runs no pass, and its prediction is ``W[1] @ phi(s)``."""
        return self._q_values(self._clamp(s))

    def _q_values(self, s):
        """``q_values`` of a float64 state or batch of the top layer's width
        whose entries are finite and within 1e6, checking none of that."""
        c = self.circuit
        if c.L > 1:
            return ngc._settle(c, {c.L: s}, {}).mu[0].copy()
        q = c.W[1] @ ngc.phi(s)
        ngc._check_bounded(q, c.beta)  # the settle's check of the layer 0 that tracks it
        return q

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
                q_next = self._q_values(s_next)
            y = r + self.gamma_d * float(np.maximum.reduce(q_next))  # np.max's value
        if not np.isfinite(y):
            raise ValueError(f"non-finite learning target {y}")
        self._fit(s, {a: y})

    def _clamp(self, s):
        """``s`` as the clamp of the top layer, checked as a settle checks it."""
        s = ngc._check_layer_vec(self.circuit, self.circuit.L, s, "clamp")
        ngc._check_given(self.circuit.L, s, "clamp")
        return s

    def _fit(self, s, pins):
        """Settle on state ``s``, a clamp as ``_clamp`` leaves it, with
        output units held at ``pins``, whole units mapped to floats, then
        update the weights from the settled errors.  It checks neither.
        With no hidden layer the settle is the prediction ``mu`` with the
        pins written in, so only the pinned units carry error, and the update
        is one rank-one change of each matrix, swapped into a new circuit
        (``ngc._swapped``)."""
        c = self.circuit
        if c.L > 1:
            state = ngc._settle(c, {c.L: s}, {}, pin0=pins)
            self.circuit = ngc.update_weights(c, state, self.eta_W, self.eta_E,
                                              clip=self.clip_weights)
            return
        pre = ngc.phi(s)
        mu = c.W[1] @ pre
        z0 = mu.copy()
        for idx, val in pins.items():
            z0[idx] = val
        ngc._check_bounded(z0, c.beta)
        W, E = ngc._swapped(c.W[1], c.E[1], pre, z0 - mu, self.eta_W, self.eta_E,
                            self.clip_weights)
        self.circuit = ngc.NgcCircuit(c.sizes, [None, W], [None, E], c.beta, c.gamma, c.K)

    def regress(self, s, targets):
        """Supervised variant: pin every output unit to its target value."""
        s = check_vector("s", s, self.state_dim)
        return self._regress(self._clamp(s), targets)

    def _regress(self, s, targets):
        """``regress`` of a state as ``_clamp`` leaves it, unchecked, onto
        ``targets``, which come from the caller and so are checked."""
        targets = check_vector("targets", targets, self.n_actions)
        if not np.isfinite(targets).all():
            raise ValueError("non-finite regression targets")
        self._fit(s, {i: float(t) for i, t in enumerate(targets)})
        return self

    def learn(self, t: Transition, sensory_energy=0.0, q_next=None):
        """One Q-learning update from a transition, plus optional replay.

        The reward is the clipped environment reward plus the epistemic
        bonus.  ``q_next`` may carry precomputed q_values(t.s_next) to skip
        a settle when the caller already has them.  The action is taken as
        the whole number it stands for, so ``True`` pins unit 1.
        """
        a = operator.index(t.a)
        if not 0 <= a < self.n_actions:
            raise ValueError(f"action {t.a} out of range 0..{self.n_actions - 1}")
        s = check_vector("t.s", t.s, self.state_dim)
        s_next = check_vector("t.s_next", t.s_next, self.state_dim)
        if not t.done and q_next is None:  # the state whose values the target reads
            self._clamp(s_next)
        return self._learn(self._clamp(s), a, t.r_env, s_next, t.done, sensory_energy, q_next)

    def _learn(self, s, a, r_env, s_next, done, sensory_energy=0.0, q_next=None):
        """``learn`` of states as ``_clamp`` leaves them and a whole action
        in range, checking none of them; ``r_env`` comes from the caller and
        so is checked.  A replayed transition's ``s_next`` is checked as
        ``learn`` checks it, as it may have been stored unchecked."""
        if not np.isfinite(r_env):
            raise ValueError(f"non-finite reward {r_env}")
        r = min(max(float(r_env), -self.r_clip), self.r_clip)
        r += epistemic_reward(sensory_energy, self.alpha_e, self.r_clip)
        self._apply(s, a, r, s_next, done, q_next=q_next)
        if self.replay_capacity > 0:
            kept = (s.copy(), a, r, s_next.copy(), bool(done))
            self.replay = (*self.replay, kept)[-self.replay_capacity:]
            if self.replay_samples > 0 and len(self.replay) > 1:
                picks = self.rng.integers(len(self.replay), size=self.replay_samples)
                for i in picks:
                    s, a, r, s_next, done = self.replay[int(i)]
                    self._apply(s, a, r, s_next if done else self._clamp(s_next), done)
        return self
