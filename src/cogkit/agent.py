"""The integrated agent: buffers, cycle protocol, and persistence.

One cognitive cycle runs perceive -> route -> act -> learn.  Perception
settles the sensory circuit on the observation under the gate winner's mask
and projects the gated top-layer activity into holographic space through a
fixed random bridge.  The config's three ``route_*`` flags then decide which
buffer transfers happen: encoding the percept into working memory, storing a
task-transition fact into declarative memory, and/or retrieving an expected
next task into the retrieval buffer.  A second fixed bridge compresses
[perception || retrieval || wm] into the motor state, the motor head picks an
action, and the transition begun on the previous cycle is completed and
learned from.

``cycle(obs, r_env, done)`` therefore treats ``r_env``/``done`` as the
outcome of the PREVIOUS action.  A terminal observation still yields an
action (callers usually discard it and reset), but no new pending transition,
so episodes never bleed into each other.  Any exception inside a cycle rolls
the whole agent back to its pre-cycle state.

Everything a cycle can change is listed once, in ``_STATE``, a table of
attribute paths that drives rollback and snapshot/restore.  A cycle replaces
each of those values and never writes into one, so rollback holds references
only.  What no cycle changes, the two bridges and the unit symbols, is drawn
from the config's seed when an agent is built, so a restore rebuilds it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, field, make_dataclass, replace
from operator import attrgetter
from types import MappingProxyType

import numpy as np

from . import hrr, memory, ngc, snapshot
from .config import AGENT_SCHEMA, check
from .gate import CompetitiveGate, ContextTracker
from .memory import DeclarativeMemory, WorkingMemoryBuffer
from .motor import MotorCircuit, Transition, epsilon_at, greedy_action


def _check_config(config):
    for key in AGENT_SCHEMA:
        setattr(config, key, check(key, getattr(config, key)))
    if not config.sensory_hidden:
        raise ValueError("sensory circuit needs at least one hidden layer")
    if config.theta == "auto":
        raise ValueError("theta 'auto' is calibrated by the runner; "
                         "an AgentConfig needs a number")


AgentConfig = make_dataclass(
    "AgentConfig",
    [("obs_dim", int), ("n_actions", int),
     *((key, type(default), field(default=default))
       for key, (_, default) in AGENT_SCHEMA.items()),
     ("horizon", int, field(default=10_000))],
    namespace={
        "__doc__": """An agent's structure: ``obs_dim``, ``n_actions``, each key of
        ``config.AGENT_SCHEMA`` with its default and check, and ``horizon``.
        Plain scalars and sequences, so it embeds in a snapshot as JSON.""",
        "__module__": __name__,
        "__post_init__": _check_config,
    },
)


def _unit_name(k):
    return f"unit{k}"


def _unit(v):
    """``v`` over its norm, each column on its own when ``v`` is a batch; a
    zero vector stays zero.  A single vector keeps the 1-d norm, which adds
    its squares in another order than the column norms."""
    n = np.linalg.norm(v, axis=0) if v.ndim == 2 else np.linalg.norm(v)
    return v / np.where(n > 0, n, 1.0)


# ------------------------------------------------------------ state table


class _Part:
    """One piece of agent state, at the dotted attribute ``path``, and the
    snapshot entries that hold it.

    A cycle replaces the value at ``path`` and never writes into it, so
    ``take(agent)`` captures it by reference and ``put(agent, value)`` sets a
    captured or loaded value back on its owner.  ``dump(value)`` returns its
    snapshot entries by name (arrays become array entries, anything else JSON
    metadata); ``load(agent, entries)`` reads them back for a freshly built
    ``agent``.
    """

    def __init__(self, path, dump, load):
        self.take = attrgetter(path)
        owner, _, name = path.rpartition(".")
        owner = attrgetter(owner) if owner else (lambda agent: agent)
        self.put = lambda agent, value: setattr(owner(agent), name, value)
        self.dump = dump
        self.load = load


def _one(path, key, out=None):
    """A part kept as the single entry ``key``; ``out`` converts its value to
    the stored form."""

    def dump(value):
        return {key: value if out is None else out(value)}

    return _Part(path, dump, lambda agent, entries: entries[key])


def _circuit(path, prefix):
    """A circuit kept as ``<prefix>/W<ell>`` and ``<prefix>/E<ell>`` arrays;
    its structure comes from the rebuilt agent."""
    get = attrgetter(path)

    def dump(c):
        return {f"{prefix}/{m}{ell}": getattr(c, m)[ell]
                for ell in range(1, c.L + 1) for m in "WE"}

    def load(agent, entries):
        c = get(agent)
        layers = range(1, c.L + 1)
        return replace(c, W=c.W[:1] + [entries[f"{prefix}/W{ell}"] for ell in layers],
                       E=c.E[:1] + [entries[f"{prefix}/E{ell}"] for ell in layers])

    return _Part(path, dump, load)


_REPLAY = ("replay/s", "replay/a", "replay/r", "replay/s_next", "replay/done")


def _dump_replay(entries):
    if not entries:
        return {}
    s, a, r, s_next, done = zip(*entries)
    return dict(zip(_REPLAY, (np.stack(s), np.array(a, dtype=float), np.array(r),
                              np.stack(s_next), np.array(done, dtype=float))))


def _load_replay(agent, entries):
    """The stored transitions, the latest ``replay_capacity`` of them."""
    capacity = agent.motor.replay_capacity
    if not capacity or "replay/a" not in entries:
        return ()
    return tuple((s, int(a), float(r), s_next, bool(done))
                 for s, a, r, s_next, done in zip(*(entries[k] for k in _REPLAY)))[-capacity:]


def _recruited(entries):
    """How many gate units the snapshot holds: one prototype entry each."""
    return sum(name.startswith("gate/prototype/") for name in entries)


def _load_masks(agent, entries):
    """The recruited units' masks, read-only; each is 0/1 and opens a unit,
    as the gate makes them."""
    layers = sorted(agent.gate.layer_widths)
    masks = tuple({layer: entries[f"gate/mask/{k}/{layer}"] for layer in layers}
                  for k in range(_recruited(entries)))
    for k, mask in enumerate(masks):
        for layer, g in mask.items():
            if not (((g == 0.0) | (g == 1.0)).all() and g.any()):
                raise ValueError(f"snapshot entry 'gate/mask/{k}/{layer}' "
                                 "is not a 0/1 mask opening a unit")
            g.flags.writeable = False
    return tuple(MappingProxyType(mask) for mask in masks)


def _dump_dm(dm):
    return {**{f"dm/trace/{n}": trace for n, trace in dm.traces.items()},
            "dm/trace_names": list(dm.traces)}


def _load_dm(agent, entries):
    traces = {n: entries[f"dm/trace/{n}"] for n in entries["dm/trace_names"]}
    return replace(agent.dm, traces=traces)


def _dump_pending(pending):
    if pending is None:
        return {"pending/a": None}
    return {"pending/s": pending[0], "pending/a": int(pending[1])}


# Every piece of state a cycle can change; an RNG's state reads as a fresh dict.
_STATE = (
    _circuit("sensory", "sensory"),
    _circuit("motor.circuit", "motor"),
    _one("motor.rng.bit_generator.state", "motor/rng_state"),
    _Part("motor.replay", _dump_replay, _load_replay),
    _Part("gate.prototypes",
          lambda protos: {f"gate/prototype/{k}": w for k, w in enumerate(protos)},
          lambda agent, e: tuple(e[f"gate/prototype/{k}"] for k in range(_recruited(e)))),
    _Part("gate.masks",
          lambda masks: {f"gate/mask/{k}/{layer}": g
                         for k, mask in enumerate(masks) for layer, g in mask.items()},
          _load_masks),
    _one("gate.saturated", "gate/saturated", out=bool),
    _one("gate.rng.bit_generator.state", "gate/rng_state"),
    _Part("dm", _dump_dm, _load_dm),
    _one("perception", "buffer/perception"),
    _one("retrieval", "buffer/retrieval"),
    _Part("wm",
          lambda wm: {"wm/m": wm.m, "wm/position": int(wm.position)},
          lambda agent, e: replace(agent.wm, m=e["wm/m"], position=e["wm/position"])),
    _one("step", "step", out=int),
    _Part("tracker.window",
          lambda window: {"ctx/window": np.stack(window)} if window else {},
          lambda agent, e: tuple(e.get("ctx/window", ()))[-agent.tracker.capacity:]),
    _Part("pending", _dump_pending,
          lambda agent, e: None if e["pending/a"] is None else (e["pending/s"], e["pending/a"])),
    _one("last_winner", "last_winner"),
    _one("last_energy", "last_energy", out=float),
)


class Agent:
    """Common-model agent wiring sensory, gate, memory, and motor modules."""

    def __init__(self, config: AgentConfig):
        self.config = config
        ss = np.random.SeedSequence(config.seed)
        s_sensory, s_motor, s_gate, s_b1, s_b2 = ss.spawn(5)
        self.sensory = ngc.init_circuit(
            (config.obs_dim, *config.sensory_hidden),
            seed=s_sensory,
            beta=config.sensory_beta,
            gamma=config.sensory_gamma,
            K=config.sensory_K,
            sigma=config.sensory_sigma,
        )
        self.motor = MotorCircuit(
            config.n_actions,
            config.motor_state_dim,
            hidden=config.motor_hidden,
            seed=s_motor,
            gamma_d=config.gamma_d,
            alpha_e=config.alpha_e,
            r_clip=config.r_clip,
            eta_W=config.motor_eta_W,
            eta_E=config.motor_eta_E,
            beta=config.motor_beta,
            gamma=config.motor_gamma,
            K=config.motor_K,
            sigma=config.motor_sigma,
            clip_weights=config.motor_clip,
            replay_capacity=config.replay_capacity,
            replay_samples=config.replay_samples,
        )
        widths = {i + 1: w for i, w in enumerate(config.sensory_hidden)}
        self.gate = CompetitiveGate(
            context_dim=config.obs_dim,
            layer_widths=widths,
            theta=config.theta,
            eta_c=config.eta_c,
            M_max=config.M_max,
            p=config.mask_p,
            mask_mode=config.mask_mode,
            metric=config.gate_metric,
            seed=s_gate,
        )
        self.lexicon = hrr.SymbolLexicon(
            config.d, seed=config.seed, names=[_unit_name(k) for k in range(config.M_max)]
        )
        self.dm = DeclarativeMemory(lexicon=self.lexicon)
        self.tracker = ContextTracker(config.obs_dim, window=config.context_window)
        top = config.sensory_hidden[-1]
        rng1 = np.random.default_rng(s_b1)
        self.bridge1 = rng1.normal(scale=1.0 / np.sqrt(top), size=(config.d, top))
        rng2 = np.random.default_rng(s_b2)
        self.bridge2 = rng2.normal(
            scale=1.0 / np.sqrt(3 * config.d), size=(config.motor_state_dim, 3 * config.d)
        )
        self.perception = np.zeros(config.d)  # the percept in holographic space
        self.retrieval = np.zeros(config.d)  # the blend of retrieved unit symbols
        self.wm = WorkingMemoryBuffer.empty(config.d, rho=config.wm_rho)
        self.step = 0  # cycles run
        self.pending = None  # (s, a) awaiting its outcome
        self.last_winner = None
        self.last_energy = 0.0

    # ---------------------------------------------------------------- cycle

    def _latent(self, settled):
        """Top-layer activity through its activation function; it is gated
        already, as nothing predicts the top layer and closed units stay 0."""
        L = self.sensory.L
        return ngc._apply_phi(self.sensory.phi[L], settled.z[L])

    def _project_perception(self, latent):
        return _unit(self.bridge1 @ latent)

    def _motor_state(self, perception):
        shared = np.concatenate([self.retrieval, self.wm.m])
        if perception.ndim == 2:  # a batch, one column each
            shared = np.repeat(shared[:, None], perception.shape[1], axis=1)
        return _unit(self.bridge2 @ np.concatenate([perception, shared]))

    def perceive(self, obs):
        """Gate, settle, learn the sensory circuit; fill the perception buffer.

        Returns the holographic latent.  Also records the settled free energy
        (the epistemic signal) and the winning gate unit.
        """
        obs = np.asarray(obs, dtype=float)
        if obs.shape != (self.config.obs_dim,):
            raise ValueError(f"observation shape {obs.shape} != ({self.config.obs_dim},)")
        context = self.tracker.update(obs)
        if self.gate.active_count and len(self.tracker) < self.config.context_window:
            # novelty is undefined while the running mean is still forming;
            # match against existing units but do not recruit on warm-up jitter
            winner, _ = self.gate.match(context)
        else:
            winner = self.gate.select_or_recruit(context)
        self.gate.update_winner(winner, context)
        mask = self.gate.mask_for(winner)
        settled = ngc.settle(self.sensory, clamps={0: obs}, mask=mask)
        self.sensory = ngc.update_weights(
            self.sensory,
            settled,
            self.config.sensory_eta_W,
            self.config.sensory_eta_E,
            clip=self.config.sensory_clip,
        )
        latent = self._latent(settled)
        self.perception = self._project_perception(latent)
        self.last_energy = settled.energy
        self.last_winner = winner
        return latent

    def _route(self, prev_winner, winner):
        c = self.config
        if c.route_wm_encode:
            self.wm = memory.wm_encode(self.wm, self.perception)
        if c.route_dm_store:
            context = [] if prev_winner is None else [_unit_name(prev_winner)]
            self.dm = memory.dm_store(self.dm, _unit_name(winner), context)
        if c.route_dm_retrieve and self.dm.traces:
            cue = hrr.permute(self.lexicon[_unit_name(winner)], 1)
            result = memory.dm_retrieve(self.dm, cue, k=c.dm_k, tau=c.dm_tau)
            blend = sum(
                float(w) * self.lexicon[name]
                for (name, _), w in zip(result.ranked, result.strengths)
            )
            n = np.linalg.norm(blend)
            if n > 0:
                self.retrieval = blend / n

    def _rollback(self, cap):
        for part, value in zip(_STATE, cap):
            part.put(self, value)

    @contextmanager
    def _atomic(self):
        """Roll the whole agent back if the block raises, by putting back the
        value each part held before it."""
        cap = [part.take(self) for part in _STATE]
        try:
            yield
        except Exception:
            self._rollback(cap)
            raise

    def cycle(self, obs, r_env=0.0, done=False):
        """One full cognitive cycle; returns the chosen action.

        ``r_env`` and ``done`` describe the outcome of the previous cycle's
        action and complete its pending transition before a new action is
        chosen.  On any component failure the agent state is rolled back.
        """
        with self._atomic():
            prev_winner = self.last_winner
            self.perceive(obs)
            self._route(prev_winner, self.last_winner)
            s = self._motor_state(self.perception)
            q = self.motor.q_values(s)
            c = self.config
            eps = epsilon_at(self.step, c.horizon, c.eps_start, c.eps_end, c.eps_decay_frac)
            action = self.motor.act(q, eps)
            if self.pending is not None:
                s_prev, a_prev = self.pending
                self.motor.learn(
                    Transition(s=s_prev, a=a_prev, r_env=r_env, s_next=s, done=done),
                    sensory_energy=self.last_energy,
                    q_next=None if done else q,
                )
            self.pending = None if done else (s, action)
            self.step += 1
            return action

    def supervised_step(self, obs, targets):
        """Cycle variant for a supervised readout: perceive and route as
        usual, then regress the motor head onto ``targets`` instead of
        running the reward loop.  Returns the greedy action for the
        freshly regressed head."""
        with self._atomic():
            prev_winner = self.last_winner
            self.perceive(obs)
            self._route(prev_winner, self.last_winner)
            s = self._motor_state(self.perception)
            self.motor.regress(s, targets)
            q = self.motor.q_values(s)
            self.step += 1
            return greedy_action(q)

    def finish(self, r_env, done=True):
        """Flush the pending transition when a stream ends without a
        successor observation."""
        if self.pending is None:
            return
        with self._atomic():
            s_prev, a_prev = self.pending
            self.motor.learn(
                Transition(s=s_prev, a=a_prev, r_env=r_env, s_next=s_prev, done=done),
                sensory_energy=self.last_energy,
            )
            self.pending = None

    def probe(self, obs, context=None):
        """Evaluation-only readout: no learning, no recruitment, no buffer
        writes.  Returns (action, q_values, winner).

        ``obs`` may also be a batch, one observation per row, read under one
        context.  Either way one pipeline runs: one gate match, one sensory
        settle of the batch, both bridges as matrices, one motor settle.  For
        a batch the actions come back as a list and the q-values as an array,
        one row per observation.
        """
        obs = np.asarray(obs, dtype=float)
        if obs.ndim not in (1, 2) or obs.shape[-1] != self.config.obs_dim:
            raise ValueError(f"observation shape {obs.shape} != ([batch,] {self.config.obs_dim})")
        ctx = np.asarray(context, dtype=float) if context is not None else self.tracker.context()
        winner, _ = self.gate.match(ctx)
        mask = self.gate.mask_for(winner)
        settled = ngc.settle(self.sensory, clamps={0: np.atleast_2d(obs).T}, mask=mask)
        s = self._motor_state(self._project_perception(self._latent(settled)))
        q = self.motor.q_values(s).T
        actions = [greedy_action(row) for row in q]
        return (actions[0], q[0], winner) if obs.ndim == 1 else (actions, q, winner)

    # ------------------------------------------------------------ snapshot

    def _entries(self):
        entries = {"config": asdict(self.config)}
        for part in _STATE:
            entries.update(part.dump(part.take(self)))
        return entries

    def snapshot(self):
        """Serialize the config and every parameter, buffer, counter and RNG
        state a cycle can change."""
        entries = self._entries()
        arrays = {k: v for k, v in entries.items() if isinstance(v, np.ndarray)}
        meta = {k: v for k, v in entries.items() if k not in arrays}
        return snapshot.write_snapshot(arrays, meta, seed=self.config.seed)

    @classmethod
    def restore(cls, data):
        """Rebuild an agent that behaves identically to the snapshotted one.

        Entries are read by name, so ones this code no longer writes are
        ignored.  An array whose shape differs from the same entry of an agent
        freshly built from the embedded config, or from what the config gives
        a recruited gate unit's prototype and masks, is rejected.  Units are
        counted by their prototype entries, so a gate array beyond that count
        (a unit whose prototype is missing) is rejected too, and so is a
        snapshot that lacks an entry the restore reads.
        """
        arrays, meta, _seed = snapshot.read_snapshot(data)
        if "config" not in meta:
            raise ValueError("snapshot entry 'config' is missing")
        try:
            config = AgentConfig(**meta["config"])
        except TypeError as exc:  # not a mapping, or a key unknown or missing
            raise ValueError(f"snapshot entry 'config' is damaged: {exc}") from None
        agent = cls(config)
        shapes = {name: np.shape(own) for name, own in agent._entries().items()}
        for k in range(_recruited(arrays)):
            shapes[f"gate/prototype/{k}"] = (agent.gate.context_dim,)
            for layer, width in agent.gate.layer_widths.items():
                shapes[f"gate/mask/{k}/{layer}"] = (width,)
        for name, shape in shapes.items():
            if name in arrays and arrays[name].shape != shape:
                raise ValueError(f"snapshot entry {name!r} has shape {arrays[name].shape}, "
                                 f"the config gives {shape}")
        stray = sorted(name for name in arrays if name.startswith("gate/") and name not in shapes)
        if stray:
            raise ValueError(f"snapshot entries {stray} belong to no recruited gate unit")
        entries = {**arrays, **meta}
        for part in _STATE:
            try:
                value = part.load(agent, entries)
            except KeyError as exc:
                raise ValueError(f"snapshot entry {exc.args[0]!r} is missing") from None
            part.put(agent, value)
        return agent
