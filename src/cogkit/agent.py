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

Everything a cycle can change is listed once, in ``_STATE``; rollback
capture and snapshot/restore are both driven by that table.  What no cycle
changes, the two bridges and the unit symbols, is drawn from the config's
seed when an agent is built, so a restore rebuilds it instead of reading it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from . import hrr, memory, ngc, snapshot
from .gate import CompetitiveGate, ContextTracker
from .memory import DeclarativeMemory, WorkingMemoryBuffer
from .motor import MotorCircuit, Transition, epsilon_at, greedy_action

BUFFER_NAMES = ("perception", "retrieval")


@dataclass
class AgentConfig:
    """Everything needed to rebuild an agent's structure from scratch.

    All fields are plain scalars/sequences so the config embeds into the
    snapshot container as JSON.
    """

    obs_dim: int
    n_actions: int
    d: int = 512
    seed: int = 0
    # sensory cortex
    sensory_hidden: tuple = (128,)
    sensory_beta: float = 0.05
    sensory_gamma: float = 0.001
    sensory_K: int = 30
    sensory_sigma: float = 0.05
    sensory_eta_W: float = 0.01
    sensory_eta_E: float = 0.01
    sensory_clip: bool = True
    # motor cortex
    motor_hidden: tuple = ()
    motor_state_dim: int = 64
    motor_beta: float = 0.05
    motor_gamma: float = 0.001
    motor_K: int = 20
    motor_sigma: float = 0.05
    motor_eta_W: float = 0.02
    motor_eta_E: float = 0.02
    motor_clip: bool = False
    gamma_d: float = 0.95
    alpha_e: float = 0.0
    r_clip: float = 1.0
    replay_capacity: int = 0
    replay_samples: int = 0
    # task gate
    theta: float = 1.0
    eta_c: float = 0.05
    M_max: int = 8
    mask_p: float = 0.5
    mask_mode: str = "random"
    gate_metric: str = "euclid"
    context_window: int = 32
    route_wm_encode: bool = True
    route_dm_store: bool = True
    route_dm_retrieve: bool = True
    # memory
    wm_rho: float = 0.9
    dm_tau: float = 0.1
    dm_k: int = 3
    # exploration schedule
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_frac: float = 0.5
    horizon: int = 10_000

    def __post_init__(self):
        self.sensory_hidden = tuple(int(h) for h in self.sensory_hidden)
        self.motor_hidden = tuple(int(h) for h in self.motor_hidden)
        if not self.sensory_hidden:
            raise ValueError("sensory circuit needs at least one hidden layer")


@dataclass
class CognitiveState:
    """Named buffers, working memory, and the cycle counter."""

    buffers: dict
    wm: WorkingMemoryBuffer
    step: int = 0


def _unit_name(k):
    return f"unit{k}"


# ------------------------------------------------------------ state table


class _Part(NamedTuple):
    """One piece of agent state and the snapshot entries that hold it.

    ``take(agent)`` captures it by reference.  Cycles replace arrays and
    circuits rather than writing into them, so only containers they mutate in
    place (lists, dicts, deques) get a shallow copy.  ``put(agent, value)``
    writes a captured or loaded value back.  ``dump(value)`` returns its
    snapshot entries by name (arrays become array entries, anything else JSON
    metadata); ``load(agent, entries)`` reads them back for a freshly built
    ``agent``.
    """

    take: Callable
    put: Callable
    dump: Callable
    load: Callable


def _attr(path, copy=None):
    """(take, put) for the attribute at dotted ``path``; ``copy`` makes the
    capture of a container that is mutated in place."""
    get = attrgetter(path)
    owner, _, name = path.rpartition(".")
    owner = attrgetter(owner) if owner else (lambda agent: agent)
    take = get if copy is None else (lambda agent: copy(get(agent)))
    return take, lambda agent, value: setattr(owner(agent), name, value)


def _refill(path):
    """(take, put) for a bounded deque owned for life: captured as a tuple,
    put back by refilling it in place so its maxlen stays."""
    get = attrgetter(path)

    def put(agent, value):
        dq = get(agent)
        if dq is not None:  # no replay deque at replay_capacity 0
            dq.clear()
            dq.extend(value)

    return (lambda agent: tuple(get(agent) or ())), put


def _one(path, key, out=None, copy=None):
    """A part kept as the single entry ``key``; ``out`` converts its value to
    the stored form."""

    def dump(value):
        return {key: value if out is None else out(value)}

    return _Part(*_attr(path, copy), dump, lambda agent, entries: entries[key])


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

    return _Part(*_attr(path), dump, load)


_REPLAY = ("replay/s", "replay/a", "replay/r", "replay/s_next", "replay/done")


def _dump_replay(entries):
    if not entries:
        return {}
    s, a, r, s_next, done = zip(*entries)
    return dict(zip(_REPLAY, (np.stack(s), np.array(a, dtype=float), np.array(r),
                              np.stack(s_next), np.array(done, dtype=float))))


def _load_replay(agent, entries):
    if "replay/a" not in entries:
        return ()
    return tuple((s, int(a), float(r), s_next, bool(done))
                 for s, a, r, s_next, done in zip(*(entries[k] for k in _REPLAY)))


def _recruited(entries):
    """How many gate units the snapshot holds: one prototype entry each."""
    return sum(name.startswith("gate/prototype/") for name in entries)


def _load_masks(agent, entries):
    layers = sorted(agent.gate.layer_widths)
    return [{layer: entries[f"gate/mask/{k}/{layer}"] for layer in layers}
            for k in range(_recruited(entries))]


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


# Every piece of state a cycle can change.
_STATE = (
    _circuit("sensory", "sensory"),
    _circuit("motor.circuit", "motor"),
    _one("motor.rng.bit_generator.state", "motor/rng_state"),
    _Part(*_refill("motor.replay"), _dump_replay, _load_replay),
    _Part(*_attr("gate.prototypes", list),
          lambda protos: {f"gate/prototype/{k}": w for k, w in enumerate(protos)},
          lambda agent, e: [e[f"gate/prototype/{k}"] for k in range(_recruited(e))]),
    _Part(*_attr("gate.masks", list),
          lambda masks: {f"gate/mask/{k}/{layer}": g
                         for k, mask in enumerate(masks) for layer, g in mask.items()},
          _load_masks),
    _one("gate.saturated", "gate/saturated", out=bool),
    _one("gate.rng.bit_generator.state", "gate/rng_state"),
    _Part(*_attr("dm"), _dump_dm, _load_dm),
    _Part(*_attr("state.buffers", dict),
          lambda bufs: {f"buffer/{n}": bufs[n] for n in BUFFER_NAMES},
          lambda agent, e: {n: e[f"buffer/{n}"] for n in BUFFER_NAMES}),
    _Part(*_attr("state.wm"),
          lambda wm: {"wm/m": wm.m, "wm/position": int(wm.position)},
          lambda agent, e: replace(agent.state.wm, m=e["wm/m"], position=e["wm/position"])),
    _one("state.step", "step", out=int),
    _Part(*_refill("tracker._buf"),
          lambda window: {"ctx/window": np.stack(window)} if window else {},
          lambda agent, e: tuple(e.get("ctx/window", ()))),
    _Part(*_attr("pending"), _dump_pending,
          lambda agent, e: None if e["pending/a"] is None else (e["pending/s"], e["pending/a"])),
    _one("prev_winner", "prev_winner"),
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
        self.state = CognitiveState(
            buffers={name: np.zeros(config.d) for name in BUFFER_NAMES},
            wm=WorkingMemoryBuffer.empty(config.d, rho=config.wm_rho),
        )
        self.pending = None  # (s, a) awaiting its outcome
        self.prev_winner = None
        self.last_winner = None
        self.last_energy = 0.0

    # ---------------------------------------------------------------- cycle

    def _latent(self, settled):
        """Gated top-layer activity through its activation function."""
        L = self.sensory.L
        z = settled.z[L]
        g = settled.mask.get(L)
        if g is not None:
            z = z * g
        return np.tanh(z) if self.sensory.phi[L] == "tanh" else z

    def _project_perception(self, latent):
        v = self.bridge1 @ latent
        n = np.linalg.norm(v)
        return v / n if n > 0 else v

    def _motor_state(self, perception):
        cat = np.concatenate([perception, self.state.buffers["retrieval"], self.state.wm.m])
        s = self.bridge2 @ cat
        n = np.linalg.norm(s)
        return s / n if n > 0 else s

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
        self.state.buffers["perception"] = self._project_perception(latent)
        self.last_energy = settled.energy
        self.prev_winner = self.last_winner
        self.last_winner = winner
        return latent

    def _route(self, winner):
        c = self.config
        if c.route_wm_encode:
            self.state.wm = memory.wm_encode(self.state.wm, self.state.buffers["perception"])
        if c.route_dm_store:
            context = [] if self.prev_winner is None else [_unit_name(self.prev_winner)]
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
                self.state.buffers["retrieval"] = blend / n

    def _rollback(self, cap):
        for part, value in zip(_STATE, cap):
            part.put(self, value)

    @contextmanager
    def _atomic(self):
        """Roll the whole agent back if the block raises."""
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
            self.perceive(obs)
            self._route(self.last_winner)
            s = self._motor_state(self.state.buffers["perception"])
            q = self.motor.q_values(s)
            c = self.config
            eps = epsilon_at(self.state.step, c.horizon, c.eps_start, c.eps_end, c.eps_decay_frac)
            action = self.motor.act(q, eps)
            if self.pending is not None:
                s_prev, a_prev = self.pending
                self.motor.learn(
                    Transition(s=s_prev, a=a_prev, r_env=r_env, s_next=s, done=done),
                    sensory_energy=self.last_energy,
                    q_next=None if done else q,
                )
            self.pending = None if done else (s, action)
            self.state.step += 1
            return action

    def supervised_step(self, obs, targets):
        """Cycle variant for a supervised readout: perceive and route as
        usual, then regress the motor head onto ``targets`` instead of
        running the reward loop.  Returns the greedy action for the
        freshly regressed head."""
        with self._atomic():
            self.perceive(obs)
            self._route(self.last_winner)
            s = self._motor_state(self.state.buffers["perception"])
            self.motor.regress(s, targets)
            q = self.motor.q_values(s)
            self.state.step += 1
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
        writes.  Returns (action, q_values, winner)."""
        obs = np.asarray(obs, dtype=float)
        if obs.shape != (self.config.obs_dim,):
            raise ValueError(f"observation shape {obs.shape} != ({self.config.obs_dim},)")
        ctx = np.asarray(context, dtype=float) if context is not None else self.tracker.context()
        winner, _ = self.gate.match(ctx)
        settled = ngc.settle(self.sensory, clamps={0: obs}, mask=self.gate.mask_for(winner))
        s = self._motor_state(self._project_perception(self._latent(settled)))
        q = self.motor.q_values(s)
        return greedy_action(q), q, winner

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
        agent = cls(AgentConfig(**meta["config"]))
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
