"""The integrated agent: buffers, cycle protocol, and persistence.

One cognitive cycle senses, acts and learns, and each phase lives in one
method:

- ``_percept`` settles the sensory circuit on an observation under the gate
  winner's mask and projects the gated top-layer activity into holographic
  space through a fixed random bridge.  ``perceive`` (which also picks the
  winner and learns) and ``probe`` (a batch, learning nothing) read through it.
- ``_sense`` perceives, then routes: the config's three ``route_*`` flags
  decide which buffer transfers happen, encoding the percept into working
  memory, storing a task-transition fact into declarative memory, and/or
  retrieving an expected next task into the retrieval buffer.  A second
  fixed bridge compresses [perception || retrieval || wm] into the motor
  state; with ``route_wm_encode`` and ``route_dm_retrieve`` both off the
  last two stay zero, and the agent keeps and reads only the bridge's
  percept block.  ``cycle`` and ``supervised_step`` sense through it.
- ``cycle`` acts: the motor head picks an action (``supervised_step``
  regresses the head onto given targets instead).
- ``_learn`` completes the transition begun on the previous cycle and
  passes it to the motor head; ``cycle`` and ``finish`` learn through it.

``cycle(obs, r_env, done)`` therefore treats ``r_env``/``done`` as the
outcome of the PREVIOUS action.  A terminal observation still yields an
action (callers usually discard it and reset), but no new pending transition,
so episodes never bleed into each other.  Any exception inside a cycle rolls
the whole agent back to its pre-cycle state.

Everything a cycle can change is listed once, in ``_STATE``, a table of
attribute paths that drives rollback and snapshot/restore.  A cycle replaces
each of those values and writes into none, except the sensory circuit's
``W[ell]`` and ``E[ell]``: its update writes their open columns and rows,
and the columns a clip divides, in place, after appending what it
overwrites to the block's journal.  So a rollback writes the journal back,
latest first, and then puts back the references it captured.  The circuit
also keeps W's column norms and E's element-wise squares, which a masked
update takes again only where W and E changed since; it writes the
squares in place too.  They are derived: journaled like the weights, never
stored, and taken again from W and E after a restore, so a rolled-back or
resumed agent goes on byte for byte.  What no cycle changes,
the two bridges and the unit symbols, is drawn from the config's seed when
an agent is built, so a restore rebuilds it; it loads the circuits' weights
and draws none.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, field, make_dataclass, replace
from operator import attrgetter
from types import MappingProxyType

import numpy as np

from . import hrr, memory, ngc, snapshot
from .config import AGENT_FIELDS, AGENT_SCHEMA, check, check_vector
from .gate import CompetitiveGate, ContextTracker
from .memory import DeclarativeMemory, WorkingMemoryBuffer
from .motor import MotorCircuit, Transition, epsilon_at, greedy_action


def _check_config(config):
    for key in (*AGENT_FIELDS, *AGENT_SCHEMA):
        setattr(config, key, check(key, getattr(config, key)))
    if not config.sensory_hidden:
        raise ValueError("sensory circuit needs at least one hidden layer")
    if config.theta == "auto":
        raise ValueError("theta 'auto' is calibrated by the runner; "
                         "an AgentConfig needs a number")
    if config.motor_hidden and config.motor_beta == 0.0:
        raise ValueError(f"motor_hidden {config.motor_hidden} cannot learn at motor_beta "
                         f"{config.motor_beta}: its units would never leave 0")


AgentConfig = make_dataclass(
    "AgentConfig",
    [("obs_dim", int), ("n_actions", int),
     *((key, type(default), field(default=default))
       for key, (_, default) in AGENT_SCHEMA.items()),
     ("horizon", int, field(default=10_000))],
    namespace={
        "__doc__": """An agent's structure: ``obs_dim``, ``n_actions``, each key of
        ``config.AGENT_SCHEMA`` with its default, and ``horizon``, each checked
        with its check in ``config``.  Plain scalars and sequences, so it
        embeds in a snapshot as JSON.""",
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
    n = np.linalg.norm(v, axis=0) if v.ndim == 2 else hrr._norm(v)
    return v / np.where(n > 0, n, 1.0)


# ------------------------------------------------------------ state table


class _Part:
    """One piece of agent state, at the dotted attribute ``path``, and the
    snapshot entries that hold it.

    A cycle replaces the value at ``path`` and never writes into it, with
    one exception: the sensory circuit keeps its identity, and its update
    writes ``W[ell]``, ``E[ell]`` and its kept squares of ``E[ell]`` in place
    after journaling what it overwrites (``ngc.update_weights``).  So
    ``take(agent)`` captures a value by reference, a rollback writes the
    journal back, and ``put(agent,
    value)`` sets a captured or loaded value back on its owner.  ``dump(value)`` returns its
    snapshot entries by name (arrays become array entries, anything else JSON
    metadata); ``load(agent, entries)`` reads them back for a freshly built
    ``agent``.  ``entry`` names the stored form in error messages.
    """

    def __init__(self, path, dump, load, entry=None):
        self.take = attrgetter(path)
        owner, _, name = path.rpartition(".")
        owner = attrgetter(owner) if owner else (lambda agent: agent)
        self.put = lambda agent, value: setattr(owner(agent), name, value)
        self.dump = dump
        self.load = load
        self.entry = entry or path


def _one(path, key, out=None):
    """A part kept as the single entry ``key``; ``out`` converts its value to
    the stored form."""

    def dump(value):
        return {key: value if out is None else out(value)}

    return _Part(path, dump, lambda agent, entries: entries[key], entry=key)


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


def _whole(v):
    return type(v) is int and v >= 0  # JSON gives int, never bool, for a count


def _check_entries(config, entries):
    """Reject an entry that no cycle leaves: more gate units than ``M_max``, a
    count below 0, a winner that is not a recruited unit, a pending action out
    of range, a flag that is not a bool, a free energy that is not a finite
    number >= 0, a trace of a name the lexicon lacks, a replay action, flag or
    reward no learn step stores, a vector or replay row of the wrong length, or
    a retrieval or working-memory buffer that is not zero while the routing
    that would fill it is off."""
    units, actions = _recruited(entries), config.n_actions
    names = [_unit_name(k) for k in range(config.M_max)]
    if units > config.M_max:
        raise ValueError(f"bad value for 'gate/prototype/{config.M_max}': {units} gate units, "
                         f"more than M_max {config.M_max}")
    rules = {
        "step": (_whole, "a whole number >= 0"),
        "wm/position": (_whole, "a whole number >= 0"),
        "last_winner": (lambda v: v is None or _whole(v) and v < units,
                        f"None or a recruited unit, 0..{units - 1}"),
        "pending/a": (lambda v: v is None or _whole(v) and v < actions,
                      f"None or an action, 0..{actions - 1}"),
        "gate/saturated": (lambda v: type(v) is bool, "true or false"),
        "last_energy": (lambda v: type(v) in (int, float) and 0 <= v < np.inf,
                        "a finite number >= 0"),
        "dm/trace_names": (lambda v: type(v) is list and all(n in names for n in v),
                           f"a list of lexicon names, {names[0]}..{names[-1]}"),
        "replay/a": (lambda v: ((v % 1 == 0) & (v >= 0) & (v < actions)).all(),
                     f"a whole action, 0..{actions - 1}"),
        "replay/r": (lambda v: np.isfinite(v).all(), "finite"),
        "replay/done": (lambda v: ((v == 0) | (v == 1)).all(), "0 or 1"),
    }
    for name, route in (("buffer/retrieval", "route_dm_retrieve"), ("wm/m", "route_wm_encode")):
        if not getattr(config, route):  # no cycle fills it, and a trimmed bridge2 ignores it
            rules[name] = (lambda v: not np.any(v), f"zero, as {route} is off")
    if "replay/a" in entries:  # the five replay arrays hold one row per transition
        n = getattr(entries["replay/a"], "size", 0)
        for name in _REPLAY:
            want = (n, config.motor_state_dim) if name in ("replay/s", "replay/s_next") else (n,)
            got = getattr(entries.get(name), "shape", "not an array")
            if name in entries and got != want:
                raise ValueError(f"bad shape for {name!r}: {got}, expected {want}")
    for name, (ok, what) in rules.items():
        if name in entries and not ok(entries[name]):
            given = "a row" if isinstance(entries[name], np.ndarray) else repr(entries[name])
            raise ValueError(f"bad value for {name!r}: {given} is not {what}")
    for name in entries.get("dm/trace_names", ()):
        if f"dm/trace/{name}" in entries:
            check_vector(f"dm/trace/{name}", entries[f"dm/trace/{name}"], config.d)
    if "pending/s" in entries:
        check_vector("pending/s", entries["pending/s"], config.motor_state_dim)
    for i, row in enumerate(np.atleast_1d(entries.get("ctx/window", ()))):
        check_vector(f"ctx/window[{i}]", row, config.obs_dim)


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
        self._build(config, draw=True)

    def _build(self, config, draw):
        """Build every part from ``config``.  With ``draw`` False both circuits
        are blank (``ngc.blank_circuit``) instead of seeded draws, for a
        restore to fill; the bridges and the unit symbols are drawn either way,
        ``bridge2`` whole even when only its percept block is kept."""
        self.config = config
        ss = np.random.SeedSequence(config.seed)
        s_sensory, s_motor, s_gate, s_b1, s_b2 = ss.spawn(5)
        sizes = (config.obs_dim, *config.sensory_hidden)
        kind = dict(beta=config.sensory_beta, gamma=config.sensory_gamma, K=config.sensory_K)
        self.sensory = (ngc.init_circuit(sizes, seed=s_sensory, sigma=config.sensory_sigma, **kind)
                        if draw else ngc.blank_circuit(sizes, **kind))
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
            _draw=draw,
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
        if not (config.route_wm_encode or config.route_dm_retrieve):
            # retrieval and wm stay zero, so only the percept's block is read
            self.bridge2 = self.bridge2[:, :config.d].copy()
        self.perception = np.zeros(config.d)  # the percept in holographic space
        self.retrieval = np.zeros(config.d)  # the blend of retrieved unit symbols
        self.wm = WorkingMemoryBuffer.empty(config.d, rho=config.wm_rho)
        self.step = 0  # cycles run
        self.pending = None  # (s, a) awaiting its outcome
        self.last_winner = None
        self.last_energy = 0.0
        self._journal = None  # what an _atomic block overwrote in place; None outside one

    # ---------------------------------------------------------------- cycle

    def _percept(self, obs, mask):
        """The sensory circuit settled on ``obs`` (one per column for a batch)
        under ``mask``, and the percept: its top-layer activity, gated already
        as closed units stay 0, through ``phi`` and ``bridge1``, unit length."""
        settled = ngc.settle(self.sensory, clamps={0: obs}, mask=mask)
        return settled, _unit(self.bridge1 @ ngc.phi(settled.z[self.sensory.L]))

    def _motor_state(self, perception):
        """[perception; retrieval; wm] through ``bridge2``, unit length; only
        the percept when ``bridge2`` holds its block alone (see ``_build``)."""
        if self.bridge2.shape[1] > len(perception):
            shared = (self.retrieval, self.wm.m)
            if perception.ndim == 2:  # a batch, one column each
                shared = [np.broadcast_to(v[:, None], (len(v), perception.shape[1]))
                          for v in shared]
            perception = np.concatenate([perception, *shared])
        return _unit(self.bridge2 @ perception)

    def perceive(self, obs):
        """Gate, settle, learn the sensory circuit; fill the perception buffer.

        Returns the percept it stores.  Also records the settled free energy
        (the epistemic signal) and the winning gate unit.  On a failure the
        agent is rolled back, as by a cycle.
        """
        with self._atomic():
            context = self.tracker.update(obs)  # checks obs
            if self.gate.active_count and len(self.tracker) < self.config.context_window:
                # novelty is undefined while the running mean is still forming;
                # match against existing units but do not recruit on warm-up jitter
                winner, _ = self.gate.match(context)
            else:
                winner = self.gate.select_or_recruit(context)
            self.gate.update_winner(winner, context)
            settled, percept = self._percept(obs, self.gate.mask_for(winner))
            self.sensory = ngc.update_weights(
                self.sensory,
                settled,
                self.config.sensory_eta_W,
                self.config.sensory_eta_E,
                clip=self.config.sensory_clip,
                journal=self._journal,
            )
            self.perception = percept
            self.last_energy = settled.energy
            self.last_winner = winner
            return percept

    def _sense(self, obs):
        """Perceive, route from the previous winner; returns the motor state."""
        prev_winner = self.last_winner
        self.perceive(obs)
        self._route(prev_winner, self.last_winner)
        return self._motor_state(self.perception)

    def _learn(self, r_env, s_next, done, q_next=None):
        """Complete the pending transition, learn from it and clear it."""
        s, a = self.pending
        self.motor.learn(Transition(s=s, a=a, r_env=r_env, s_next=s_next, done=done),
                         sensory_energy=self.last_energy, q_next=q_next)
        self.pending = None

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
            n = hrr._norm(blend)
            if n > 0:
                self.retrieval = blend / n

    def _rollback(self, cap):
        ngc.undo(self._journal)
        for part, value in zip(_STATE, cap):
            part.put(self, value)

    @contextmanager
    def _atomic(self):
        """Roll the whole agent back if the block raises: write back what the
        sensory update overwrote in place, from the block's journal, then put
        back the value each part held before.  The journal is dropped when
        the block ends.  A block inside another captures nothing and shares
        the outer one's journal: the outer one rolls back."""
        if self._journal is not None:
            yield
            return
        cap = [part.take(self) for part in _STATE]
        self._journal = []
        try:
            yield
        except Exception:
            self._rollback(cap)
            raise
        finally:
            self._journal = None

    def cycle(self, obs, r_env=0.0, done=False):
        """One full cognitive cycle; returns the chosen action.

        ``r_env`` and ``done`` describe the outcome of the previous cycle's
        action and complete its pending transition before a new action is
        chosen.  On any component failure the agent state is rolled back.
        """
        with self._atomic():
            s = self._sense(obs)
            q = self.motor.q_values(s)
            c = self.config
            eps = epsilon_at(self.step, c.horizon, c.eps_start, c.eps_end, c.eps_decay_frac)
            action = self.motor.act(q, eps)
            if self.pending is not None:
                self._learn(r_env, s, done, q_next=None if done else q)
            self.pending = None if done else (s, action)
            self.step += 1
            return action

    def supervised_step(self, obs, targets):
        """Cycle variant for a supervised readout: perceive and route as
        usual, then regress the motor head onto ``targets`` instead of
        running the reward loop.  Returns the greedy action for the
        freshly regressed head."""
        with self._atomic():
            s = self._sense(obs)
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
            self._learn(r_env, self.pending[0], done)

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
        _, percept = self._percept(np.atleast_2d(obs).T, self.gate.mask_for(winner))
        q = self.motor.q_values(self._motor_state(percept)).T
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

        The agent is built from the embedded config with both circuits blank:
        their weights come from the snapshot, so none are drawn.  Entries are
        read by name, so ones this code no longer writes are ignored.  An
        array whose shape differs from the same entry of that agent, or from
        what the config gives a recruited gate unit's prototype and masks, is
        rejected.  Units are counted by their prototype entries, so a gate
        array beyond that count (a unit whose prototype is missing) is
        rejected too, and so is a snapshot that lacks an entry the restore
        reads, or holds more units than ``M_max``, or a count, winner, pending
        action, flag, free energy, trace, replay row, pending state, context
        row or memory buffer that no cycle leaves (see ``_check_entries``).
        Each error names the entry.
        """
        arrays, meta, _seed = snapshot.read_snapshot(data)
        if "config" not in meta:
            raise ValueError("snapshot entry 'config' is missing")
        try:
            config = AgentConfig(**meta["config"])
        except TypeError as exc:  # not a mapping, or a key unknown or missing
            raise ValueError(f"snapshot entry 'config' is damaged: {exc}") from None
        agent = cls.__new__(cls)
        agent._build(config, draw=False)  # the snapshot holds both circuits' weights
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
        _check_entries(config, entries)
        for part in _STATE:
            try:
                value = part.load(agent, entries)
            except KeyError as exc:
                raise ValueError(f"snapshot entry {exc.args[0]!r} is missing") from None
            try:
                part.put(agent, value)  # an RNG's state setter checks what it is given
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"snapshot entry {part.entry!r} is damaged: "
                                 f"{type(exc).__name__}: {exc}") from None
        return agent
