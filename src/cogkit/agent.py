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
  state.  With ``route_wm_encode`` and ``route_dm_retrieve`` both off the
  last two stay zero and nothing reads the percept, so the two bridges fold
  into one small matrix: the motor state is the top-layer activity through
  ``fold``, unit length, and the cycle forms no percept and leaves the
  perception buffer as it was.  ``cycle`` and ``supervised_step`` sense
  through it.
- ``cycle`` acts: the motor head picks an action (``supervised_step``
  regresses the head onto given targets instead).
- ``_learn`` completes the transition begun on the previous cycle and
  passes it to the motor head; ``cycle`` and ``finish`` learn through it.

Arguments are checked at the boundary.  ``cycle``, ``perceive``,
``supervised_step``, ``probe`` and ``finish`` check what their caller gives
them: the observation (its shape in the tracker, its values as a settle
checks a clamp), a probe's context, the reward and the regression targets.
Past them the agent's internal calls are not checked: each public function
``f`` of ``ngc``, ``gate``, ``hrr``, ``memory`` and ``motor`` that a cycle
runs is ``f``'s checks and then ``_f``, and the agent calls ``_f``, through
its module or class, on the values it made itself.  The context it makes is
checked once, by the gate.

``cycle(obs, r_env, done)`` therefore treats ``r_env``/``done`` as the
outcome of the PREVIOUS action.  A terminal observation still yields an
action (callers usually discard it and reset), but no new pending transition,
so episodes never bleed into each other.  Any exception inside a cycle rolls
the whole agent back to its pre-cycle state.

Everything a cycle can change is listed once, in ``_STATE``: a table of
attribute paths that drives rollback, each with the rows of the snapshot
entries that hold it, which drive snapshot and restore.  A cycle replaces
each of those values and writes into none, except the sensory circuit's
``W[ell]`` and ``E[ell]`` under a mask: a masked update writes their open
columns and rows in place.  One rule undoes a cycle: the sensory update is
the last step of ``cycle``, ``supervised_step`` and ``perceive``, and it
undoes its own writes if it fails (``ngc.update_weights``), so a rollback
only puts back every captured reference.  What no cycle changes,
the two bridges and the unit symbols, is drawn from the config's seed when
an agent is built, and the fold formed from the bridges, so a restore
rebuilds it the same way; it loads the circuits' weights and draws none.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, field, make_dataclass, replace
from itertools import count
from operator import attrgetter
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import hrr, memory, ngc, snapshot
from .config import AGENT_FIELDS, AGENT_SCHEMA, check
from .gate import CompetitiveGate, ContextTracker
from .memory import DeclarativeMemory, WorkingMemoryBuffer
from .motor import MotorCircuit, epsilon_at, greedy_action


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
    if v.ndim == 2:
        n = np.linalg.norm(v, axis=0)
        return v / np.where(n > 0, n, 1.0)
    n = hrr._norm(v)
    return v / (n if n > 0 else 1.0)


# ------------------------------------------------------------ state table


class _Entry(NamedTuple):
    """One row of the table of snapshot entries (README, "Snapshots").

    ``name`` is an entry's name, or a pattern whose ``<...>`` fields are
    filled by each mapping ``each(x)`` lists, one per entry a snapshot holds;
    an entry that fits the pattern and no mapping belongs to no ``of``.
    ``shape`` names an array's dimensions, each read from the fields or from
    ``x`` (``_check``); ``None`` marks JSON.  ``ok(value, x)`` keeps ``rule``,
    whose ``{...}`` an error fills from ``x``.
    """

    name: str
    shape: tuple | None = None
    rule: str = ""
    ok: Callable | None = None
    each: Callable = lambda x: [{}]
    of: str = ""


class _Part:
    """One piece of agent state, at the dotted attribute ``path``, and the
    ``_Entry`` rows of the snapshot entries that hold it.

    ``take(agent)`` captures the value by reference, which a cycle replaces
    (see the module docstring for the one it writes into), and ``put(agent,
    value)`` sets a captured or loaded value back on its owner.
    ``dump(value)`` returns its snapshot entries by name (arrays become array
    entries, anything else JSON); ``load(agent, entries)`` reads checked
    entries back for a freshly built ``agent``.
    """

    def __init__(self, path, dump, load, *rows):
        self.take = attrgetter(path)
        owner, _, name = path.rpartition(".")
        owner = attrgetter(owner) if owner else (lambda agent: agent)
        self.put = lambda agent, value: setattr(owner(agent), name, value)
        self.dump = dump
        self.load = load
        self.rows = rows


def _one(path, key, out=None, **row):
    """A part kept as the single entry ``key``, declared by ``row``; ``out``
    converts its value to the stored form."""
    return _Part(path, lambda v: {key: v if out is None else out(v)},
                 lambda agent, entries: entries[key], _Entry(key, **row))


def _circuit(path, prefix, sizes):
    """A circuit kept as ``<prefix>/W<ell>`` and ``<prefix>/E<ell>`` arrays,
    one pair per layer above the first of ``sizes(x)``; its structure comes
    from the rebuilt agent."""
    get = attrgetter(path)

    def dump(c):
        return {f"{prefix}/{m}{ell}": getattr(c, m)[ell]
                for ell in range(1, c.L + 1) for m in "WE"}

    def load(agent, entries):
        c = get(agent)
        layers = range(1, c.L + 1)
        return replace(c, W=c.W[:1] + [entries[f"{prefix}/W{ell}"] for ell in layers],
                       E=c.E[:1] + [entries[f"{prefix}/E{ell}"] for ell in layers])

    def each(x):
        n = sizes(x)
        return [{"ell": ell, "n[ell-1]": n[ell - 1], "n[ell]": n[ell]} for ell in range(1, len(n))]

    of = f"layer of the {prefix} circuit"
    return _Part(path, dump, load,
                 _Entry(f"{prefix}/W<ell>", ("n[ell-1]", "n[ell]"), each=each, of=of),
                 _Entry(f"{prefix}/E<ell>", ("n[ell]", "n[ell-1]"), each=each, of=of))


def _whole(v, x=None):
    return type(v) is int and v >= 0  # JSON gives int, never bool, for a count


def _below(bound):
    return dict(rule=f"None or a whole number < {{{bound}}}",
                ok=lambda v, x: v is None or _whole(v) and v < x[bound])


def _zero_unless(route):  # no cycle fills it then, and with both off the fold ignores it
    return dict(rule=f"zero while {route} is off", ok=lambda v, x: x[route] or not v.any())


# a motor state's rule and check: a cycle makes it unit length, and a
# restore holds it to the settle's clamp limit
_IN_CLAMP = (f"within ±{ngc._Z_LIMIT:g}", lambda v, x: (np.abs(v) <= ngc._Z_LIMIT).all())


def _if(name):
    """``each`` for an entry a snapshot holds only while ``name`` is not None."""
    return lambda x: [{}] if x["entries"].get(name) is not None else []


# the replay store's fields, one row per transition, there only with replay/a
_REPLAY = tuple(_Entry(f"replay/{field}", ("transitions", *width), rule, ok, _if("replay/a"))
                for field, width, rule, ok in (
    ("s", ("motor_state_dim",), *_IN_CLAMP),
    ("a", (), "whole actions < {n_actions}", lambda v, x: np.isin(v, range(x["n_actions"])).all()),
    ("r", (), "", None),
    ("s_next", ("motor_state_dim",), *_IN_CLAMP),
    ("done", (), "0 or 1", lambda v, x: np.isin(v, (0, 1)).all())))


def _load_replay(agent, entries):
    """The stored transitions, the latest ``replay_capacity`` of them."""
    capacity = agent.motor.replay_capacity
    fields = zip(*(entries.get(row.name, ()) for row in _REPLAY))
    return tuple((s, int(a), float(r), s_next, bool(done))
                 for s, a, r, s_next, done in fields)[-capacity:] if capacity else ()


def _recruited(entries):
    """How many gate units a snapshot holds: prototypes 0, 1, ... up to a gap."""
    return next(k for k in count() if f"gate/prototype/{k}" not in entries)


def _load_masks(agent, entries):
    """The recruited units' masks, read-only, as the gate makes them."""
    layers = sorted(agent.gate.layer_widths)
    masks = tuple({layer: entries[f"gate/mask/{k}/{layer}"] for layer in layers}
                  for k in range(_recruited(entries)))
    for g in (g for mask in masks for g in mask.values()):
        g.flags.writeable = False
    return tuple(MappingProxyType(mask) for mask in masks)


# Every piece of state a cycle can change, with its entries; an RNG's state
# reads as a fresh dict, and NumPy's setter checks it when it is put back.
_STATE = (
    _circuit("sensory", "sensory", lambda x: (x["obs_dim"], *x["sensory_hidden"])),
    _circuit("motor.circuit", "motor",
             lambda x: (x["n_actions"], *x["motor_hidden"], x["motor_state_dim"])),
    _one("motor.rng.bit_generator.state", "motor/rng_state", rule="a state NumPy's PCG64 takes"),
    _Part("motor.replay",  # each field of the transitions, as one float array
          lambda replay: {row.name: np.array(col, dtype=float)
                          for row, col in zip(_REPLAY, zip(*replay))},
          _load_replay, *_REPLAY),
    _Part("gate.prototypes",
          lambda protos: {f"gate/prototype/{k}": w for k, w in enumerate(protos)},
          lambda agent, e: tuple(e[f"gate/prototype/{k}"] for k in range(_recruited(e))),
          _Entry("gate/prototype/<k>", ("obs_dim",), "kept by a unit k < {M_max}",
                 lambda v, x: x["k"] < x["M_max"], lambda x: [{"k": k} for k in range(x["units"])],
                 "recruited gate unit")),
    _Part("gate.masks",
          lambda masks: {f"gate/mask/{k}/{layer}": g
                         for k, mask in enumerate(masks) for layer, g in mask.items()},
          _load_masks,
          _Entry("gate/mask/<k>/<layer>", ("sensory_hidden[layer-1]",),
                 "a 0/1 mask opening a unit", lambda g, x: ((g == 0) | (g == 1)).all() and g.any(),
                 lambda x: [{"k": k, "layer": layer, "sensory_hidden[layer-1]": width}
                            for k in range(x["units"])
                            for layer, width in enumerate(x["sensory_hidden"], 1)],
                 "recruited gate unit")),
    _one("gate.saturated", "gate/saturated", out=bool,
         rule="true or false", ok=lambda v, x: type(v) is bool),
    _one("gate.rng.bit_generator.state", "gate/rng_state", rule="a state NumPy's PCG64 takes"),
    _Part("dm",
          lambda dm: {**{f"dm/trace/{n}": v for n, v in dm.traces.items()},
                      "dm/trace_names": list(dm.traces)},
          lambda agent, e: replace(agent.dm, traces={n: e[f"dm/trace/{n}"]
                                                     for n in e["dm/trace_names"]}),
          _Entry("dm/trace/<name>", ("d",), each=lambda x: [{"name": n} for n in x["trace_names"]],
                 of="name in 'dm/trace_names'"),
          _Entry("dm/trace_names", rule="a list of lexicon names unitJ, J < {M_max}",
                 ok=lambda v, x: type(v) is list and all(
                     n in [_unit_name(j) for j in range(x["M_max"])] for n in v))),
    _one("perception", "buffer/perception", shape=("d",)),
    _one("retrieval", "buffer/retrieval", shape=("d",), **_zero_unless("route_dm_retrieve")),
    _Part("wm",
          lambda wm: {"wm/m": wm.m, "wm/position": int(wm.position)},
          lambda agent, e: replace(agent.wm, m=e["wm/m"], position=e["wm/position"]),
          _Entry("wm/m", ("d",), **_zero_unless("route_wm_encode")),
          _Entry("wm/position", rule="a whole number >= 0", ok=_whole)),
    _one("step", "step", out=int, rule="a whole number >= 0", ok=_whole),
    _Part("tracker.window",
          lambda window: {"ctx/window": np.stack(window)} if window else {},
          lambda agent, e: tuple(e.get("ctx/window", ()))[-agent.tracker.capacity:],
          _Entry("ctx/window", ("rows", "obs_dim"), each=_if("ctx/window"))),
    _Part("pending",
          lambda p: {"pending/a": None} if p is None else {"pending/s": p[0],
                                                           "pending/a": int(p[1])},
          lambda agent, e: None if e["pending/a"] is None else (e["pending/s"], e["pending/a"]),
          _Entry("pending/a", **_below("n_actions")),
          _Entry("pending/s", ("motor_state_dim",), *_IN_CLAMP, _if("pending/a"))),
    _one("last_winner", "last_winner", **_below("units")),
    _one("last_energy", "last_energy", out=float, rule="a finite number >= 0",
         ok=lambda v, x: type(v) in (int, float) and 0 <= v < np.inf),
)


def _check(config, entries):
    """Hold ``entries`` against the rows of ``_STATE`` in four passes, missing,
    stray, shape (array or JSON, then its dimensions) and value (the row's
    rule, then, for an array, finite), and raise ``ValueError`` naming the
    first entry to fail.  ``x`` holds the config's keys and the counts the
    entries give: ``units`` (``_recruited``), ``transitions`` (of
    ``replay/a``), ``rows`` (of ``ctx/window``) and ``trace_names``.  An
    entry that fits no row is ignored."""
    window, names = entries.get("ctx/window"), entries.get("dm/trace_names")
    x = {**asdict(config), "entries": entries, "units": _recruited(entries),
         "transitions": getattr(entries.get("replay/a"), "size", 0),
         "rows": len(window) if getattr(window, "ndim", 0) else 0,
         "trace_names": names if type(names) is list else []}
    rows = [(row, re.sub(r"<(\w+)>", lambda m: str(fields[m[1]]), row.name), {**x, **fields})
            for part in _STATE for row in part.rows for fields in row.each(x)]
    for _, name, _ in rows:
        if name not in entries:
            raise ValueError(f"snapshot entry {name!r} is missing")
    stray = {name: row.of for name in sorted(entries.keys() - {name for _, name, _ in rows})
             for part in _STATE for row in part.rows
             if row.of and re.fullmatch(re.sub(r"<\w+>", "[^/]*", row.name), name)}
    if stray:
        raise ValueError(f"bad value for {', '.join(map(repr, stray))}: they belong to no "
                         f"{' or '.join(dict.fromkeys(stray.values()))}")
    for row, name, at in rows:
        got = getattr(entries[name], "shape", "JSON")
        want = "JSON" if row.shape is None else tuple(at[dim] for dim in row.shape)
        if got != want:
            raise ValueError(f"bad shape for {name!r}: {got}, the config gives {want}")
    for row, name, at in rows:
        v = entries[name]
        rule = (row.rule.format_map(at) if row.ok and not row.ok(v, at)
                else "finite" if row.shape is not None and not np.isfinite(v).all() else None)
        if rule:
            given = f"array {name!r}" if isinstance(v, np.ndarray) else repr(v)
            raise ValueError(f"bad value for {name!r}: {given} is not {rule}")


class Agent:
    """Common-model agent wiring sensory, gate, memory, and motor modules."""

    def __init__(self, config: AgentConfig, *, _draw=True):
        """Build every part from ``config``.  ``_draw`` False leaves both
        circuits blank (``ngc.blank_circuit``) instead of seeded draws, for a
        restore to fill; the bridges and the unit symbols are drawn either way.

        With ``route_wm_encode`` and ``route_dm_retrieve`` both off the motor
        state is ``unit(B2p · unit(bridge1 · phi(z)))``, ``B2p`` being
        ``bridge2``'s percept block.  The inner ``unit`` is a positive scale
        that the outer one cancels, so the agent keeps ``fold = B2p ·
        bridge1`` (``motor_state_dim`` × the top layer's width) instead of
        ``bridge2`` (None then), and the state is ``unit(fold · phi(z))``,
        equal to the two products to float64 rounding.  ``bridge2`` is drawn
        whole all the same, so its block has the same numbers; ``bridge1``
        stays for ``perceive``.  With either flag on ``fold`` is None."""
        self.config = config
        ss = np.random.SeedSequence(config.seed)
        s_sensory, s_motor, s_gate, s_b1, s_b2 = ss.spawn(5)
        sizes = (config.obs_dim, *config.sensory_hidden)
        kind = dict(beta=config.sensory_beta, gamma=config.sensory_gamma, K=config.sensory_K)
        self.sensory = (ngc.init_circuit(sizes, seed=s_sensory, sigma=config.sensory_sigma, **kind)
                        if _draw else ngc.blank_circuit(sizes, **kind))
        self.motor = MotorCircuit(
            config.n_actions, config.motor_state_dim, seed=s_motor, _draw=_draw,
            hidden=config.motor_hidden, clip_weights=config.motor_clip,
            **{k: getattr(config, k) for k in (
                "gamma_d", "alpha_e", "r_clip", "replay_capacity", "replay_samples")},
            **{k: getattr(config, f"motor_{k}") for k in (
                "eta_W", "eta_E", "beta", "gamma", "K", "sigma")})
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
        self.fold = None
        if not (config.route_wm_encode or config.route_dm_retrieve):
            self.fold, self.bridge2 = self.bridge2[:, :config.d] @ self.bridge1, None
        self.perception = np.zeros(config.d)  # the percept in holographic space
        self.retrieval = np.zeros(config.d)  # the blend of retrieved unit symbols
        self.wm = WorkingMemoryBuffer.empty(config.d, rho=config.wm_rho)
        self.step = 0  # cycles run
        self.pending = None  # (s, a) awaiting its outcome
        self.last_winner = None
        self.last_energy = 0.0

    # ---------------------------------------------------------------- cycle

    def _percept(self, x, mask, folded=False):
        """The sensory circuit settled on ``x`` (one per column for a batch)
        under ``mask``, and the percept: its top-layer activity, gated already
        as closed units stay 0, through ``phi`` and ``bridge1``, unit length.
        When ``folded`` it goes through ``fold`` instead, which gives the
        motor state (see ``__init__``).  ``x`` is a float64 observation whose
        shape the caller has checked; its values are checked here as a settle
        checks a clamp.  ``mask`` is a unit's as ``CompetitiveGate._gating``
        gives it, and the settle (``ngc._settle``) checks neither."""
        ngc._check_given(0, x, "clamp")
        settled = ngc._settle(self.sensory, {0: x}, mask)
        through = self.fold if folded else self.bridge1
        return settled, _unit(through @ ngc.phi(settled.z[self.sensory.L]))

    def _motor_state(self, perception):
        """[perception; retrieval; wm] through ``bridge2``, unit length: the
        motor state of an agent with no ``fold``."""
        shared = (self.retrieval, self.wm.m)
        if perception.ndim == 2:  # a batch, one column each
            shared = [np.broadcast_to(v[:, None], (len(v), perception.shape[1])) for v in shared]
        return _unit(self.bridge2 @ np.concatenate([perception, *shared]))

    def perceive(self, obs):
        """Gate, settle, learn the sensory circuit; fill the perception buffer.

        Returns the percept it stores.  Also records the settled free energy
        (the epistemic signal) and the winning gate unit.  On a failure the
        agent is rolled back, as by a cycle.
        """
        with self._atomic():
            settled, out = self._perceive(obs)
            self._update_sensory(settled)
            return out

    def _perceive(self, obs, folded=False):
        """``perceive`` inside a rollback block, but for the sensory update:
        returns the settled state to learn from and the percept, or when
        ``folded`` the motor state through ``fold``, leaving the perception
        buffer as it was.  The caller's ``obs`` is checked here, its shape by
        the tracker and its values by ``_percept``, where the settle checked
        them; the context it makes is checked once, by the gate's first call."""
        context = self.tracker.update(obs)
        if self.gate.active_count and len(self.tracker) < self.config.context_window:
            # novelty is undefined while the running mean is still forming;
            # match against existing units but do not recruit on warm-up jitter
            winner, _ = self.gate.match(context)
        else:
            winner = self.gate.select_or_recruit(context)
        self.gate._update_winner(winner, context)
        x = np.asarray(obs, dtype=float)
        settled, out = self._percept(x, self.gate._gating(winner), folded)
        if not folded:
            self.perception = out
        self.last_energy = settled.energy
        self.last_winner = winner
        return settled, out

    def _update_sensory(self, settled):
        """Learn the sensory circuit from ``settled``, as the last step of a
        block: ``ngc.update_weights`` undoes its own writes if it fails."""
        c = self.config
        self.sensory = ngc.update_weights(self.sensory, settled, c.sensory_eta_W,
                                          c.sensory_eta_E, clip=c.sensory_clip)

    def _sense(self, obs):
        """Perceive, route from the previous winner; returns the settled state
        and the motor state."""
        prev_winner = self.last_winner
        folded = self.fold is not None
        settled, out = self._perceive(obs, folded)
        self._route(prev_winner, self.last_winner)
        return settled, out if folded else self._motor_state(out)

    def _learn(self, r_env, s_next, done, q_next=None):
        """Complete the pending transition, learn from it and clear it; of
        its parts only the caller's reward is checked (``MotorCircuit._learn``)."""
        s, a = self.pending
        self.motor._learn(s, a, r_env, s_next, done, self.last_energy, q_next)
        self.pending = None

    def _route(self, prev_winner, winner):
        """The buffer transfers the config's ``route_*`` flags turn on, each
        through its unchecked path, as every value here is the agent's."""
        c = self.config
        if c.route_wm_encode:
            self.wm = memory._wm_encode(self.wm, self.perception)
        if c.route_dm_store:
            context = [] if prev_winner is None else [_unit_name(prev_winner)]
            self.dm = memory.dm_store(self.dm, _unit_name(winner), context)
        if c.route_dm_retrieve and self.dm.traces:
            cue = hrr._permute(self.lexicon[_unit_name(winner)], 1)
            result = memory._dm_retrieve(self.dm, cue, c.dm_k, c.dm_tau)
            blend = sum(
                float(w) * self.lexicon[name]
                for (name, _), w in zip(result.ranked, result.strengths)
            )
            n = hrr._norm(blend)
            if n > 0:
                self.retrieval = blend / n

    def _rollback(self, cap):
        for part, value in zip(_STATE, cap):
            part.put(self, value)

    @contextmanager
    def _atomic(self):
        """Roll the whole agent back if the block raises: put back the value
        each part held before (see the module docstring).  A block's last
        step is its sensory update, which undoes its own writes if it fails."""
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
            settled, s = self._sense(obs)
            q = self.motor._q_values(s)
            c = self.config
            eps = epsilon_at(self.step, c.horizon, c.eps_start, c.eps_end, c.eps_decay_frac)
            action = self.motor.act(q, eps)
            if self.pending is not None:
                self._learn(r_env, s, done, q_next=None if done else q)
            self.pending = None if done else (s, action)
            self.step += 1
            self._update_sensory(settled)
            return action

    def supervised_step(self, obs, targets):
        """Cycle variant for a supervised readout: perceive and route as
        usual, then regress the motor head onto ``targets`` instead of
        running the reward loop.  Returns the greedy action for the
        freshly regressed head."""
        with self._atomic():
            settled, s = self._sense(obs)
            self.motor._regress(s, targets)
            action = greedy_action(self.motor._q_values(s))
            self.step += 1
            self._update_sensory(settled)
            return action

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
        settle of the batch, both bridges (or the fold) as matrices, one motor
        read.  For a batch the actions come back as a list and the q-values as
        an array, one row per observation.
        """
        obs = np.asarray(obs, dtype=float)
        if obs.ndim not in (1, 2) or obs.shape[-1] != self.config.obs_dim:
            raise ValueError(f"observation shape {obs.shape} != ([batch,] {self.config.obs_dim})")
        ctx = np.asarray(context, dtype=float) if context is not None else self.tracker.context()
        winner, _ = self.gate.match(ctx)
        x = ngc._check_layer_vec(self.sensory, 0, np.atleast_2d(obs).T, "clamp")  # a batch of 0
        folded = self.fold is not None
        _, out = self._percept(x, self.gate._gating(winner), folded)
        q = self.motor._q_values(out if folded else self._motor_state(out)).T
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

        The embedded config goes through ``AgentConfig``'s checks.  Then,
        before any part loads, the entries are held against the table that
        ``_STATE`` declares (README, "Snapshots"; ``_check``), and a missing,
        stray, misshapen or bad one raises ``ValueError`` naming it.  The
        agent is built from the config with both circuits blank: their
        weights come from the snapshot, so none are drawn.
        """
        arrays, meta, _seed = snapshot.read_snapshot(data)
        if "config" not in meta:
            raise ValueError("snapshot entry 'config' is missing")
        try:
            config = AgentConfig(**meta["config"])
        except TypeError as exc:  # not a mapping, or a key unknown or missing
            raise ValueError(f"snapshot entry 'config' is damaged: {exc}") from None
        entries = {**arrays, **meta}
        _check(config, entries)
        agent = cls(config, _draw=False)  # the snapshot holds both circuits' weights
        for part in _STATE:
            value = part.load(agent, entries)
            try:
                part.put(agent, value)  # an RNG's state setter checks what it is given
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"snapshot entry {part.rows[0].name!r} is damaged: "
                                 f"{type(exc).__name__}: {exc}") from None
        return agent
