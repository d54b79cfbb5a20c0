"""The boundary sweep: every public function a cycle passes through, and the
agent's own entry points, meet a seeded table of bad inputs (NaN, inf, 1e7,
a wrong shape or length, a bool or a non-integer where an index is taken)
and answer each as pinned here: the exception type and its whole message,
or, where a bad value is taken without a check, the value returned.

The agent runs unchecked paths inside a cycle (README, "Configuration"), so
these cases show that every check it skips there is still made where a
caller's value comes in.  An agent entry point that raises leaves
``snapshot()`` byte-equal.
"""

import re
from types import MappingProxyType

import numpy as np
import pytest

from cogkit import hrr, memory, ngc
from cogkit.agent import Agent, AgentConfig
from cogkit.gate import CompetitiveGate, ContextTracker
from cogkit.motor import MotorCircuit, Transition, greedy_action
from cogkit.ngc import DivergenceError

RNG = np.random.default_rng(29)
BAD_VALUES = {"nan": np.nan, "inf": np.inf, "huge": 1e7}


def _vector(shape):
    return RNG.uniform(-1.0, 1.0, shape)


def _spoiled(n, kind):
    """A seeded vector of length ``n`` with one bad entry at a seeded place,
    or of a bad shape: one short, one long, or a (2, n) matrix."""
    if kind in BAD_VALUES:
        v = _vector(n)
        v[RNG.integers(n)] = BAD_VALUES[kind]
        return v
    return _vector({"short": n - 1, "long": n + 1, "2d": (2, n)}[kind])


def _shape(name, v, n):
    return ValueError, f"bad shape for {name!r}: {np.shape(v)}, expected ({n},)"


def _layer_shape(what, ell, v, n):
    return (ValueError,
            f"{what} for layer {ell} has shape {np.shape(v)}, expected ({n},) or ({n}, B)")


def _diverged(what, ell):
    return DivergenceError, f"{what} for layer {ell} is not finite or exceeds 1e+06"


SETTLED = (DivergenceError,
           "state exceeded 1e+06 during settling; beta=0.05 is too large for this circuit")
NOT_AN_INT = TypeError, "'float' object cannot be interpreted as an integer"


def _not_finite_norm(what, value):
    return ValueError, f"{what} has a non-finite norm ({value})"


# ------------------------------------------------------------ components


def _circuit():
    return ngc.init_circuit((4, 6), seed=3, K=5)


def _gate(metric="euclid", units=2):
    g = CompetitiveGate(4, {1: 6}, theta=0.5, metric=metric, seed=4)
    for k in range(units):
        g.select_or_recruit(np.full(4, 3.0 * k) + 1.0)
    return g


def _dm():
    lex = hrr.SymbolLexicon(16, seed=5, names=["a", "b", "c"])
    dm = memory.DeclarativeMemory(lexicon=lex)
    return memory.dm_store(memory.dm_store(dm, "a", ["b"]), "b", ["c", "a"])


def _motor():
    return MotorCircuit(2, 4, seed=6)


def _component_cases():
    """(id, call, expected): ``expected`` is (type, message) for a call that
    raises, else ("returns", value) for a call that takes the bad value."""
    cases = []
    cue, short_cue = _vector(16), _vector(15)
    for kind in ("nan", "inf", "huge"):
        x, s, ctx, item = (_spoiled(n, kind) for n in (4, 4, 4, 16))
        cases += [
            (f"settle-clamp-{kind}", lambda x=x: ngc.settle(_circuit(), clamps={0: x}),
             _diverged("clamp", 0)),
            (f"settle-init-{kind}", lambda v=_spoiled(6, kind): ngc.settle(
                _circuit(), clamps={0: np.ones(4)}, init={1: v}),
             _diverged("init", 1)),
            (f"make_state-clamp-{kind}", lambda x=x: ngc.make_state(_circuit(), clamps={0: x}),
             _diverged("clamp", 0)),
            (f"q_values-{kind}", lambda s=s: _motor().q_values(s), _diverged("clamp", 1)),
            (f"learn-s-{kind}",
             lambda s=s: _motor().learn(Transition(s, 0, 0.5, np.ones(4), False)),
             _diverged("clamp", 1)),
            (f"learn-s_next-{kind}",
             lambda s=s: _motor().learn(Transition(np.ones(4), 0, 0.5, s, False)),
             _diverged("clamp", 1)),
            (f"regress-s-{kind}", lambda s=s: _motor().regress(s, np.zeros(2)),
             _diverged("clamp", 1)),
            (f"cosine-gate-select-{kind}",
             lambda ctx=ctx: _gate("cosine").select_or_recruit(ctx),
             None if kind == "huge" else _not_finite_norm("cosine operand a", BAD_VALUES[kind])),
            (f"cosine-gate-match-{kind}", lambda ctx=ctx: _gate("cosine").match(ctx),
             None if kind == "huge" else _not_finite_norm("cosine operand a", BAD_VALUES[kind])),
            (f"dm_retrieve-cue-{kind}", lambda ctx=item: memory.dm_retrieve(_dm(), ctx, k=2),
             None if kind == "huge" else _not_finite_norm("retrieval cue", BAD_VALUES[kind])),
        ]
    for value in (np.nan, np.inf):
        cases += [
            (f"learn-reward-{value}",
             lambda v=value: _motor().learn(Transition(np.ones(4), 0, v, np.ones(4), False)),
             (ValueError, f"non-finite reward {value}")),
            (f"regress-targets-{value}",
             lambda v=value: _motor().regress(np.ones(4), np.array([0.5, v])),
             (ValueError, "non-finite regression targets")),
            (f"act-epsilon-{value}", lambda v=value: _motor().act(np.zeros(2), v),
             (ValueError, f"epsilon must be in [0, 1], got {value}")),
            (f"dm_retrieve-tau-{value}", lambda v=value: memory.dm_retrieve(_dm(), cue, 2, v),
             (ValueError, f"bad value for 'tau': {value} is not in (0, inf)")),
        ]
    cases.append(("regress-targets-huge",
                  lambda: _motor().regress(np.ones(4), np.array([0.5, 1e7])), SETTLED))
    for kind in ("short", "long", "2d"):
        v4, v6, v16 = (_spoiled(n, kind) for n in (4, 6, 16))
        cases += [
            (f"settle-clamp-{kind}", lambda v=v4: ngc.settle(_circuit(), clamps={0: v}),
             _layer_shape("clamp", 0, v4, 4)),
            (f"settle-mask-{kind}", lambda v=v6: ngc.settle(_circuit(), clamps={0: np.ones(4)},
                                                             mask={1: v}),
             _shape("mask[1]", v6, 6)),
            (f"q_values-{kind}", lambda v=v4: _motor().q_values(v),
             _layer_shape("clamp", 1, v4, 4)),
            (f"learn-s-{kind}",
             lambda v=v4: _motor().learn(Transition(v, 0, 0.5, np.ones(4), True)),
             _shape("t.s", v4, 4)),
            (f"learn-s_next-{kind}",
             lambda v=v4: _motor().learn(Transition(np.ones(4), 0, 0.5, v, True)),
             _shape("t.s_next", v4, 4)),
            (f"regress-s-{kind}", lambda v=v4: _motor().regress(v, np.zeros(2)),
             _shape("s", v4, 4)),
            (f"gate-select-{kind}", lambda v=v4: _gate().select_or_recruit(v),
             _shape("context", v4, 4)),
            (f"gate-match-{kind}", lambda v=v4: _gate().match(v), _shape("context", v4, 4)),
            (f"gate-update-{kind}", lambda v=v4: _gate().update_winner(1, v),
             _shape("context", v4, 4)),
            (f"tracker-{kind}", lambda v=v4: ContextTracker(4).update(v), _shape("obs", v4, 4)),
            (f"wm_encode-{kind}",
             lambda v=v16: memory.wm_encode(memory.WorkingMemoryBuffer.empty(16), v),
             _shape("item", v16, 16)),
        ]
    v2 = _spoiled(2, "long")
    cases += [
        ("regress-targets-long", lambda: _motor().regress(np.ones(4), v2),
         _shape("targets", v2, 2)),
        ("permute-2d", lambda v=_spoiled(4, "2d"): hrr.permute(v, 1),
         (ValueError, "bad shape for 'a': (2, 4), expected (n,) with n >= 1")),
        ("dm_retrieve-cue-short", lambda: memory.dm_retrieve(_dm(), short_cue, 2),
         (ValueError, "bad shape for 'b': (16,), expected (15,)")),
    ]
    # an index: a bool, a fraction, a number out of range
    cases += [
        ("permute-shift-bool", lambda: hrr.permute(np.arange(4.0), True),
         (TypeError, "bad type for 'shift': True is not an integer")),
        ("permute-shift-fraction", lambda: hrr.permute(np.arange(4.0), 1.5),
         (TypeError, "bad type for 'shift': 1.5 is not an integer")),
        ("dm_retrieve-k-bool", lambda: memory.dm_retrieve(_dm(), cue, True),
         (ValueError, "bad value for 'k': True is not in [1, inf)")),
        ("dm_retrieve-k-fraction", lambda: memory.dm_retrieve(_dm(), cue, 1.5),
         (ValueError, "bad value for 'k': 1.5 is not in [1, inf)")),
        ("dm_store-unknown", lambda: memory.dm_store(_dm(), "a", ["z"]),
         (ValueError, "unknown concept 'z'; not in lexicon")),
        ("gate-update-winner-fraction", lambda: _gate().update_winner(1.5, np.ones(4)),
         (TypeError, "tuple indices must be integers or slices, not float")),
        ("gate-update-winner-past", lambda: _gate().update_winner(2, np.ones(4)),
         (ValueError, "unit 2 is not recruited")),
        ("gate-update-winner-negative", lambda: _gate().update_winner(-1, np.ones(4)),
         (ValueError, "unit -1 is not recruited")),
        ("gate-match-empty", lambda: _gate(units=0).match(np.ones(4)),
         (ValueError, "match on a gate with no recruited units")),
        ("mask_for-fraction", lambda: _gate().mask_for(0.5),
         (TypeError, "tuple indices must be integers or slices, not float")),
        ("mask_for-past", lambda: _gate().mask_for(2), (ValueError, "unit 2 is not recruited")),
        ("learn-action-bool",
         lambda: _motor().learn(Transition(np.ones(4), True, 0.5, np.ones(4), True)), None),
        ("learn-action-fraction",
         lambda: _motor().learn(Transition(np.ones(4), 1.5, 0.5, np.ones(4), True)), NOT_AN_INT),
        ("learn-action-past",
         lambda: _motor().learn(Transition(np.ones(4), 2, 0.5, np.ones(4), True)),
         (ValueError, "action 2 out of range 0..1")),
        ("settle-pin-fraction",
         lambda: ngc.settle(ngc.init_circuit((2, 4), seed=3, K=5), clamps={1: np.ones(4)},
                            pin0={1.5: 1.0}), NOT_AN_INT),
        ("settle-pin-past",
         lambda: ngc.settle(ngc.init_circuit((2, 4), seed=3, K=5), clamps={1: np.ones(4)},
                            pin0={2: 1.0}), (ValueError, "pinned unit 2 out of range for layer 0")),
        ("settle-mask-fraction", lambda: ngc.settle(_circuit(), clamps={0: np.ones(4)},
                                                    mask={1: np.full(6, 0.5)}),
         (ValueError, "gating mask for layer 1 is not 0/1")),
        ("settle-mask-nan", lambda g=_spoiled(6, "nan"): ngc.settle(
            _circuit(), clamps={0: np.ones(4)}, mask={1: g}),
         (ValueError, "gating mask for layer 1 is not 0/1")),
        ("settle-mask-layer", lambda: ngc.settle(_circuit(), clamps={0: np.ones(4)},
                                                 mask={2: np.ones(6)}),
         (ValueError, "gating mask on layer 2; only hidden layers 1..1")),
    ]
    # bad values a component takes as they are: the value it returns
    q = np.array([0.1, np.nan, 0.3, np.nan])
    cases += [
        ("greedy_action-nan", lambda: greedy_action(q), ("returns", 1)),
        ("greedy_action-list", lambda: greedy_action([0.1, 0.7, 0.7]), ("returns", 1)),
        ("greedy_action-2d", lambda: greedy_action(np.array([[0.0, 2.0], [3.0, 1.0]])),
         ("returns", 2)),
        ("act-greedy-nan", lambda: _motor().act(np.array([np.nan, 1.0]), 0.0), ("returns", 0)),
        ("gate-match-nan", lambda c=_spoiled(4, "nan"): _gate().match(c)[0], ("returns", 0)),
        ("gate-update-winner-bool",
         lambda: _gate().update_winner(True, np.zeros(4)).prototypes[1].tolist(),
         ("returns", [3.6] * 4)),
        ("mask_for-bool", lambda g=_gate(): g.mask_for(True) is g.mask_for(1), ("returns", True)),
        ("permute-nan", lambda: np.isnan(hrr.permute(np.array([np.nan, 1.0, 2.0]), 1)).tolist(),
         ("returns", [False, True, False])),
        ("wm_encode-nan",
         lambda: np.isnan(memory.wm_encode(memory.WorkingMemoryBuffer.empty(4),
                                           [np.nan, 0.0, 0.0, 0.0]).m).tolist(),
         ("returns", [False, True, False, False])),
        ("settle-pin-bool",
         lambda: ngc.settle(ngc.init_circuit((2, 4), seed=3, K=5), clamps={1: np.ones(4)},
                            pin0={True: 1.0}).z[0][1], ("returns", 1.0)),
    ]
    return cases


COMPONENT_CASES = _component_cases()


def _outcome(call):
    try:
        return "returns", call()
    except Exception as exc:  # noqa: BLE001 - the type is what is pinned
        return type(exc), str(exc)


@pytest.mark.parametrize("call, expected", [c[1:] for c in COMPONENT_CASES],
                         ids=[c[0] for c in COMPONENT_CASES])
def test_a_public_function_answers_bad_input_as_pinned(call, expected):
    kind, got = _outcome(call)
    if expected is None:  # taken without a check: it returns
        assert kind == "returns"
    elif expected[0] == "returns":
        assert (kind, got) == expected
    else:
        assert kind is expected[0] and got == expected[1]


# ---------------------------------------------------------------- agent


def _config(**kw):
    return AgentConfig(**{**dict(obs_dim=8, n_actions=3, d=64, seed=0, sensory_hidden=(16,),
                                 sensory_K=10, motor_state_dim=16, motor_K=8, theta=2.0,
                                 context_window=8, horizon=200, replay_capacity=8,
                                 replay_samples=1), **kw})


AGENTS = {
    "blocks": dict(mask_mode="blocks"),
    "random": dict(),
    "ungated": dict(mask_p=1.0),
    "deep": dict(sensory_hidden=(12, 10)),
    "cosine": dict(gate_metric="cosine"),
}
STREAM = [RNG.normal(size=8) for _ in range(12)]


def _warmed(kind):
    """An agent past its context warm-up with a pending transition."""
    agent = Agent(_config(**AGENTS[kind]))
    r = 0.5
    for x in STREAM:
        r = 1.0 if agent.cycle(x, r_env=r) == 1 else -1.0
    return agent


def _agent_cases():
    """(id, agent kind, call on the agent, expected (type, message))."""
    cases = []
    for kind in ("nan", "inf", "huge"):
        obs = _spoiled(8, kind)
        diverged = _diverged("clamp", 0)
        for agent in AGENTS:
            # a cosine gate reads the context first, and it rejects a non-finite norm
            want = (_not_finite_norm("cosine operand a", BAD_VALUES[kind])
                    if agent == "cosine" and kind != "huge" else diverged)
            cases += [
                (f"cycle-obs-{kind}-{agent}", agent, lambda a, o=obs: a.cycle(o, r_env=0.5), want),
                (f"perceive-obs-{kind}-{agent}", agent, lambda a, o=obs: a.perceive(o), want),
                (f"supervised_step-obs-{kind}-{agent}", agent,
                 lambda a, o=obs: a.supervised_step(o, np.zeros(3)), want),
            ]
        cases += [
            (f"probe-obs-{kind}", "random", lambda a, o=obs: a.probe(o), diverged),
            (f"probe-batch-{kind}", "deep",
             lambda a, o=obs: a.probe(np.stack([np.ones(8), o])), diverged),
        ]
    for value in (np.nan, np.inf):
        reward = ValueError, f"non-finite reward {value}"
        cases += [
            (f"cycle-reward-{value}", "random", lambda a, v=value: a.cycle(np.ones(8), r_env=v),
             reward),
            (f"finish-reward-{value}", "random", lambda a, v=value: a.finish(v), reward),
            (f"supervised_step-targets-{value}", "blocks",
             lambda a, v=value: a.supervised_step(np.ones(8), np.array([0.0, v, 1.0])),
             (ValueError, "non-finite regression targets")),
        ]
    cases.append(("supervised_step-targets-huge", "ungated",
                  lambda a: a.supervised_step(np.ones(8), np.array([0.0, 1e7, 1.0])), SETTLED))
    for kind in ("short", "long", "2d"):
        obs = _spoiled(8, kind)
        cases += [
            (f"cycle-obs-{kind}", "random", lambda a, o=obs: a.cycle(o), _shape("obs", obs, 8)),
            (f"perceive-obs-{kind}", "deep", lambda a, o=obs: a.perceive(o), _shape("obs", obs, 8)),
            (f"supervised_step-obs-{kind}", "blocks",
             lambda a, o=obs: a.supervised_step(o, np.zeros(3)), _shape("obs", obs, 8)),
            (f"probe-context-{kind}", "random", lambda a, o=obs: a.probe(np.ones(8), context=o),
             _shape("context", obs, 8)),
        ]
        targets = _spoiled(3, kind)
        cases.append((f"supervised_step-targets-{kind}", "random",
                      lambda a, t=targets: a.supervised_step(np.ones(8), t),
                      _shape("targets", targets, 3)))
    short = _spoiled(8, "short")
    cases += [
        ("probe-obs-short", "random", lambda a: a.probe(short),
         (ValueError, "observation shape (7,) != ([batch,] 8)")),
        ("probe-obs-3d", "random", lambda a: a.probe(np.ones((1, 1, 8))),
         (ValueError, "observation shape (1, 1, 8) != ([batch,] 8)")),
        ("probe-batch-empty", "random", lambda a: a.probe(np.ones((0, 8))),
         _layer_shape("clamp", 0, np.ones((8, 0)), 8)),
        ("probe-context-cosine-nan", "cosine",
         lambda a, c=_spoiled(8, "nan"): a.probe(np.ones(8), context=c),
         _not_finite_norm("cosine operand a", np.nan)),
    ]
    return cases


AGENT_CASES = _agent_cases()


@pytest.mark.parametrize("kind, call, expected", [c[1:] for c in AGENT_CASES],
                         ids=[c[0] for c in AGENT_CASES])
def test_an_agent_entry_point_answers_bad_input_as_pinned_and_rolls_back(kind, call, expected):
    agent = _warmed(kind)
    before = agent.snapshot()
    # an inf context recruits an inf prototype, and moving it toward the
    # context subtracts inf from inf before the settle rejects the observation
    with np.errstate(invalid="ignore"), \
            pytest.raises(expected[0], match=f"^{re.escape(expected[1])}$"):
        call(agent)
    assert agent.snapshot() == before


# a euclidean gate ranks a NaN context's distances, all NaN, to unit 0; a
# cosine gate rejects it (``probe-context-cosine-nan`` above)
@pytest.mark.parametrize("kind", [kind for kind in AGENTS if kind != "cosine"])
def test_an_agent_takes_a_context_it_is_given_without_a_finite_check(kind):
    agent = _warmed(kind)
    before = agent.snapshot()
    action, q, winner = agent.probe(np.ones(8), context=np.full(8, np.nan))
    assert winner == 0 and q.shape == (3,) and 0 <= action < 3
    assert agent.snapshot() == before


# ------------------------------------------------- unchecked paths, oracles
#
# Each function the agent runs without its checks, ``_name``, is the body
# that ``name`` runs after them, so on good input the two give the same bits.

ORACLE = np.random.default_rng(41)


def _settle_cases():
    """(id, circuit, clamps, mask as a caller gives it) for the settles the
    agent runs: one and two hidden layers, block, random and all-open masks,
    one input and a batch."""
    one, two = ngc.init_circuit((8, 12), seed=7, K=9), ngc.init_circuit((8, 10, 6), seed=8, K=7)
    block = np.zeros(12)
    block[3:9] = 1.0
    scattered = (ORACLE.random(12) < 0.5).astype(float)
    scattered[0] = 1.0
    deep = {1: (ORACLE.random(10) < 0.5).astype(float), 2: np.ones(6)}
    deep[1][4] = 1.0
    x, batch = ORACLE.normal(size=8), ORACLE.normal(size=(8, 5))
    return [
        ("one-layer-open", one, x, None),
        ("one-layer-all-open-mask", one, x, {1: np.ones(12)}),
        ("one-layer-block", one, x, {1: block}),
        ("one-layer-random", one, x, {1: scattered}),
        ("one-layer-random-batch", one, batch, {1: scattered}),
        ("one-layer-block-batch", one, batch, {1: block}),
        ("two-layers-open", two, x, None),
        ("two-layers-random", two, x, deep),
        ("two-layers-random-batch", two, batch, deep),
    ]


def _same_state(a, b):
    assert len(a.z) == len(b.z) and len(a.e) == len(b.e)
    for u, v in [*zip(a.z, b.z), *zip(a.mu, b.mu), *zip(a.e, b.e)]:
        assert (u is None and v is None) or np.array_equal(u, v)
    assert np.array_equal(a.energy, b.energy)


@pytest.mark.parametrize("circuit, x, mask", [c[1:] for c in _settle_cases()],
                         ids=[c[0] for c in _settle_cases()])
def test_the_unchecked_settle_equals_settle(circuit, x, mask):
    public = ngc.settle(circuit, clamps={0: x}, mask=mask)
    _same_state(ngc._settle(circuit, {0: x}, ngc._validate_mask(circuit, mask)), public)
    # as the gate hands a unit's mask to the agent's settle
    gate = CompetitiveGate(3, {ell: n for ell, n in enumerate(circuit.sizes[1:], 1)}, theta=0.0)
    gate.select_or_recruit(np.zeros(3))
    if mask is not None:
        gate.masks = (MappingProxyType({**{ell: np.ones(n) for ell, n in gate.layer_widths.items()},
                                        **mask}),)
    _same_state(ngc._settle(circuit, {0: x}, gate._gating(0)),
                ngc.settle(circuit, clamps={0: x}, mask=gate.mask_for(0)))


def test_the_unchecked_settle_of_a_motor_head_equals_settle():
    c = ngc.init_circuit((3, 5, 4), seed=9, K=6)
    s, pins = ORACLE.uniform(-1.0, 1.0, 4), {2: 0.75}
    _same_state(ngc._settle(c, {2: s}, {}), ngc.settle(c, clamps={2: s}))
    _same_state(ngc._settle(c, {2: s}, {}, pin0=pins), ngc.settle(c, clamps={2: s}, pin0=pins))


def test_a_units_gating_is_the_validated_mask_and_follows_a_new_mask():
    gate = CompetitiveGate(2, {1: 8, 2: 4}, theta=0.5, p=0.5, seed=3)
    circuit = ngc.init_circuit((2, 8, 4), seed=1)
    for k in range(3):
        gate.select_or_recruit(np.full(2, 2.0 * k))
    for k in range(3):
        form = gate._gating(k)
        assert form.keys() == ngc._validate_mask(circuit, gate.mask_for(k)).keys() == {1, 2}
        assert all(form[ell] is gate.mask_for(k)[ell] for ell in form)
        again = gate._gating(k)  # taken again, from the same mask arrays
        assert again is not form and again.keys() == form.keys()
        assert all(again[ell] is form[ell] for ell in form)
    # a rollback drops unit 2 and a recruit makes another: its form follows
    gate.masks, gate.prototypes = gate.masks[:2], gate.prototypes[:2]
    gate.select_or_recruit(np.full(2, 9.0))
    assert all(gate._gating(2)[ell] is gate.mask_for(2)[ell] for ell in (1, 2))
    # a layer whose mask opens every unit is left out, as a settle drops it
    open_gate = CompetitiveGate(2, {1: 8}, theta=0.5, p=1.0)
    open_gate.select_or_recruit(np.zeros(2))
    assert dict(open_gate._gating(0)) == ngc._validate_mask(circuit, open_gate.mask_for(0)) == {}


def test_the_unchecked_gate_steps_equal_the_checked_ones():
    for metric in ("euclid", "cosine"):
        a, b = (_gate(metric, units=3) for _ in range(2))
        for _ in range(20):
            ctx = ORACLE.normal(size=4) * 3.0
            winner, dist = a.match(ctx)
            assert (winner, dist) == b._match(ctx)
            assert winner == int(np.argmin([b._distance(ctx, w) for w in b.prototypes]))
            a.update_winner(winner, ctx)
            b._update_winner(winner, ctx)
            assert all(np.array_equal(u, v) for u, v in zip(a.prototypes, b.prototypes))
    # the euclidean distance is np.linalg.norm's, bit for bit
    g, ctx = _gate(), ORACLE.normal(size=4)
    assert all(g._distance(ctx, w) == float(np.linalg.norm(ctx - w)) for w in g.prototypes)


def test_the_unchecked_roll_encode_and_retrieve_equal_their_twins():
    for d in (1, 2, 7, 64):
        a = ORACLE.normal(size=d)
        for shift in (-2 * d - 1, -1, 0, 1, d - 1, d, 3 * d + 2):
            assert np.array_equal(hrr._permute(a, shift), np.roll(a, shift))
            assert np.array_equal(hrr._permute(a, shift), hrr.permute(a, shift))
    buf = checked = memory.WorkingMemoryBuffer.empty(64, rho=0.9)
    for _ in range(9):
        item = ORACLE.normal(size=64)
        buf, checked = memory._wm_encode(buf, item), memory.wm_encode(checked, item)
        assert np.array_equal(buf.m, checked.m) and buf.position == checked.position
    dm = _dm()
    for k in (1, 2, 3, 5):
        cue = ORACLE.normal(size=16)
        got, want = memory._dm_retrieve(dm, cue, k, 0.2), memory.dm_retrieve(dm, cue, k=k, tau=0.2)
        assert got.ranked == want.ranked and np.array_equal(got.strengths, want.strengths)
        # and each score is hrr.cosine's
        assert [s for _, s in want.ranked] == sorted(
            (hrr.cosine(cue, t) for t in dm.traces.values()), reverse=True)[:k]


def test_the_unchecked_motor_paths_equal_the_checked_ones():
    for hidden in ((), (5,)):
        a, b = (MotorCircuit(3, 4, hidden=hidden, seed=2, replay_capacity=4, replay_samples=2)
                for _ in range(2))
        for step in range(12):
            s, s_next = ORACLE.uniform(-1.0, 1.0, (2, 4))
            batch = ORACLE.uniform(-1.0, 1.0, (4, 6))
            assert np.array_equal(a.q_values(s), b._q_values(s))
            assert np.array_equal(a.q_values(batch), b._q_values(batch))
            done, action, r = step % 4 == 3, int(ORACLE.integers(3)), float(ORACLE.normal())
            q_next = None if step % 3 else a.q_values(s_next)
            a.learn(Transition(s, action, r, s_next, done), sensory_energy=0.5, q_next=q_next)
            b._learn(s, action, r, s_next, done, 0.5, q_next)
            targets = ORACLE.normal(size=3)
            a.regress(s, targets)
            b._regress(s, targets)
            for m in "WE":
                assert all(np.array_equal(u, v) for u, v in
                           zip(getattr(a.circuit, m)[1:], getattr(b.circuit, m)[1:]))
            assert a.rng.bit_generator.state == b.rng.bit_generator.state
            assert len(a.replay) == len(b.replay)


def test_greedy_action_and_the_unit_vector_keep_numpys_answers():
    from cogkit.agent import _unit

    for _ in range(50):
        q = ORACLE.normal(size=int(ORACLE.integers(1, 9)))
        q[ORACLE.random(q.size) < 0.3] = q[0]  # ties
        assert greedy_action(q) == int(np.argmax(q))
        v = ORACLE.normal(size=int(ORACLE.integers(1, 40)))
        n = np.linalg.norm(v)
        assert np.array_equal(_unit(v), v / np.where(n > 0, n, 1.0))
    assert np.array_equal(_unit(np.zeros(5)), np.zeros(5))
