import dataclasses
import re
import tracemalloc
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

from cogkit import hrr, memory, ngc, runner
from cogkit.agent import _STATE, Agent, AgentConfig, _unit
from cogkit.config import resolve
from cogkit.data import DEFAULT_PAIRS, make_split_mnist
from cogkit.gate import CompetitiveGate, ContextTracker
from cogkit.motor import MotorCircuit
from cogkit.snapshot import SnapshotError, read_snapshot, write_snapshot

from test_acceptance import CONTINUAL_CFG
from test_ngc import _fail_on_call


def small_config(**kw):
    args = dict(
        obs_dim=8,
        n_actions=3,
        d=64,
        seed=0,
        sensory_hidden=(16,),
        sensory_K=10,
        motor_state_dim=16,
        motor_K=8,
        theta=2.0,
        context_window=8,
        horizon=200,
    )
    args.update(kw)
    return AgentConfig(**args)


def obs_stream(n, seed=0, dim=8):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=dim) for _ in range(n)]


def test_construction_invariants():
    a = Agent(small_config())
    assert a.perception.shape == a.retrieval.shape == (64,)
    assert a.wm.d == 64
    assert a.bridge1.shape == (64, 16)
    assert a.bridge2.shape == (16, 3 * 64)
    with pytest.raises(ValueError, match="at least one hidden layer"):
        AgentConfig(obs_dim=8, n_actions=2, sensory_hidden=())


def test_a_cycle_sums_only_the_energy_it_reads(monkeypatch):
    # the sensory settle's energy is the epistemic signal; the two motor
    # settles' energies are never read, so never summed
    a = Agent(small_config(replay_capacity=0))
    a.cycle(np.ones(8))
    states = []
    energy = ngc.energy
    monkeypatch.setattr(ngc, "energy", lambda state: states.append(state) or energy(state))
    a.cycle(np.ones(8), r_env=0.5)
    assert len(states) == 1 and a.last_energy == energy(states[0])
    assert states[0].z[0].shape == (8,)  # the sensory circuit's input


def test_perceive_fills_normalized_buffer():
    a = Agent(small_config())
    a.perceive(np.ones(8))
    p = a.perception
    assert np.linalg.norm(p) == pytest.approx(1.0)
    assert a.last_winner == 0
    assert a.last_energy >= 0.0
    with pytest.raises(ValueError):
        a.perceive(np.ones(9))


def test_a_failed_perceive_rolls_back():
    a = Agent(small_config())
    a.cycle(np.ones(8))
    before = a.snapshot()
    with pytest.raises(ngc.DivergenceError):
        a.perceive(np.full(8, 1e7))  # after the context window and the gate have moved
    assert a.snapshot() == before


def test_a_cycle_captures_its_state_once(monkeypatch):
    a = Agent(small_config())
    a.cycle(np.ones(8))
    takes = []
    take = _STATE[0].take
    monkeypatch.setattr(_STATE[0], "take", lambda agent: takes.append(0) or take(agent))
    a.cycle(np.ones(8), r_env=0.5)  # perceive's block, inside the cycle's, captures nothing
    assert len(takes) == 1


def test_identical_observations_share_winner_and_mask():
    a = Agent(small_config())
    x = np.random.default_rng(1).normal(size=8)
    a.perceive(x)
    m1 = a.gate.mask_for(a.last_winner)
    a.perceive(x)
    m2 = a.gate.mask_for(a.last_winner)
    assert a.gate.active_count == 1
    assert np.array_equal(m1[1], m2[1])


def test_two_clusters_recruit_exactly_two_units():
    d = 8
    center_a = np.full(d, 2.0)
    center_b = np.full(d, -2.0)
    gap = np.linalg.norm(center_a - center_b)
    a = Agent(small_config(theta=0.45 * gap, context_window=8, eta_c=0.1))
    rng = np.random.default_rng(2)
    for block in (center_a, center_b, center_a, center_b):
        for _ in range(40):
            a.perceive(block + 0.05 * rng.normal(size=d))
    assert a.gate.active_count == 2
    assert not a.gate.saturated


def test_first_cycle_produces_action_without_learning():
    a = Agent(small_config())
    W_before = a.motor.circuit.W[1].copy()
    action = a.cycle(np.ones(8))
    assert action in (0, 1, 2)
    assert np.array_equal(a.motor.circuit.W[1], W_before)  # nothing pending yet
    assert a.pending is not None
    assert a.step == 1


def test_second_cycle_learns_pending_transition():
    a = Agent(small_config(eps_start=0.0, eps_end=0.0))
    a.cycle(np.ones(8))
    W_before = a.motor.circuit.W[1].copy()
    a.cycle(-np.ones(8), r_env=1.0)
    assert not np.array_equal(a.motor.circuit.W[1], W_before)


def test_done_clears_pending():
    a = Agent(small_config())
    a.cycle(np.ones(8))
    a.cycle(-np.ones(8), r_env=0.5, done=True)
    assert a.pending is None
    W_before = a.motor.circuit.W[1].copy()
    a.cycle(np.ones(8), r_env=9.9)  # fresh episode: nothing pending to learn
    assert np.array_equal(a.motor.circuit.W[1], W_before)
    assert a.pending is not None


def test_replay_determinism():
    script = obs_stream(40, seed=3)

    def run():
        a = Agent(small_config(seed=7))
        actions = []
        r = 0.0
        for x in script:
            act = a.cycle(x, r_env=r)
            r = 1.0 if act == 0 else -1.0
            actions.append(act)
        return actions

    assert run() == run()


def test_routing_all_off_leaves_memories_untouched():
    cfg = small_config(
        route_wm_encode=False, route_dm_store=False, route_dm_retrieve=False
    )
    a = Agent(cfg)
    r0 = a.retrieval.copy()
    for i, x in enumerate(obs_stream(20, seed=4)):
        a.cycle(x, r_env=0.1 * i)
    assert a.wm.position == 0
    assert not a.wm.m.any()
    assert not a.dm.traces
    assert np.array_equal(a.retrieval, r0)


def test_routing_on_moves_memories():
    a = Agent(small_config())
    for x in obs_stream(10, seed=5):
        a.cycle(x)
    assert a.wm.position == 10
    assert a.dm.traces  # stored a task fact each cycle
    assert a.retrieval.any()


def test_routing_off_motor_state_is_the_fold_of_both_bridges():
    # bench continual's holographic sizes; a twin with routing on draws the
    # same bridges from the same seed, whole
    kw = dict(d=1024, motor_state_dim=128, route_dm_store=False)
    off = Agent(small_config(route_wm_encode=False, route_dm_retrieve=False, **kw))
    assert off.bridge2 is None and off.fold.shape == (128, 16)
    for flags in ((True, False), (False, True)):
        on = Agent(small_config(route_wm_encode=flags[0], route_dm_retrieve=flags[1], **kw))
        assert on.fold is None and on.bridge2.shape == (128, 3 * 1024)
    bridge1, bridge2 = on.bridge1, on.bridge2
    assert np.array_equal(off.bridge1, bridge1)

    def oracle(top):  # the percept, then [percept; 0; 0] through the whole bridge2
        percept = _unit(bridge1 @ top)
        return _unit(bridge2 @ np.concatenate([percept, np.zeros((2 * 1024, *top.shape[1:]))]))

    # the fold sums the same terms in another order: float64 rounding of the
    # 1,024-term inner sum of the two products
    atol = 1024 * np.finfo(float).eps
    x = np.random.default_rng(7).normal(size=(8, 5))
    for obs in (x[:, 0], x):  # one vector, and a probe batch of five columns
        settled, state = off._percept(obs, {}, folded=True)
        top = ngc.phi(settled.z[off.sensory.L])
        np.testing.assert_allclose(state, oracle(top), rtol=0, atol=atol)
        assert np.allclose(np.linalg.norm(np.atleast_2d(state.T), axis=1), 1.0)
    # routing on: [percept; retrieval; wm] through the whole bridge2, as before
    rng = np.random.default_rng(8)
    on.retrieval, on.wm = _unit(rng.normal(size=1024)), dataclasses.replace(
        on.wm, m=rng.normal(size=1024))
    percepts = _unit(rng.normal(size=(1024, 5)))
    for p in (percepts[:, 0], percepts):
        shared = [np.broadcast_to(v[:, None], (1024, 5)) if p.ndim == 2 else v
                  for v in (on.retrieval, on.wm.m)]
        want = _unit(bridge2 @ np.concatenate([p, *shared]))
        assert on._motor_state(p).tobytes() == want.tobytes()


def test_a_folded_agent_resumes_byte_for_byte():
    config = small_config(seed=23, route_wm_encode=False, route_dm_retrieve=False,
                          replay_capacity=8, replay_samples=1)
    stream = obs_stream(40, seed=3)

    def play(agent, xs, r):
        rows = []
        for x in xs:
            act = agent.cycle(x, r_env=r)
            r = 1.0 if act == 1 else -1.0
            rows.append((agent.step, act, r))
        _, q, _ = agent.probe(np.stack(stream[:4]))
        return rows + [q.tobytes()], r

    whole = Agent(config)
    rows, _ = play(whole, stream, 0.0)
    assert not whole.perception.any()  # a folded cycle forms no percept
    a = Agent(config)
    head, r = play(a, stream[:17], 0.0)
    b = Agent.restore(a.snapshot())
    tail, _ = play(b, stream[17:], r)
    assert head[:-1] + tail == rows
    assert b.snapshot() == whole.snapshot()


def test_a_folded_agent_restores_the_percept_a_parent_stored():
    # an agent that formed a percept every cycle stored the last one; the
    # folded agent keeps it, reads it nowhere, and runs on as from zero
    a = Agent(small_config(seed=29, route_wm_encode=False, route_dm_retrieve=False))
    for x in obs_stream(10, seed=4):
        a.cycle(x, r_env=0.5)
    arrays, meta, seed = read_snapshot(a.snapshot())
    arrays["buffer/perception"] = _unit(np.random.default_rng(5).normal(size=64))
    blob = write_snapshot(arrays, meta, seed=seed)
    b = Agent.restore(blob)
    assert b.snapshot() == blob
    for x in obs_stream(10, seed=6):
        assert a.cycle(x, r_env=0.5) == b.cycle(x, r_env=0.5)
    assert np.array_equal(b.perception, arrays["buffer/perception"])
    _, q_a, _ = a.probe(np.ones(8))
    _, q_b, _ = b.probe(np.ones(8))
    assert q_a.tobytes() == q_b.tobytes()


def test_cycle_atomic_rollback_on_failure():
    a = Agent(small_config(seed=11))
    a.cycle(np.ones(8))
    a.cycle(-np.ones(8), r_env=0.3)
    before = a.snapshot()
    with pytest.raises(ValueError):
        a.cycle(np.ones(8), r_env=float("nan"))
    assert a.snapshot() == before
    # and the agent still works afterwards
    a.cycle(np.ones(8), r_env=0.0)


def test_rollback_after_the_motor_learned_from_replay(monkeypatch):
    a = Agent(small_config(seed=23, replay_capacity=8, replay_samples=2))
    stream = obs_stream(13, seed=10)
    for x in stream[:12]:
        a.cycle(x, r_env=0.2)
    before = a.snapshot()
    twin = Agent.restore(before)
    W_before, rng_before = a.motor.circuit.W[1], a.motor.rng.bit_generator.state
    real_update, real_rollback = ngc._swapped, Agent._rollback
    calls, seen, rollbacks = [], {}, []

    def failing_update(*args, **kwargs):
        calls.append(None)
        # calls: the motor's own update, then the first replayed transition's,
        # by when the replay picks have been drawn
        if len(calls) == 2:
            seen["learned"] = not np.array_equal(a.motor.circuit.W[1], W_before)
            seen["drew"] = a.motor.rng.bit_generator.state != rng_before
            raise RuntimeError("injected")
        return real_update(*args, **kwargs)

    def counting_rollback(self, cap):
        rollbacks.append(None)
        real_rollback(self, cap)

    monkeypatch.setattr(ngc, "_swapped", failing_update)
    monkeypatch.setattr(Agent, "_rollback", counting_rollback)
    with pytest.raises(RuntimeError, match="injected"):
        a.cycle(stream[12], r_env=1.0)
    monkeypatch.undo()
    assert seen == {"learned": True, "drew": True}
    assert len(rollbacks) == 1
    assert a.snapshot() == before
    # the rolled-back agent carries on exactly like one that never failed
    assert a.cycle(stream[12], r_env=1.0) == twin.cycle(stream[12], r_env=1.0)
    assert a.snapshot() == twin.snapshot()


def _arrays_in(value):
    """Every array ``value`` holds, through tuples, lists, mappings and dataclasses."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, Mapping):
        value = list(value.values())
    elif not isinstance(value, (tuple, list)):
        return []
    return [a for v in value for a in _arrays_in(v)]


def test_a_step_rebinds_state_parts_and_writes_only_into_sensory_weights():
    # the rollback invariant: capturing each _STATE part by reference is
    # enough, as the sensory update, the one step that writes in place,
    # undoes its own writes; a gated agent and an ungated one (``mask_p`` 1)
    for mask_p in (0.5, 1.0):
        a = Agent(small_config(seed=29, M_max=2, replay_capacity=8, replay_samples=2,
                               mask_p=mask_p))
        owners = {"": a, "gate.": a.gate, "motor.": a.motor, "tracker.": a.tracker}
        rngs = {"gate.rng.bit_generator.state": a.gate.rng,
                "motor.rng.bit_generator.state": a.motor.rng}
        rebound, written, swaps = set(), [], []

        def step(call):
            attrs = {prefix: dict(vars(owner)) for prefix, owner in owners.items()}
            states = {path: rng.bit_generator.state for path, rng in rngs.items()}
            held = [(v, v.tobytes()) for part in _STATE for v in _arrays_in(part.take(a))]
            weights = [*a.sensory.W, *a.sensory.E]
            call()
            rebound.update(prefix + name for prefix, owner in owners.items()
                           for name, value in vars(owner).items()
                           if name not in attrs[prefix] or attrs[prefix][name] is not value)
            rebound.update(path for path, rng in rngs.items()
                           if rng.bit_generator.state != states[path])
            written.extend(v for v, before in held if v.tobytes() != before)
            swaps.append([now is not then for now, then in zip([*a.sensory.W, *a.sensory.E],
                                                                weights)])

        rng, r = np.random.default_rng(3), 0.0
        for center in (np.full(8, 2.0), np.full(8, -2.0), np.tile([2.0, -2.0], 4)):
            for _ in range(16):
                x = center + 0.1 * rng.normal(size=8)
                step(lambda: a.cycle(x, r_env=r))
                r = -r if r else 0.5
        for _ in range(3):
            step(lambda: a.supervised_step(x, np.array([1.0, -1.0, 0.0])))
        step(lambda: a.finish(r_env=1.0))
        assert a.gate.active_count == 2 and a.gate.saturated
        assert len(a.motor.replay) == 8 and a.pending is None
        # each part's ``take`` is ``attrgetter(path)``, which pickles as its
        # path; every part is rebound, the sensory circuit too, and each is reached
        assert rebound == {part.take.__reduce__()[1][0] for part in _STATE}
        if mask_p < 1.0:
            # the sensory W and E are the only values written into; no step
            # puts new W or E in the new circuit's lists
            assert {id(v) for v in written} == {id(w) for w in (*a.sensory.W[1:],
                                                                *a.sensory.E[1:])}
            assert not any(map(any, swaps))
        else:
            # an ungated step writes into nothing: each sensory update puts
            # new W[1] and E[1] in the new circuit's lists, and a finish
            # learns only in the motor head
            assert written == []
            assert swaps == [[False, True, False, True]] * 51 + [[False] * 4]


def test_finish_flushes_pending():
    a = Agent(small_config())
    a.cycle(np.ones(8))
    assert a.pending is not None
    W_before = a.motor.circuit.W[1].copy()
    a.finish(r_env=1.0)
    assert a.pending is None
    assert not np.array_equal(a.motor.circuit.W[1], W_before)
    a.finish(r_env=1.0)  # nothing left to flush; no-op


def test_probe_is_pure():
    a = Agent(small_config(seed=13))
    for x in obs_stream(6, seed=6):
        a.cycle(x, r_env=0.1)
    before = a.snapshot()
    action, q, winner = a.probe(np.ones(8))
    assert q.shape == (3,)
    assert 0 <= action < 3
    assert winner < a.gate.active_count
    assert a.snapshot() == before
    ctx = np.zeros(8)
    action2, _, _ = a.probe(np.ones(8), context=ctx)
    assert a.snapshot() == before
    assert 0 <= action2 < 3


def test_snapshot_restore_roundtrip_bytes():
    a = Agent(small_config(seed=17, replay_capacity=8, replay_samples=1))
    r = 0.0
    for x in obs_stream(15, seed=7):
        act = a.cycle(x, r_env=r)
        r = 0.5 if act == 1 else -0.5
    blob = a.snapshot()
    restored = Agent.restore(blob)
    assert restored.snapshot() == blob


def test_snapshot_entry_names_and_kinds():
    # an agent with replay, a pending transition and a full context window
    a = Agent(small_config(seed=17, replay_capacity=8, replay_samples=1))
    r = 0.0
    for x in obs_stream(15, seed=7):
        r = 0.5 if a.cycle(x, r_env=r) == 1 else -0.5
    assert a.pending is not None and a.motor.replay
    assert len(a.tracker) == a.config.context_window
    arrays, meta, _ = read_snapshot(a.snapshot())
    assert sorted(arrays) == [
        "buffer/perception", "buffer/retrieval", "ctx/window", "dm/trace/unit0",
        "gate/mask/0/1", "gate/prototype/0", "motor/E1", "motor/W1", "pending/s",
        "replay/a", "replay/done", "replay/r", "replay/s", "replay/s_next",
        "sensory/E1", "sensory/W1", "wm/m",
    ]
    assert sorted(meta) == [
        "config", "dm/trace_names", "gate/rng_state", "gate/saturated",
        "last_energy", "last_winner", "motor/rng_state", "pending/a",
        "step", "wm/position",
    ]


def test_restore_reads_the_parent_layout():
    # entries an older layout also wrote, holding what no cycle changes or
    # reads: the bridges and symbols come back from the config's seed
    a = Agent(small_config(seed=17, replay_capacity=8, replay_samples=1))
    r, act = 0.0, None
    for x in obs_stream(15, seed=7):
        act = a.cycle(x, r_env=r)
        r = 0.5 if act == 1 else -0.5
    blob = a.snapshot()
    arrays, meta, seed = read_snapshot(blob)
    bridge1, bridge2 = a.bridge1 + 0.0, a.bridge2 + 0.0
    arrays.update({"bridge1": bridge1, "bridge2": bridge2, "buffer/goal": np.zeros(64)})
    meta.update({
        "gate/routing": [{"wm_encode_on": True, "dm_store_on": True, "dm_retrieve_on": True}]
        * a.gate.active_count,
        "lexicon/names": [f"unit{k}" for k in range(a.config.M_max)],
        "last_action": act,
        "prev_winner": 0,
        # the counters this agent's 15 cycles left in the older layout
        "gate/usage": [15],
        "dm/store_count": {"unit0": 15},
    })
    b = Agent.restore(write_snapshot(arrays, meta, seed=seed))
    assert b.snapshot() == blob
    assert np.array_equal(b.bridge1, bridge1) and np.array_equal(b.bridge2, bridge2)
    assert list(b.lexicon.stacked()[2]) == meta["lexicon/names"]


def test_restore_rejects_a_wrong_shape():
    a = Agent(small_config())
    a.cycle(np.ones(8))
    arrays, meta, seed = read_snapshot(a.snapshot())
    arrays["sensory/W1"] = np.zeros((8, 15))
    # caught while restoring, not by the first cycle's matmul
    with pytest.raises(ValueError, match=r"'sensory/W1'.*\(8, 15\).*\(8, 16\)"):
        Agent.restore(write_snapshot(arrays, meta, seed=seed))


def test_restore_rejects_an_out_of_range_config():
    a = Agent(small_config())
    a.cycle(np.ones(8))
    arrays, meta, seed = read_snapshot(a.snapshot())
    meta["config"]["sensory_eta_W"] = -1.0
    with pytest.raises(ValueError, match=r"'sensory_eta_W'.*-1\.0"):
        Agent.restore(write_snapshot(arrays, meta, seed=seed))


@pytest.mark.parametrize("field, bad", [("obs_dim", 0), ("n_actions", 2.5), ("horizon", -5),
                                        ("horizon", "x")])
def test_restore_rejects_a_bad_agent_field(field, bad):
    a = Agent(small_config())
    a.cycle(np.ones(8))
    arrays, meta, seed = read_snapshot(a.snapshot())
    meta["config"][field] = bad
    with pytest.raises(ValueError, match=rf"^bad value for '{field}': "):
        Agent.restore(write_snapshot(arrays, meta, seed=seed))


@pytest.mark.parametrize("entry, shape", [("gate/prototype/0", (5,)),
                                          ("gate/mask/0/1", (15,))])
def test_restore_rejects_a_wrong_shape_gate_entry(entry, shape):
    a = Agent(small_config())
    for x in obs_stream(3):
        a.cycle(x)
    arrays, meta, seed = read_snapshot(a.snapshot())
    arrays[entry] = np.zeros(shape)
    with pytest.raises(ValueError, match=rf"'{entry}'.*{shape}"):
        Agent.restore(write_snapshot(arrays, meta, seed=seed))


@pytest.mark.parametrize("entry, bad", [
    ("step", -3), ("step", 2.5), ("wm/position", -2), ("last_winner", 5), ("last_winner", -1),
    ("pending/a", 7), ("gate/saturated", "x"),
    ("pending/s", np.zeros(3)), ("ctx/window", np.zeros((2, 5))),
], ids=lambda v: f"shape{v.shape}" if isinstance(v, np.ndarray) else None)
def test_restore_rejects_an_entry_no_cycle_leaves(entry, bad):
    a = Agent(small_config())
    for x in obs_stream(12):
        a.cycle(x)
    assert a.gate.active_count == 1 and a.pending is not None
    arrays, meta, seed = read_snapshot(a.snapshot())
    (arrays if isinstance(bad, np.ndarray) else meta)[entry] = bad
    with pytest.raises(ValueError, match=rf"^bad (value|shape) for '{entry}"):
        Agent.restore(write_snapshot(arrays, meta, seed=seed))


@pytest.mark.parametrize("entry, route", [("buffer/retrieval", "route_dm_retrieve"),
                                          ("wm/m", "route_wm_encode")])
def test_restore_rejects_a_buffer_that_routing_off_leaves_zero(entry, route):
    a = Agent(small_config(**{route: False}))
    for x in obs_stream(12):
        a.cycle(x)
    arrays, meta, seed = read_snapshot(a.snapshot())
    assert not arrays[entry].any()
    arrays[entry][3] = 0.5
    with pytest.raises(ValueError, match=rf"^bad value for '{entry}': .* {route} is off"):
        Agent.restore(write_snapshot(arrays, meta, seed=seed))
    meta["config"][route] = True  # a buffer that routing fills restores
    Agent.restore(write_snapshot(arrays, meta, seed=seed))


def _units_past_m_max(arrays, meta):
    for k in range(1, 5):
        arrays[f"gate/prototype/{k}"] = arrays["gate/prototype/0"]
        arrays[f"gate/mask/{k}/1"] = arrays["gate/mask/0/1"]


def _trace_outside_the_lexicon(arrays, meta):
    meta["dm/trace_names"] = ["unit9"]
    arrays["dm/trace/unit9"] = arrays.pop("dm/trace/unit0")


def _trace_no_name_lists(arrays, meta):
    arrays["dm/trace/unit1"] = arrays["dm/trace/unit0"]


def _rewrite(entry, change):
    """A damage that replaces the value of ``entry`` with ``change(value)``."""
    def damage(arrays, meta):
        store = arrays if entry in arrays else meta
        store[entry] = change(store[entry])
    return entry, damage


def _first(value):
    """A change that sets an array's first element to ``value``."""
    def change(v):
        v = v.copy()
        v.flat[0] = value
        return v
    return change


# each damage leaves a snapshot that restores at a build without the checks,
# and fails only in a later cycle, replay step or finish, or runs on with a
# NaN or inf in its state
DAMAGE = {
    "units-past-M_max": ("gate/prototype/2", _units_past_m_max),
    "trace-outside-lexicon": ("dm/trace_names", _trace_outside_the_lexicon),
    "trace-short": _rewrite("dm/trace/unit0", lambda v: v[:10]),
    "replay-action-out-of-range": _rewrite("replay/a", lambda v: v + 7),
    "replay-action-not-whole": _rewrite("replay/a", lambda v: v + 0.5),
    "replay-state-narrow": _rewrite("replay/s", lambda v: v[:, :5]),
    "replay-next-state-narrow": _rewrite("replay/s_next", lambda v: v[:, :5]),
    "replay-reward-short": _rewrite("replay/r", lambda v: v[:-1]),
    "replay-reward-nan": _rewrite("replay/r", lambda v: np.full_like(v, np.nan)),
    "replay-done-half": _rewrite("replay/done", lambda v: v + 0.5),
    "energy-negative": _rewrite("last_energy", lambda v: -1.0),
    "energy-string": _rewrite("last_energy", lambda v: "x"),
    "energy-nan": _rewrite("last_energy", lambda v: np.nan),
    # one NaN or inf in an array entry; without the check a cycle runs on
    # with each but the last, and fails on that one naming no entry
    "sensory-weight-nan": _rewrite("sensory/W1", _first(np.nan)),
    "motor-weight-inf": _rewrite("motor/E1", _first(np.inf)),
    "prototype-nan": _rewrite("gate/prototype/0", _first(np.nan)),
    "perception-inf": _rewrite("buffer/perception", _first(-np.inf)),
    "window-nan": _rewrite("ctx/window", _first(np.nan)),
    "replay-state-inf": _rewrite("replay/s", _first(np.inf)),
    "pending-state-nan": _rewrite("pending/s", _first(np.nan)),
    # a finite motor state past the settle's clamp limit, which a cycle
    # would squash through tanh and learn from
    "pending-state-past-the-clamp": _rewrite("pending/s", _first(1e7)),
    "replay-state-past-the-clamp": _rewrite("replay/s", _first(-1e7)),
    "replay-next-state-past-the-clamp": _rewrite("replay/s_next", _first(1e7)),
    # a trace that dm/trace_names does not list would be dropped without a word
    "trace-not-named": ("dm/trace/unit1", _trace_no_name_lists),
}


@pytest.mark.parametrize("case", DAMAGE)
def test_restore_rejects_memory_replay_and_energy_no_cycle_leaves(case):
    a = Agent(small_config(seed=17, replay_capacity=8, replay_samples=1, M_max=2))
    r = 0.0
    for x in obs_stream(15, seed=7):
        r = 0.5 if a.cycle(x, r_env=r) == 1 else -0.5
    assert len(a.motor.replay) == 8 and list(a.dm.traces) == ["unit0"]
    arrays, meta, seed = read_snapshot(a.snapshot())
    entry, damage = DAMAGE[case]
    damage(arrays, meta)
    with pytest.raises(ValueError, match=rf"^bad (value|shape) for '{entry}'"):
        Agent.restore(write_snapshot(arrays, meta, seed=seed))


def _declared(name):
    """Whether ``name`` is an entry the state table declares, or fits one of
    its patterns."""
    return any(re.fullmatch(re.sub(r"<\w+>", "[^/]*", row.name), name)
               for part in _STATE for row in part.rows)


def test_seeded_snapshot_mutants_restore_or_fail_naming_an_entry():
    # two gate units, replay rows, a pending transition, a full context window
    # and a trace; a third of the mutants flip one bit, a third truncate, a
    # third overwrite one byte.  Each restores (a mutant may restore as another
    # agent: catching those is a checksum's job), or raises SnapshotError, or a
    # ValueError quoting an entry or a config key; pyproject turns any
    # RuntimeWarning into an error
    a = Agent(small_config(seed=19, replay_capacity=8, replay_samples=1))
    r = 0.0
    for x in obs_stream(20, seed=8):
        r = 0.5 if a.cycle(x, r_env=r) == 1 else -0.5
    assert a.gate.active_count == 2 and a.motor.replay and a.pending is not None
    assert len(a.tracker) == a.config.context_window and a.dm.traces
    blob = a.snapshot()
    keys = {"config", *dataclasses.asdict(a.config)}
    rng = np.random.default_rng(23)
    for i in range(600):
        data = bytearray(blob)
        if i % 3 == 0:
            bit = int(rng.integers(8 * len(data)))
            data[bit // 8] ^= 1 << bit % 8
        elif i % 3 == 1:
            data = data[:int(rng.integers(len(data)))]
        else:
            data[int(rng.integers(len(data)))] = int(rng.integers(256))
        try:
            Agent.restore(bytes(data))
        except SnapshotError:
            pass
        except ValueError as exc:
            quoted = re.findall(r"'([^']*)'", str(exc))
            assert any(q in keys or _declared(q) for q in quoted), f"mutant {i}: {exc}"


def test_readme_lists_the_declared_snapshot_entries():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Snapshots\n")[1].split("\n## ")[0]
    table = [[cell.strip() for cell in line.strip().strip("|").split("|")]
             for line in section.splitlines() if line.startswith("| `")]

    def shape(dims):
        return "—" if dims is None else f"`({', '.join(dims)}{',' * (len(dims) == 1)})`"

    assert table == [[f"`{row.name}`", "JSON" if row.shape is None else "array",
                      shape(row.shape), re.sub(r"[{}]", "", row.rule) or "—"]
                     for part in _STATE for row in part.rows]


def test_a_motor_hidden_layer_needs_motor_beta_above_zero():
    with pytest.raises(ValueError, match=r"motor_hidden \(8,\) cannot learn at motor_beta 0\.0"):
        small_config(motor_hidden=(8,), motor_beta=0.0)
    small_config(motor_hidden=(), motor_beta=0.0)
    a = Agent(small_config(motor_hidden=(8,)))
    arrays, meta, seed = read_snapshot(a.snapshot())
    meta["config"]["motor_beta"] = 0.0
    with pytest.raises(ValueError, match="cannot learn at motor_beta 0.0"):
        Agent.restore(write_snapshot(arrays, meta, seed=seed))


@pytest.mark.parametrize("unit", [0, 1])
def test_restore_rejects_a_unit_without_its_prototype(unit):
    # restore counts units by prototype entries; the unit's masks give it away
    a = Agent(small_config(seed=19))
    for x in obs_stream(20, seed=8):
        a.cycle(x)
    assert a.gate.active_count == 2
    arrays, meta, seed = read_snapshot(a.snapshot())
    del arrays[f"gate/prototype/{unit}"]
    with pytest.raises(ValueError, match=r"'gate/mask/1/1'.*no recruited gate unit"):
        Agent.restore(write_snapshot(arrays, meta, seed=seed))


@pytest.mark.parametrize("bad", [0.5, 0.0, np.nan])
def test_restore_rejects_a_mask_the_gate_cannot_make(bad):
    a = Agent(small_config(seed=19))
    for x in obs_stream(20, seed=8):
        a.cycle(x)
    arrays, meta, seed = read_snapshot(a.snapshot())
    arrays["gate/mask/1/1"] = np.full(16, bad)
    with pytest.raises(ValueError, match=r"'gate/mask/1/1' is not a 0/1 mask opening a unit"):
        Agent.restore(write_snapshot(arrays, meta, seed=seed))


@pytest.mark.parametrize("damage, named", [
    (lambda config: list(config), "mapping"),
    (lambda config: {**config, "sensory_width": 16}, "'sensory_width'"),
    (lambda config: {k: v for k, v in config.items() if k != "obs_dim"}, "'obs_dim'"),
], ids=["not_a_mapping", "unknown_key", "missing_key"])
def test_restore_rejects_a_damaged_config(damage, named):
    a = Agent(small_config())
    a.cycle(np.ones(8))
    arrays, meta, seed = read_snapshot(a.snapshot())
    meta["config"] = damage(meta["config"])
    with pytest.raises(ValueError, match=rf"snapshot entry 'config'.*{named}"):
        Agent.restore(write_snapshot(arrays, meta, seed=seed))


@pytest.mark.parametrize("entry", ["sensory/W1", "gate/mask/0/1", "step", "config"])
def test_restore_names_a_missing_entry(entry):
    a = Agent(small_config(seed=19))
    for x in obs_stream(20, seed=8):
        a.cycle(x)
    assert a.gate.active_count == 2
    arrays, meta, seed = read_snapshot(a.snapshot())
    (arrays if entry in arrays else meta).pop(entry)
    with pytest.raises(ValueError, match=rf"'{entry}' is missing"):
        Agent.restore(write_snapshot(arrays, meta, seed=seed))


@pytest.mark.parametrize("entry", ["motor/rng_state", "gate/rng_state"])
@pytest.mark.parametrize("damage", [
    lambda state: {"bit_generator": "PCG64", "stat": {}},
    lambda state: {**state, "state": {"state": state["state"]["state"]}},
    lambda state: "PCG64",
], ids=["no_inner_state", "no_inc", "not_a_mapping"])
def test_restore_names_a_damaged_rng_state(entry, damage):
    a = Agent(small_config())
    a.cycle(np.ones(8))
    arrays, meta, seed = read_snapshot(a.snapshot())
    meta[entry] = damage(meta[entry])
    with pytest.raises(ValueError, match=rf"snapshot entry '{entry}' is damaged"):
        Agent.restore(write_snapshot(arrays, meta, seed=seed))


def test_gated_wide_agent_rolls_back_a_failed_motor_update(monkeypatch):
    # 784 -> 256 with a quarter of the units open: the motor's update fails
    # before the sensory update runs, so the sensory W and E are never
    # written; the rolled-back agent holds the pre-cycle circuit and goes on
    # as a twin that never ran the failing cycle
    a = Agent(small_config(obs_dim=784, sensory_hidden=(256,), sensory_K=30,
                           mask_mode="blocks", mask_p=0.25, seed=31))
    stream = obs_stream(26, seed=12, dim=784)
    for x in stream[:5]:
        a.cycle(x, r_env=0.1)
    before = a.snapshot()
    twin = Agent.restore(before)
    sensory_before = a.sensory
    W, E = a.sensory.W[1], a.sensory.E[1]
    held = [W.tobytes(), E.tobytes()]
    update, handed = ngc.update_weights, []

    def traced(circuit, *args, **kwargs):
        new = update(circuit, *args, **kwargs)
        handed.append(new is not circuit and new.W[1] is circuit.W[1])
        return new

    calls = _fail_on_call(monkeypatch, ngc, "_swapped", 1)  # the motor's
    monkeypatch.setattr(ngc, "update_weights", traced)
    with pytest.raises(RuntimeError, match="injected"):
        a.cycle(stream[5], r_env=1.0)
    assert handed == [] and len(calls) == 1
    assert a.sensory is sensory_before and a.sensory.W[1] is W and a.sensory.E[1] is E
    assert [W.tobytes(), E.tobytes()] == held
    assert a.snapshot() == before
    monkeypatch.undo()
    monkeypatch.setattr(ngc, "update_weights", traced)
    for x in stream[6:]:
        assert a.cycle(x, r_env=1.0) == twin.cycle(x, r_env=1.0)
        assert a.snapshot() == twin.snapshot()
    monkeypatch.undo()
    # every update returned a new circuit holding the W it wrote in place
    assert len(handed) == 20 + 20 and all(handed)


def test_ungated_agent_rolls_back_a_fault_in_its_sensory_swap(monkeypatch):
    # 784 -> 256 with every unit open (mask_p 1): the motor learns, then the
    # sensory update, the cycle's last step, fails as it forms new W and E; a
    # rollback puts back the old circuit, whose arrays the update never wrote
    a = Agent(small_config(obs_dim=784, sensory_hidden=(256,), sensory_K=30, mask_p=1.0,
                           seed=31))
    stream = obs_stream(6, seed=12, dim=784)
    for x in stream[:5]:
        a.cycle(x, r_env=0.1)
    before = a.snapshot()
    twin = Agent.restore(before)
    sensory_before, motor_before = a.sensory, a.motor.circuit
    W, E = a.sensory.W[1], a.sensory.E[1]
    held = [W.tobytes(), E.tobytes()]
    update, learned = ngc.update_weights, []

    def update_and_record(circuit, *args, **kwargs):
        learned.append(a.motor.circuit is not motor_before)
        return update(circuit, *args, **kwargs)

    monkeypatch.setattr(ngc, "update_weights", update_and_record)
    calls = _fail_on_call(monkeypatch, ngc, "_swapped", 2)  # the motor's swap, then the sensory
    with pytest.raises(RuntimeError, match="injected"):
        a.cycle(stream[5], r_env=1.0)
    monkeypatch.undo()
    assert learned == [True] and len(calls) == 2
    assert a.sensory is sensory_before and a.motor.circuit is motor_before
    assert a.sensory.W[1] is W and a.sensory.E[1] is E
    assert [W.tobytes(), E.tobytes()] == held
    assert a.snapshot() == before
    assert a.cycle(stream[5], r_env=1.0) == twin.cycle(stream[5], r_env=1.0)
    assert a.snapshot() == twin.snapshot()


def test_gated_wide_agent_rolls_back_a_clip_that_fails_after_w_is_written(monkeypatch):
    # 784 -> 256 -> 64 with a quarter of the units open; the clip of the top
    # layer's W fails after the first layer's W and E were written and clipped
    a = Agent(small_config(obs_dim=784, sensory_hidden=(256, 64), sensory_K=30,
                           mask_mode="blocks", mask_p=0.25, seed=31))
    stream = obs_stream(8, seed=12, dim=784)
    for x in stream[:5]:
        a.cycle(x, r_env=0.1)
    before = a.snapshot()
    twin = Agent.restore(before)
    sensory_before, W, E = a.sensory, a.sensory.W[1], a.sensory.E[1]
    held = [W.tobytes(), E.tobytes()]
    calls = _fail_on_call(monkeypatch, ngc, "_clip", 3)
    with pytest.raises(RuntimeError, match="injected"):
        a.cycle(stream[5], r_env=1.0)
    monkeypatch.undo()
    assert len(calls) == 3
    assert a.sensory is sensory_before and a.sensory.W[1] is W and a.sensory.E[1] is E
    assert [W.tobytes(), E.tobytes()] == held
    assert a.snapshot() == before
    for x in stream[5:]:
        assert a.cycle(x, r_env=1.0) == twin.cycle(x, r_env=1.0)
        assert a.snapshot() == twin.snapshot()


def test_a_gated_agent_update_forms_no_array_the_size_of_e(monkeypatch):
    # 784 -> 256 with a quarter of the units open: the sensory update works
    # on the open block of W and E alone
    a = Agent(small_config(obs_dim=784, sensory_hidden=(256,), sensory_K=30,
                           mask_mode="blocks", mask_p=0.25, seed=31))
    stream = obs_stream(9, seed=12, dim=784)
    for x in stream[:3]:
        a.cycle(x, r_env=0.1)
    update, formed = ngc.update_weights, []

    def traced(circuit, state, *args, **kwargs):
        # the update keeps a copy of the open block of W and of E until it returns
        kept = 2 * circuit.W[1].shape[0] * np.count_nonzero(state.mask[1]) * 8
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = update(circuit, state, *args, **kwargs)
        formed.append(tracemalloc.get_traced_memory()[1] - start - kept)
        return out

    monkeypatch.setattr(ngc, "update_weights", traced)
    tracemalloc.start()
    try:
        for x in stream[3:6]:
            a.cycle(x, r_env=0.1)
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    # besides the copies it keeps, an update forms at its peak the new
    # blocks of W and E and the squares of one for its clip: three blocks,
    # each a quarter of E; an ``E * E`` alone would be all of it (1.6 MB)
    E = a.sensory.E[1]
    assert len(formed) == 3 and max(formed) < 3.1 * E.nbytes / 4


def test_agents_restored_from_one_blob_share_no_memory():
    a = Agent(small_config(seed=37, replay_capacity=8, replay_samples=1))
    stream = obs_stream(14, seed=17)
    for x in stream[:12]:
        a.cycle(x, r_env=0.5)
    blob = a.snapshot()
    b, c = Agent.restore(blob), Agent.restore(blob)
    held = [[v for part in _STATE for v in _arrays_in(part.take(agent))] for agent in (a, b, c)]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert not any(np.shares_memory(u, v) for u in held[i] for v in held[j])
    for agent in (b, c):
        for M in (*agent.sensory.W[1:], *agent.sensory.E[1:]):
            assert M.flags.writeable and M.flags.c_contiguous
    for x in stream[12:]:
        b.cycle(x, r_env=1.0)
    assert b.snapshot() != blob
    assert c.snapshot() == blob == a.snapshot()


def test_nan_observation_rolls_back_and_carries_on():
    a = Agent(small_config(seed=29))
    stream = obs_stream(12, seed=11)
    for x in stream[:11]:
        a.cycle(x, r_env=0.1)
    assert len(a.tracker) == a.config.context_window and a.gate.active_count
    before = a.snapshot()
    twin = Agent.restore(before)
    with pytest.raises(ngc.DivergenceError):
        a.cycle(np.full(8, np.nan), r_env=0.1)
    assert a.snapshot() == before
    assert a.cycle(stream[11], r_env=0.1) == twin.cycle(stream[11], r_env=0.1)
    assert a.snapshot() == twin.snapshot()


def test_restored_agent_replays_identically():
    a = Agent(small_config(seed=19))
    r = 0.0
    for x in obs_stream(20, seed=8):
        act = a.cycle(x, r_env=r)
        r = 1.0 if act == 2 else 0.0
    assert a.gate.active_count == 2  # the restore counts units by prototype
    blob = a.snapshot()
    b = Agent.restore(blob)
    assert len(b.gate.prototypes) == len(b.gate.masks) == 2
    tail = obs_stream(30, seed=9)
    ra = rb = 0.0
    for x in tail:
        act_a = a.cycle(x, r_env=ra)
        act_b = b.cycle(x, r_env=rb)
        assert act_a == act_b
        ra = 1.0 if act_a == 0 else -1.0
        rb = 1.0 if act_b == 0 else -1.0
    assert a.snapshot() == b.snapshot()


@pytest.mark.parametrize("mask_p", [0.25, 1.0])
def test_restore_resumes_byte_identically_past_numpy_layout_switch(mask_p):
    # 256 x 128 = 32768 sensory weights: the size from which NumPy lays out
    # ``E + eta * grad.T`` in Fortran order, which a restore would not; gated
    # and ungated agents update their weights on different paths
    a = Agent(small_config(obs_dim=256, sensory_hidden=(128,), mask_mode="blocks",
                           mask_p=mask_p, seed=37))
    stream = obs_stream(40, seed=13, dim=256)
    r = 0.0
    for x in stream[:20]:
        r = 1.0 if a.cycle(x, r_env=r) == 1 else -1.0
    b = Agent.restore(a.snapshot())
    ra = rb = r
    for x in stream[20:]:
        ra = 1.0 if a.cycle(x, r_env=ra) == 1 else -1.0
        rb = 1.0 if b.cycle(x, r_env=rb) == 1 else -1.0
    assert a.snapshot() == b.snapshot()


def test_restore_draws_no_circuit_weights(monkeypatch):
    a = Agent(small_config(seed=17, motor_hidden=(6,)))
    for x in obs_stream(5, seed=7):
        a.cycle(x, r_env=0.5)
    blob = a.snapshot()
    drawn = []
    init = ngc.init_circuit
    monkeypatch.setattr(ngc, "init_circuit", lambda *args, **kw: drawn.append(0) or init(*args, **kw))
    b = Agent.restore(blob)
    assert drawn == []
    assert b.snapshot() == blob
    assert np.array_equal(b.bridge1, a.bridge1) and np.array_equal(b.bridge2, a.bridge2)
    assert all(np.array_equal(b.lexicon[n], a.lexicon[n]) for n in ("unit0", "unit1"))


def test_restore_rejects_corruption():
    a = Agent(small_config())
    a.cycle(np.ones(8))
    blob = a.snapshot()
    with pytest.raises(Exception):
        Agent.restore(blob[: len(blob) // 2])


def test_supervised_step_learns_a_fixed_mapping():
    a = Agent(small_config(motor_eta_W=0.1, motor_eta_E=0.1))
    rng = np.random.default_rng(3)
    x0, x1 = rng.normal(size=8), rng.normal(size=8)
    for _ in range(40):
        a.supervised_step(x0, np.array([1.0, -1.0, -1.0]))
        a.supervised_step(x1, np.array([-1.0, 1.0, -1.0]))
    assert a.probe(x0)[0] == 0
    assert a.probe(x1)[0] == 1
    assert a.step == 80


def test_supervised_step_leaves_pending_untouched():
    a = Agent(small_config())
    a.cycle(np.ones(8))
    pending_before = a.pending
    a.supervised_step(np.zeros(8), np.zeros(3))
    assert a.pending is pending_before


# the benchmark's continual workload: the acceptance config, shortened
BENCH_CONTINUAL = {**CONTINUAL_CFG, "per_task_train": 100, "per_task_test": 50, "epochs": 2}


@pytest.fixture(scope="module")
def bench_continual():
    """The benchmark's trained continual agent at seed 1 and its two tasks."""
    cfg = resolve(BENCH_CONTINUAL)
    agent = runner.run_continual(cfg, seed=1)["agent"]
    tasks = make_split_mnist(*runner.load_dataset(cfg), DEFAULT_PAIRS[:2],
                             cfg["per_task_train"], cfg["per_task_test"], seed=1)
    return agent, tasks


def test_batched_probe_matches_probing_each_row(bench_continual):
    agent, tasks = bench_continual
    before = agent.snapshot()
    for task in tasks:
        context = task.test_x[:32].mean(axis=0)
        actions, q, winner = agent.probe(task.test_x, context=context)
        rows = [agent.probe(x, context=context) for x in task.test_x]
        assert actions == [row[0] for row in rows]
        assert q.shape == (len(task.test_x), 2)
        np.testing.assert_allclose(q, [row[1] for row in rows], rtol=0, atol=1e-12)
        assert {winner} == {row[2] for row in rows}
    assert agent.snapshot() == before
    for bad in (np.zeros((3, 783)), np.zeros((2, 3, 784)), np.zeros(785)):
        with pytest.raises(ValueError, match="observation shape"):
            agent.probe(bad, context=context)


def test_batched_probe_of_a_deep_circuit_matches_probing_each_row():
    a = Agent(small_config(sensory_hidden=(16, 12), seed=41))
    stream = obs_stream(12, seed=15)
    for x in stream:
        a.cycle(x, r_env=0.1)
    batch = np.stack(stream[:5])
    actions, q, winner = a.probe(batch)
    rows = [a.probe(x) for x in batch]
    assert actions == [row[0] for row in rows]
    np.testing.assert_allclose(q, [row[1] for row in rows], rtol=0, atol=1e-12)


def test_batched_probe_with_beta_zero_settles_the_batch_at_once(monkeypatch):
    a = Agent(small_config(sensory_beta=0.0, seed=42))
    stream = obs_stream(12, seed=16)
    for x in stream:
        a.cycle(x, r_env=0.1)
    batch = np.stack(stream[:5])
    rows = [a.probe(x) for x in batch]
    settles, reads = [], []
    settle, q_values = ngc._settle, MotorCircuit._q_values  # a probe's unchecked paths
    monkeypatch.setattr(ngc, "_settle",
                        lambda *args, **kw: settles.append(0) or settle(*args, **kw))
    monkeypatch.setattr(MotorCircuit, "_q_values",
                        lambda *args, **kw: reads.append(0) or q_values(*args, **kw))
    actions, q, winner = a.probe(batch)
    # the sensory batch settles once; the motor head, with no hidden layer,
    # reads the batch once without a settle
    assert len(settles) == 1 and len(reads) == 1
    assert actions == [row[0] for row in rows]
    np.testing.assert_allclose(q, [row[1] for row in rows], rtol=0, atol=1e-12)


# every function a cycle calls that can raise part way through it; where the
# agent runs a public function's body without its checks, ``_name`` after
# ``name``'s checks, the body is what a cycle calls (see ``_case_name``)
CYCLE_CALLS = [
    (ngc, "_settle"), (ngc, "_settle_clamped_input"), (ngc, "_check_given"),
    (ngc, "_passes_stay_bounded"), (ngc, "energy"), (ngc, "update_weights"),
    (ngc, "_clip"),  # the sensory W's open block clipped, then E's, before both are written
    (ngc, "_outer"),  # the motor's change, then the sensory W's and E's
    (memory, "_wm_encode"), (memory, "dm_store"), (memory, "_dm_retrieve"), (hrr, "_permute"),
    (ContextTracker, "update"),
    (CompetitiveGate, "select_or_recruit"), (CompetitiveGate, "_match"),
    (CompetitiveGate, "_update_winner"), (CompetitiveGate, "_gating"),
    (MotorCircuit, "_q_values"),
    (ngc, "_check_bounded"),  # the divergence check of the motor head's output
    (MotorCircuit, "_fit"), (ngc, "_swapped"),
]

# the atomic entry points, and what each calls of the functions above: a
# cycle also explores and learns from the pending transition, a supervised
# step regresses instead; a finish learns, replays (checking a replayed
# state) and swaps, a read and a swap that stand for a settle and
# ``update_weights`` in a head with no hidden layer; a perceive runs the
# sensory half of a cycle alone
ENTRY_POINTS = {
    "cycle": lambda agent, x: agent.cycle(x, r_env=0.5),
    "supervised_step": lambda agent, x: agent.supervised_step(x, np.array([1.0, -1.0, -1.0])),
    "finish": lambda agent, x: agent.finish(r_env=0.5),
    "perceive": lambda agent, x: agent.perceive(x),
}
ATOMIC_CALLS = [
    *(("cycle", *call) for call in [*CYCLE_CALLS, (MotorCircuit, "act"),
                                    (MotorCircuit, "_learn")]),
    *(("supervised_step", *call) for call in [*CYCLE_CALLS, (MotorCircuit, "_regress")]),
    *(("finish", *call) for call in [(ngc, "_check_bounded"), (ngc, "_check_given"),
                                     (ngc, "_swapped"), (MotorCircuit, "_fit"),
                                     (MotorCircuit, "_learn")]),
    *(("perceive", *call) for call in [(ContextTracker, "update"), (ngc, "_settle"),
                                       (ngc, "update_weights"), (ngc, "_clip"),
                                       (ngc, "_outer")]),
]


def _case_name(entry, owner, name):
    """A case's id: the entry point, but for a cycle, and the function that
    fails, named by the public function it is the body of (``_match`` is
    ``match``'s body) where ``owner`` has one."""
    public = name[1:] if name.startswith("_") and hasattr(owner, name[1:]) else name
    return f"{'' if entry == 'cycle' else entry + '-'}{owner.__name__}.{public}"


@pytest.mark.parametrize("entry, owner, name", ATOMIC_CALLS,
                         ids=[_case_name(*call) for call in ATOMIC_CALLS])
def test_a_failure_anywhere_in_a_cycle_rolls_back(entry, owner, name, monkeypatch):
    stream = obs_stream(32, seed=14)

    def warmed():  # routing on, replay on, past the context warm-up
        agent = Agent(small_config(seed=23, replay_capacity=8, replay_samples=1))
        for x in stream[:12]:
            agent.cycle(x, r_env=0.5)
        return agent

    def resume(agent):
        r, actions = 0.5, []
        for x in stream[12:]:
            actions.append(agent.cycle(x, r_env=r))
            r = 1.0 if actions[-1] == 1 else -1.0
        return actions, agent.snapshot()

    agent = warmed()
    before = agent.snapshot()
    calls = _fail_on_call(monkeypatch, owner, name, 0)
    ENTRY_POINTS[entry](agent, stream[12])
    monkeypatch.undo()
    assert calls
    want = resume(warmed())  # 20 cycles of an agent that never failed
    for k in range(1, len(calls) + 1):
        agent = warmed()
        _fail_on_call(monkeypatch, owner, name, k)
        with pytest.raises(RuntimeError, match="injected"):
            ENTRY_POINTS[entry](agent, stream[12])
        monkeypatch.undo()
        assert agent.snapshot() == before
        assert resume(agent) == want


@pytest.mark.parametrize("entry", ["cycle", "supervised_step", "perceive"])
def test_the_sensory_update_is_the_last_step_of_a_block(entry, monkeypatch):
    # when the sensory update starts, every other part of ``_STATE`` holds
    # the value its block ends with, so a rollback never has to undo it
    a = Agent(small_config(seed=23, replay_capacity=8, replay_samples=1))
    update, seen = ngc.update_weights, []

    def traced(*args, **kwargs):
        seen.append([part.take(a) for part in _STATE])
        return update(*args, **kwargs)

    monkeypatch.setattr(ngc, "update_weights", traced)
    for x in obs_stream(16, seed=14):
        ENTRY_POINTS[entry](a, x)
        (held,) = seen
        seen.clear()
        for part, then in zip(_STATE, held):
            now = part.take(a)
            if part.take.__reduce__()[1][0] == "sensory":
                assert now is not then
            else:  # an RNG's state reads as a fresh dict
                assert now is then or type(now) is dict and now == then


def test_snapshot_copies_each_array_once(bench_continual):
    agent, _ = bench_continual
    entries = agent._entries()
    arrays = {k: v for k, v in entries.items() if isinstance(v, np.ndarray)}
    meta = {k: v for k, v in entries.items() if k not in arrays}
    tracemalloc.start()
    try:
        blob = write_snapshot(arrays, meta, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blob == agent.snapshot()
    assert peak < 1.3 * len(blob)  # tobytes, then the join, took twice the output
