import numpy as np
import pytest

from cogkit import ngc
from cogkit.agent import Agent, AgentConfig
from cogkit.snapshot import read_snapshot, write_snapshot


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
    assert set(a.state.buffers) == {"perception", "retrieval"}
    assert all(v.shape == (64,) for v in a.state.buffers.values())
    assert a.state.wm.d == 64
    assert a.bridge1.shape == (64, 16)
    assert a.bridge2.shape == (16, 3 * 64)
    with pytest.raises(ValueError):
        AgentConfig(obs_dim=8, n_actions=2, sensory_hidden=())


def test_perceive_fills_normalized_buffer():
    a = Agent(small_config())
    a.perceive(np.ones(8))
    p = a.state.buffers["perception"]
    assert np.linalg.norm(p) == pytest.approx(1.0)
    assert a.last_winner == 0
    assert a.last_energy >= 0.0
    with pytest.raises(ValueError):
        a.perceive(np.ones(9))


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
    assert a.state.step == 1


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
    r0 = a.state.buffers["retrieval"].copy()
    for i, x in enumerate(obs_stream(20, seed=4)):
        a.cycle(x, r_env=0.1 * i)
    assert a.state.wm.position == 0
    assert not a.state.wm.m.any()
    assert not a.dm.traces
    assert np.array_equal(a.state.buffers["retrieval"], r0)


def test_routing_on_moves_memories():
    a = Agent(small_config())
    for x in obs_stream(10, seed=5):
        a.cycle(x)
    assert a.state.wm.position == 10
    assert a.dm.traces  # stored a task fact each cycle
    assert a.state.buffers["retrieval"].any()


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
    real_update, real_rollback = ngc.update_weights, Agent._rollback
    calls, seen, rollbacks = [], {}, []

    def failing_update(*args, **kwargs):
        calls.append(None)
        # calls: the sensory update, the motor's own update, then the first
        # replayed transition, by when the replay picks have been drawn
        if len(calls) == 3:
            seen["learned"] = not np.array_equal(a.motor.circuit.W[1], W_before)
            seen["drew"] = a.motor.rng.bit_generator.state != rng_before
            raise RuntimeError("injected")
        return real_update(*args, **kwargs)

    def counting_rollback(self, cap):
        rollbacks.append(None)
        real_rollback(self, cap)

    monkeypatch.setattr(ngc, "update_weights", failing_update)
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
        "prev_winner", "step", "wm/position",
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


def test_gated_wide_agent_rolls_back_a_failed_motor_update(monkeypatch):
    # 784 -> 256 with a quarter of the units open: the sensory update takes
    # the open-unit path, then the motor's update fails
    a = Agent(small_config(obs_dim=784, sensory_hidden=(256,), sensory_K=30,
                           mask_mode="blocks", mask_p=0.25, seed=31))
    stream = obs_stream(6, seed=12, dim=784)
    for x in stream[:5]:
        a.cycle(x, r_env=0.1)
    before = a.snapshot()
    twin = Agent.restore(before)
    sensory_before = a.sensory
    real_update, calls = ngc.update_weights, []

    def failing_update(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return real_update(*args, **kwargs)

    monkeypatch.setattr(ngc, "update_weights", failing_update)
    with pytest.raises(RuntimeError, match="injected"):
        a.cycle(stream[5], r_env=1.0)
    monkeypatch.undo()
    assert len(calls) == 2 and a.sensory is sensory_before
    assert a.snapshot() == before
    assert a.cycle(stream[5], r_env=1.0) == twin.cycle(stream[5], r_env=1.0)
    assert a.snapshot() == twin.snapshot()


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
    assert a.state.step == 80


def test_supervised_step_leaves_pending_untouched():
    a = Agent(small_config())
    a.cycle(np.ones(8))
    pending_before = a.pending
    a.supervised_step(np.zeros(8), np.zeros(3))
    assert a.pending is pending_before
