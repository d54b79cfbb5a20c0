from dataclasses import replace

import numpy as np
import pytest

from cogkit import ngc
from cogkit.motor import (
    MotorCircuit,
    Transition,
    epistemic_reward,
    epsilon_at,
    greedy_action,
)


def test_constructor_validation():
    with pytest.raises(ValueError):
        MotorCircuit(1, 4)
    with pytest.raises(ValueError):
        MotorCircuit(3, 4, gamma_d=1.0)
    with pytest.raises(ValueError):
        MotorCircuit(3, 4, alpha_e=-0.1)
    with pytest.raises(ValueError):
        MotorCircuit(3, 4, r_clip=0.0)
    # a hidden layer's units would stay at 0, so tanh(0) would give W1 no change
    with pytest.raises(ValueError, match=r"hidden layers \(8,\) cannot learn at beta 0\.0"):
        MotorCircuit(3, 4, hidden=(8,), beta=0.0)
    MotorCircuit(3, 4, hidden=(), beta=0.0)


def test_q_values_zero_weights():
    m = MotorCircuit(4, 6, seed=0, sigma=0.0)
    q = m.q_values(np.ones(6))
    assert q.shape == (4,)
    assert not q.any()


def test_q_values_deterministic():
    m = MotorCircuit(3, 5, hidden=(8,), seed=1)
    s = np.random.default_rng(1).normal(size=5)
    assert np.array_equal(m.q_values(s), m.q_values(s))
    with pytest.raises(ValueError):
        m.q_values(np.zeros(4))


def test_greedy_action_rules():
    assert greedy_action([0.1, 0.9, 0.3]) == 1
    assert greedy_action([0.5, 0.5, 0.5]) == 0
    # argmax cares about order, not scale or offset
    q = np.array([0.2, -0.4, 0.9, 0.1])
    assert greedy_action(3.7 * q + 11.0) == greedy_action(q)


def test_act_epsilon_extremes():
    m = MotorCircuit(3, 4, seed=2, sigma=0.0)
    q = m.q_values(np.ones(4))
    assert m.act(q, 0.0) == 0  # all-equal Q, tie to lowest
    with pytest.raises(ValueError):
        m.act(q, 1.5)


def test_act_uniform_at_full_exploration():
    m = MotorCircuit(3, 4, seed=3, sigma=0.0)
    q = m.q_values(np.zeros(4))
    counts = np.zeros(3)
    for _ in range(10_000):
        counts[m.act(q, 1.0)] += 1
    freqs = counts / counts.sum()
    assert np.abs(freqs - 1 / 3).max() <= 0.02


def test_act_reproducible_stream():
    draws1 = [MotorCircuit(4, 4, seed=9, sigma=0.0).act(np.zeros(4), 1.0) for _ in range(1)]
    m1 = MotorCircuit(4, 4, seed=9, sigma=0.0)
    m2 = MotorCircuit(4, 4, seed=9, sigma=0.0)
    seq1 = [m1.act(m1.q_values(np.zeros(4)), 0.7) for _ in range(50)]
    seq2 = [m2.act(m2.q_values(np.zeros(4)), 0.7) for _ in range(50)]
    assert seq1 == seq2
    assert draws1  # a single fresh draw also comes from the seeded stream


def test_epistemic_reward():
    assert epistemic_reward(0.0, 0.5, 1.0) == 0.0
    assert epistemic_reward(3.0, 0.0, 1.0) == 0.0
    assert epistemic_reward(3.0, 0.1, 1.0) == pytest.approx(0.3)
    assert epistemic_reward(100.0, 0.5, 1.0) == 1.0  # clipped
    for bad, alpha_e in ((-1.0, 0.5), (np.nan, 0.5), (np.inf, 0.0)):
        with pytest.raises(ValueError, match=r"sensory energy must be >= 0, got "):
            epistemic_reward(bad, alpha_e, 1.0)


def test_epsilon_schedule():
    assert epsilon_at(0, 1000) == pytest.approx(1.0)
    assert epsilon_at(250, 1000) == pytest.approx(0.525)
    assert epsilon_at(500, 1000) == pytest.approx(0.05)
    assert epsilon_at(999, 1000) == pytest.approx(0.05)
    assert epsilon_at(0, 0) == pytest.approx(0.05)


def test_learn_moves_q_toward_reward():
    s = np.random.default_rng(4).normal(size=6)
    for r in (1.0, -1.0):
        m = MotorCircuit(3, 6, seed=4, sigma=0.0, eta_W=0.1, eta_E=0.1)
        q_before = m.q_values(s)[1]
        assert q_before == 0.0
        m.learn(Transition(s=s, a=1, r_env=r, s_next=s, done=True))
        q_after = m.q_values(s)[1]
        assert np.sign(q_after - q_before) == np.sign(r)


def test_learn_zero_everything_is_noop():
    m = MotorCircuit(3, 6, seed=5, sigma=0.0)
    s = np.ones(6)
    W_before = [w.copy() for w in m.circuit.W[1:]]
    m.learn(Transition(s=s, a=0, r_env=0.0, s_next=s, done=False))
    for before, after in zip(W_before, m.circuit.W[1:]):
        assert np.array_equal(before, after)


def test_learn_gamma_zero_is_reward_regression():
    # With gamma_d = 0 the target ignores s_next entirely.
    rng = np.random.default_rng(6)
    s, s_far = rng.normal(size=5), rng.normal(size=5)
    m1 = MotorCircuit(2, 5, seed=6, gamma_d=0.0, eta_W=0.05, eta_E=0.05)
    m2 = MotorCircuit(2, 5, seed=6, gamma_d=0.0, eta_W=0.05, eta_E=0.05)
    m1.learn(Transition(s=s, a=0, r_env=0.7, s_next=s, done=False))
    m2.learn(Transition(s=s, a=0, r_env=0.7, s_next=s_far, done=False))
    assert np.array_equal(m1.circuit.W[1], m2.circuit.W[1])


def test_learn_untouched_action_rows_frozen():
    m = MotorCircuit(4, 6, seed=7, eta_W=0.05, eta_E=0.05)
    rng = np.random.default_rng(7)
    s = rng.normal(size=6)
    W_before = m.circuit.W[1].copy()
    m.learn(Transition(s=s, a=2, r_env=0.5, s_next=rng.normal(size=6), done=True))
    for row in (0, 1, 3):
        assert np.array_equal(m.circuit.W[1][row], W_before[row])
    assert not np.array_equal(m.circuit.W[1][2], W_before[2])


def test_learn_repeated_transition_contracts_error():
    # Replaying one transition with gamma_d = 0 regresses Q(s, a) onto r:
    # the gap |Q - r| never grows at a modest learning rate.
    m = MotorCircuit(2, 5, seed=8, gamma_d=0.0, eta_W=0.05, eta_E=0.05)
    s = np.random.default_rng(8).normal(size=5)
    t = Transition(s=s, a=1, r_env=0.8, s_next=s, done=True)
    gap = abs(m.q_values(s)[1] - 0.8)
    for _ in range(40):
        m.learn(t)
        new_gap = abs(m.q_values(s)[1] - 0.8)
        assert new_gap <= gap + 1e-12
        gap = new_gap
    assert gap < 0.2


def test_learn_transition_validation():
    m = MotorCircuit(2, 4, seed=10)
    s = np.zeros(4)
    with pytest.raises(ValueError):
        m.learn(Transition(s=s, a=5, r_env=0.0, s_next=s, done=True))
    with pytest.raises(ValueError):
        m.learn(Transition(s=s, a=0, r_env=float("nan"), s_next=s, done=True))
    with pytest.raises(ValueError):
        m.learn(Transition(s=np.zeros(3), a=0, r_env=0.0, s_next=s, done=True))


@pytest.mark.parametrize("a", [1.5, 1.0, "1"])
def test_learn_rejects_a_non_integer_action(a):
    m = MotorCircuit(3, 4, seed=10)
    s = np.ones(4)
    before = m.circuit
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        m.learn(Transition(s=s, a=a, r_env=1.0, s_next=s, done=True))
    assert m.circuit is before
    m.learn(Transition(s=s, a=np.int64(1), r_env=1.0, s_next=s, done=True))
    assert m.circuit is not before


def test_reward_clipping_bounds_target():
    m1 = MotorCircuit(2, 4, seed=11, sigma=0.0, eta_W=0.1, eta_E=0.1, r_clip=1.0)
    m2 = MotorCircuit(2, 4, seed=11, sigma=0.0, eta_W=0.1, eta_E=0.1, r_clip=1.0)
    s = np.ones(4)
    m1.learn(Transition(s=s, a=0, r_env=1.0, s_next=s, done=True))
    m2.learn(Transition(s=s, a=0, r_env=50.0, s_next=s, done=True))
    assert np.array_equal(m1.circuit.W[1], m2.circuit.W[1])


def test_replay_buffer_learns_faster_on_sparse_reward():
    m = MotorCircuit(2, 4, seed=12, gamma_d=0.0, eta_W=0.05, eta_E=0.05,
                     replay_capacity=16, replay_samples=2)
    s = np.ones(4)
    m.learn(Transition(s=s, a=0, r_env=1.0, s_next=s, done=True))
    assert len(m.replay) == 1
    for _ in range(5):
        m.learn(Transition(s=s, a=1, r_env=0.0, s_next=s, done=True))
    assert len(m.replay) == 6
    # replayed rewards keep pulling Q(s, 0) up even without new reward
    assert m.q_values(s)[0] > 0.0


def test_regress_pulls_all_outputs_toward_targets():
    m = MotorCircuit(3, 4, seed=13, eta_W=0.1, eta_E=0.1)
    s = np.ones(4) / 2.0
    targets = np.array([1.0, -1.0, 0.5])
    before = np.abs(m.q_values(s) - targets)
    for _ in range(60):
        m.regress(s, targets)
    after = np.abs(m.q_values(s) - targets)
    assert (after < before).all()
    assert after.max() < 0.15


def test_regress_at_beta_zero_reaches_its_targets():
    # the motor's only layer above its actions is the clamped state, so no
    # pass runs at any beta; its pins drive learning at beta = 0 as at 0.05
    s = np.ones(4) / 2.0
    targets = np.array([1.0, -1.0, 0.5])
    motors = [MotorCircuit(3, 4, seed=13, eta_W=0.1, eta_E=0.1, beta=b) for b in (0.0, 0.05)]
    for m in motors:
        for _ in range(200):
            m.regress(s, targets)
    q = [m.q_values(s) for m in motors]
    assert np.array_equal(q[0], q[1])
    np.testing.assert_allclose(q[0], targets, rtol=0, atol=1e-3)


def test_regress_validation():
    m = MotorCircuit(2, 4, seed=14)
    with pytest.raises(ValueError):
        m.regress(np.ones(4), np.zeros(3))
    with pytest.raises(ValueError):
        m.regress(np.ones(4), np.array([0.0, float("inf")]))


class SettledMotor(MotorCircuit):
    """The motor head read and trained through ``ngc.settle`` and
    ``ngc.update_weights``, as a head with hidden layers is: the oracle of
    the closed form a head without one computes."""

    def q_values(self, s):
        return ngc.settle(self.circuit, clamps={self.circuit.L: s}).mu[0].copy()

    def _fit(self, s, pins):
        state = ngc.settle(self.circuit, clamps={self.circuit.L: s}, pin0=pins)
        self.circuit = ngc.update_weights(self.circuit, state, self.eta_W, self.eta_E,
                                          clip=self.clip_weights)


def _pair(**kwargs):
    kwargs = dict(n_actions=3, state_dim=6, seed=21, sigma=0.5, **kwargs)
    return MotorCircuit(**kwargs), SettledMotor(**kwargs)


def _same_weights(m, oracle):
    return all(np.array_equal(a, b) for a, b in zip(m.circuit.W[1:] + m.circuit.E[1:],
                                                    oracle.circuit.W[1:] + oracle.circuit.E[1:]))


def test_closed_form_q_values_equal_the_settle():
    m, oracle = _pair()
    rng = np.random.default_rng(21)
    s, batch = rng.normal(size=6), rng.normal(size=(6, 5))
    # one state, states as columns in either order or strided, and a list
    for states in (s, batch, np.asfortranarray(batch), batch[:, ::2], list(s)):
        q = m.q_values(states)
        assert q.shape == (3, *np.shape(states)[1:])
        assert np.array_equal(q, oracle.q_values(states))


@pytest.mark.parametrize("clip", [False, True], ids=["unclipped", "clipped"])
def test_closed_form_learning_equals_settle_and_update(clip):
    # replay, bootstrapped and terminal targets, given q_next and a regression
    # step, at rates that take columns of W and E past the unit ball
    kwargs = dict(gamma_d=0.9, alpha_e=0.1, eta_W=0.3, eta_E=0.3, clip_weights=clip,
                  replay_capacity=6, replay_samples=2)
    m, oracle = _pair(**kwargs)
    rng = np.random.default_rng(22)
    for step in range(40):
        s, s_next = rng.normal(size=6), rng.normal(size=6)
        t = Transition(s=s, a=int(rng.integers(3)), r_env=float(rng.normal()),
                       s_next=s_next, done=step % 5 == 4)
        before = m.circuit
        kept = [M.copy() for M in before.W[1:] + before.E[1:]]
        if step % 7 == 3:
            targets = rng.normal(size=3)
            m.regress(s, targets)
            oracle.regress(s, targets)
        elif step % 3 == 0:
            m.learn(t, sensory_energy=0.5, q_next=m.q_values(s_next))
            oracle.learn(t, sensory_energy=0.5, q_next=oracle.q_values(s_next))
        else:
            m.learn(t)
            oracle.learn(t)
        assert _same_weights(m, oracle), step
        assert m.circuit is not before  # swapped in, the old arrays untouched
        assert all(np.array_equal(a, b) for a, b in zip(before.W[1:] + before.E[1:], kept))
        assert all(M.flags.c_contiguous for M in m.circuit.W[1:] + m.circuit.E[1:])
    assert m.rng.bit_generator.state == oracle.rng.bit_generator.state
    assert len(m.replay) == 6
    for a, b in zip(m.replay, oracle.replay):
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
    norms = np.sqrt((m.circuit.W[1] ** 2).sum(axis=0))
    assert (norms <= 1.0 + 1e-12).all() if clip else (norms > 1.0).any()


def _raised(call):
    """(type, message) of what ``call()`` raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("W1, s, error", [
    (np.full((3, 6), 1e7), np.ones(6), ngc.DivergenceError),
    (np.full((3, 6), np.nan), np.ones(6), ngc.DivergenceError),
    (None, np.full(6, np.nan), ngc.DivergenceError),
    (None, np.full(6, 2e6), ngc.DivergenceError),
    (None, np.ones(5), ValueError),
    (None, np.ones((6, 0)), ValueError),
], ids=["huge_W1", "nan_W1", "nan_state", "large_state", "short_state", "empty_batch"])
def test_closed_form_raises_as_the_settle(W1, s, error):
    m, oracle = _pair()
    if W1 is not None:
        for motor in (m, oracle):
            motor.circuit = replace(motor.circuit, W=[None, W1])
    calls = [lambda motor: motor.q_values(s)]
    if s.ndim == 1 and s.size == 6:  # a state learn and regress take
        # one unit pinned, so the others follow a runaway prediction
        t = Transition(s=s, a=1, r_env=0.5, s_next=np.ones(6), done=True)
        calls.append(lambda motor: motor.learn(t))
        if W1 is None:  # every unit pinned: only the state can fail
            calls.append(lambda motor: motor.regress(s, np.zeros(3)))
    for call in calls:
        got = _raised(lambda: call(m))
        assert got[0] is error
        assert got == _raised(lambda: call(oracle))


def test_closed_form_raises_on_a_target_past_the_limit_as_the_settle():
    # the pinned unit holds a finite target beyond 1e6; the prediction is small
    m, oracle = _pair(gamma_d=0.9)
    s = np.ones(6)
    t = Transition(s=s, a=2, r_env=0.5, s_next=s, done=False)
    got = _raised(lambda: m.learn(t, q_next=np.full(3, 2e6)))
    assert got[0] is ngc.DivergenceError
    assert got == _raised(lambda: oracle.learn(t, q_next=np.full(3, 2e6)))


@pytest.mark.parametrize("hidden", [(), (4,)], ids=["closed_form", "settled"])
def test_a_bool_action_learns_as_the_whole_number_it_stands_for(hidden):
    # ``True`` passes the range check as 1; a head with no hidden layer once
    # used it as a NumPy index, which pinned every output unit to the target
    heads = [MotorCircuit(3, 5, hidden=hidden, seed=4, replay_capacity=2) for _ in range(2)]
    s, s_next = np.full(5, 0.3), np.full(5, -0.2)
    for head, a in zip(heads, (True, 1)):
        head.learn(Transition(s=s, a=a, r_env=0.5, s_next=s_next, done=False))
    assert _same_weights(*heads)
    assert heads[0].replay[0][1] == 1 and type(heads[0].replay[0][1]) is int
    # only the pinned unit carries error, so only its row of W[1] moves
    changed = np.flatnonzero((heads[0].circuit.W[1] != MotorCircuit(
        3, 5, hidden=hidden, seed=4).circuit.W[1]).any(axis=1))
    assert changed.tolist() == [1]
