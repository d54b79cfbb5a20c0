import numpy as np
import pytest

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
    with pytest.raises(ValueError):
        epistemic_reward(-1.0, 0.5, 1.0)


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


def test_regress_validation():
    m = MotorCircuit(2, 4, seed=14)
    with pytest.raises(ValueError):
        m.regress(np.ones(4), np.zeros(3))
    with pytest.raises(ValueError):
        m.regress(np.ones(4), np.array([0.0, float("inf")]))
