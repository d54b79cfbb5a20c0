import re
from dataclasses import replace

import numpy as np
import pytest

from cogkit import ngc, runner
from cogkit.motor import MotorCircuit
from cogkit.ngc import (
    DivergenceError,
    energy,
    init_circuit,
    make_state,
    predict,
    settle,
    update_weights,
)

import reference_ngc
from test_acceptance import MAZE_CFG, RPS_CFG


def test_init_deterministic_and_shaped():
    c1 = init_circuit([8, 16, 8], seed=3)
    c2 = init_circuit([8, 16, 8], seed=3)
    assert all(np.array_equal(a, b) for a, b in zip(c1.W[1:], c2.W[1:]))
    assert all(np.array_equal(a, b) for a, b in zip(c1.E[1:], c2.E[1:]))
    assert c1.W[1].shape == (8, 16)
    assert c1.W[2].shape == (16, 8)
    assert c1.E[1].shape == (16, 8)
    assert not np.array_equal(c1.W[1], init_circuit([8, 16, 8], seed=4).W[1])


def test_init_sigma_zero_and_errors():
    c = init_circuit([4, 4], seed=0, sigma=0.0)
    assert not c.W[1].any() and not c.E[1].any()
    with pytest.raises(ValueError):
        init_circuit([], seed=0)
    with pytest.raises(ValueError):
        init_circuit([4], seed=0)
    # each size a whole number >= 1 and not a bool, as a config's sizes are
    for bad, named in (([4, 0], 0), ((4, 1.5), 1.5), ((True, 2), True), ((4, 3.0), 3.0)):
        with pytest.raises(ValueError, match=rf"'sizes': {named} is not in \[1, inf\)"):
            init_circuit(bad, seed=0)
    with pytest.raises(ValueError, match=r"'sizes': 2.5 is not in \[1, inf\)"):
        MotorCircuit(3, 4, hidden=(2.5,))
    for arg in ("beta", "gamma", "sigma"):
        for bad in (-0.01, float("nan")):
            with pytest.raises(ValueError, match=rf"'{arg}': {bad} is not in \[0, inf\)"):
                init_circuit([4, 4], seed=0, **{arg: bad})


def test_predict_zero_weights():
    c = init_circuit([3, 5], seed=1, sigma=0.0)
    s = make_state(c, clamps={0: [1.0, -2.0, 0.5]})
    assert not s.mu[0].any()
    assert np.array_equal(s.e[0], [1.0, -2.0, 0.5])
    assert not s.e[1].any()


def test_predict_fully_masked_layer():
    c = init_circuit([4, 6], seed=2)
    s = make_state(c, init={1: np.ones(6)}, mask={1: np.zeros(6)})
    assert not s.mu[0].any()


def test_predict_identity_generative_map():
    c = init_circuit([3, 3], seed=0)
    c.W[1] = np.eye(3)
    x = np.array([0.3, -0.8, 0.95])
    s = make_state(c, clamps={0: x}, init={1: np.arctanh(x)})
    assert np.allclose(s.e[0], 0.0, atol=1e-15)


def test_state_shape_errors():
    c = init_circuit([4, 4], seed=0)
    with pytest.raises(ValueError):
        make_state(c, clamps={0: np.zeros(5)})
    with pytest.raises(ValueError):
        make_state(c, clamps={2: np.zeros(4)})
    with pytest.raises(ValueError):
        make_state(c, mask={0: np.zeros(4)})
    with pytest.raises(ValueError):
        make_state(c, mask={1: np.full(4, 1.5)})
    with pytest.raises(ValueError):
        make_state(c, clamps={0: np.zeros(4)}, pin0={1: 0.5})
    with pytest.raises(ValueError):
        make_state(c, pin0={7: 0.5})


def test_energy_values():
    c = init_circuit([2, 2], seed=0, sigma=0.0)
    s = make_state(c, clamps={0: [3.0, 4.0]})
    assert energy(s) == pytest.approx(12.5)
    s0 = make_state(c, clamps={0: [0.0, 0.0]})
    assert energy(s0) == 0.0


def test_settle_zero_weights_zero_init_is_fixed_point():
    c = init_circuit([4, 8], seed=5, sigma=0.0)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    s = settle(c, clamps={0: x})
    assert np.array_equal(s.z[0], x)
    assert not s.z[1].any()


def test_settle_beta_zero_freezes_state():
    c = init_circuit([4, 8, 4], seed=6, beta=0.0)
    rng = np.random.default_rng(6)
    x = rng.normal(size=4)
    h1, h2 = rng.normal(size=8), rng.normal(size=4)
    s = settle(c, clamps={0: x}, init={1: h1, 2: h2})
    assert np.array_equal(s.z[0], x)
    assert np.array_equal(s.z[1], h1)
    assert np.array_equal(s.z[2], h2)


def test_settle_clamp_integrity_and_determinism():
    c = init_circuit([6, 12, 6], seed=7)
    rng = np.random.default_rng(7)
    x = rng.normal(size=6)
    top = rng.normal(size=6)
    s1 = settle(c, clamps={0: x, 2: top})
    s2 = settle(c, clamps={0: x, 2: top})
    assert np.array_equal(s1.z[0], x) and np.array_equal(s1.z[2], top)
    for a, b in zip(s1.z, s2.z):
        assert np.array_equal(a, b)
    assert s1.energy == s2.energy


def test_settle_reduces_energy_from_random_state():
    # Small-step settling is a descent dynamic: from a random starting state
    # the final free energy drops in (nearly) every seeded instance.
    down = 0
    for seed in range(30):
        c = init_circuit([8, 16, 8], seed=seed, beta=0.05, gamma=0.001, K=50)
        rng = np.random.default_rng(1000 + seed)
        x = rng.normal(size=8)
        init = {1: rng.normal(size=16), 2: rng.normal(size=8)}
        e0 = energy(make_state(c, clamps={0: x}, init=init))
        s = settle(c, clamps={0: x}, init=init)
        down += s.energy < e0
    assert down >= 29


def test_settle_divergence_guard_names_beta():
    # tanh bounds the feedback, so only a step this large leaves the limit
    c = init_circuit([2, 2], seed=0, beta=1e5, gamma=0.0, K=50)
    c.W[1] = 2.0 * np.eye(2)
    c.E[1] = 2.0 * np.eye(2)
    with pytest.raises(DivergenceError, match="beta=100000.0"):
        settle(c, clamps={0: np.array([10.0, 10.0])}, init={1: np.array([5.0, -5.0])})


def test_settle_pinned_output_errors_are_sparse():
    c = init_circuit([3, 8, 5], seed=8)
    rng = np.random.default_rng(8)
    top = rng.normal(size=5)
    s = settle(c, clamps={2: top}, pin0={1: 0.7})
    assert s.z[0][1] == 0.7
    assert s.e[0][0] == 0.0 and s.e[0][2] == 0.0
    assert s.e[0][1] != 0.0
    assert np.array_equal(s.z[0][[0, 2]], s.mu[0][[0, 2]])


@pytest.mark.parametrize("sizes", [[3, 16], [3, 8, 16]])
def test_beta_zero_still_ends_layer_0_at_its_prediction(sizes):
    # beta decides only whether passes run: with none, an unclamped layer 0
    # still ends at its prediction with its pins held
    c = init_circuit(sizes, seed=52, beta=0.0, K=15)
    rng = np.random.default_rng(52)
    kwargs = {"clamps": {c.L: rng.normal(size=16)}, "pin0": {1: 0.7},
              "init": {ell: rng.normal(size=sizes[ell]) for ell in range(1, c.L)}}
    for run in (settle, reference_ngc.settle):
        s = run(c, **kwargs)
        assert s.mu[0].any() and s.z[0][1] == 0.7
        assert np.array_equal(s.z[0][[0, 2]], s.mu[0][[0, 2]])
        assert not s.e[0][[0, 2]].any() and s.e[0][1] == 0.7 - s.mu[0][1]


@pytest.mark.parametrize("idx", [1.5, 1.0, np.float64(1.0)])
def test_a_pinned_unit_is_an_integer(idx):
    # a fraction would otherwise be truncated and pin the unit below it
    c = init_circuit([3, 8, 5], seed=8)
    top = np.random.default_rng(8).normal(size=5)
    for run in (settle, make_state):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            run(c, clamps={2: top}, pin0={idx: 0.7})
    s = settle(c, clamps={2: top}, pin0={np.int64(1): 0.7})
    assert s.pin0 == {1: 0.7}
    assert np.array_equal(s.z[0], settle(c, clamps={2: top}, pin0={1: 0.7}).z[0])


def test_settle_free_output_tracks_prediction():
    c = init_circuit([3, 8], seed=9)
    s = settle(c, init={1: np.random.default_rng(9).normal(size=8)})
    assert np.array_equal(s.z[0], s.mu[0])
    assert not s.e[0].any()


def local_energy(state, ell, Wl):
    """0.5 * ||z[ell-1] - Wl @ phi(gated z[ell])||^2 at fixed activities."""
    g = state.mask.get(ell)
    a = ngc.phi(state.z[ell] if g is None else state.z[ell] * g)
    err = state.z[ell - 1] - Wl @ a
    return 0.5 * float(np.dot(err, err))


def fd_gradient(circuit, state, ell, h=1e-6):
    W = circuit.W[ell]
    grad = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            grad[i, j] = (
                local_energy(state, ell, Wp) - local_energy(state, ell, Wm)
            ) / (2 * h)
    return grad


def _copied(c):
    """``c`` with C-ordered, writeable copies of its W and E."""
    return replace(c, W=[None, *(np.array(M) for M in c.W[1:])],
                   E=[None, *(np.array(M) for M in c.E[1:])])


def _updated(c, state, **kwargs):
    """``update_weights`` of a copy of ``c`` (``_copied``), as a masked
    update writes W and E in place, so that ``c`` is left as it was; returns
    the new circuit, never the copy."""
    copy = _copied(c)
    new = update_weights(copy, state, **kwargs)
    assert new is not copy and new.W is not copy.W
    return new


@pytest.mark.parametrize("seed", range(5))
def test_update_matches_negative_fd_gradient(seed):
    c = init_circuit([8, 16, 8], seed=seed)
    rng = np.random.default_rng(100 + seed)
    state = make_state(
        c,
        clamps={0: rng.normal(size=8)},
        init={1: rng.normal(size=16), 2: rng.normal(size=8)},
    )
    eta = 0.3
    c2 = update_weights(c, state, eta_W=eta, eta_E=0.0)
    for ell in (1, 2):
        got = (c2.W[ell] - c.W[ell]) / eta
        want = -fd_gradient(c, state, ell)
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel <= 1e-4


def test_update_matches_fd_gradient_under_mask():
    # With a hidden gate the update is the negative gradient of the gated
    # energy 0.5*||e * gate||^2 -- closed units drop out of both sides.
    c = init_circuit([6, 10, 6], seed=11)
    rng = np.random.default_rng(11)
    gate = (rng.random(10) < 0.5).astype(float)
    state = make_state(
        c,
        clamps={0: rng.normal(size=6)},
        init={1: rng.normal(size=10), 2: rng.normal(size=6)},
        mask={1: gate},
    )
    c2 = _updated(c, state, eta_W=0.2, eta_E=0.0)
    # Layer 1: postsynaptic side (layer 0) is ungated, plain gradient.
    got1 = (c2.W[1] - c.W[1]) / 0.2
    want1 = -fd_gradient(c, state, 1)
    assert np.linalg.norm(got1 - want1) / np.linalg.norm(want1) <= 1e-4
    # Layer 2: postsynaptic errors are gated; check against the gated energy.
    def gated_energy(W2):
        a = np.tanh(state.z[2])
        err = (state.z[1] - W2 @ a) * gate
        return 0.5 * float(np.dot(err, err))

    h = 1e-6
    want2 = np.zeros_like(c.W[2])
    for i in range(want2.shape[0]):
        for j in range(want2.shape[1]):
            Wp, Wm = c.W[2].copy(), c.W[2].copy()
            Wp[i, j] += h
            Wm[i, j] -= h
            want2[i, j] = (gated_energy(Wp) - gated_energy(Wm)) / (2 * h)
    got2 = (c2.W[2] - c.W[2]) / 0.2
    assert np.linalg.norm(got2 + want2) / np.linalg.norm(want2) <= 1e-4


def test_update_zero_rate_is_identity():
    c = init_circuit([4, 6], seed=12)
    s = settle(c, clamps={0: np.ones(4)})
    c2 = update_weights(c, s, eta_W=0.0, eta_E=0.0)
    assert np.array_equal(c2.W[1], c.W[1])
    assert np.array_equal(c2.E[1], c.E[1])


def test_update_locality():
    # Each layer's change is computable from its own slice of the state.
    c = init_circuit([5, 9, 7], seed=13)
    rng = np.random.default_rng(13)
    s = make_state(
        c,
        clamps={0: rng.normal(size=5)},
        init={1: rng.normal(size=9), 2: rng.normal(size=7)},
    )
    c2 = update_weights(c, s, eta_W=0.15, eta_E=0.07)
    for ell in (1, 2):
        grad = np.outer(s.e[ell - 1], np.tanh(s.z[ell]))
        assert np.array_equal(c2.W[ell], c.W[ell] + 0.15 * grad)
        assert np.array_equal(c2.E[ell], c.E[ell] + 0.07 * grad.T)


@pytest.mark.parametrize("clip", [False, True])
def test_gating_soundness_exact_zero_plasticity(clip):
    c = init_circuit([6, 10, 6], seed=14)
    if clip:  # ten times the weights puts most columns outside the unit ball
        c = replace(c, W=[None, *(10 * W for W in c.W[1:])],
                    E=[None, *(10 * E for E in c.E[1:])])
    rng = np.random.default_rng(14)
    gate = np.ones(10)
    closed = [2, 5, 6]
    gate[closed] = 0.0
    s = settle(c, clamps={0: rng.normal(size=6)}, mask={1: gate})
    c2 = _updated(c, s, eta_W=0.1, eta_E=0.1, clip=clip)
    # Closed units: outgoing columns of W1 / rows of E1 untouched, clipped
    # or not: a clip rescales only what the update writes...
    assert np.array_equal(c2.W[1][:, closed], c.W[1][:, closed])
    assert np.array_equal(c2.E[1][closed, :], c.E[1][closed, :])
    # ...and the rows of W2 / columns of E2 that predict them gain exactly 0,
    # though a clip rescales every column of the unmasked layer 2.
    if not clip:
        assert np.array_equal(c2.W[2][closed, :], c.W[2][closed, :])
        assert np.array_equal(c2.E[2][:, closed], c.E[2][:, closed])
    # Open units actually learn, and a clip holds what they write to the ball.
    assert not np.array_equal(c2.W[1][:, 0], c.W[1][:, 0])
    if clip:
        opened = gate == 1.0
        assert np.linalg.norm(c.W[1][:, opened], axis=0).max() > 1.0
        assert np.linalg.norm(c2.W[1][:, opened], axis=0).max() <= 1.0 + 1e-12
        assert np.linalg.norm(c2.E[1][opened], axis=0).max() <= 1.0 + 1e-12


def test_pinned_update_touches_single_row():
    c = init_circuit([3, 8, 5], seed=15)
    top = np.random.default_rng(15).normal(size=5)
    s = settle(c, clamps={2: top}, pin0={1: 0.7})
    c2 = update_weights(c, s, eta_W=0.05, eta_E=0.05)
    assert np.array_equal(c2.W[1][0], c.W[1][0])
    assert np.array_equal(c2.W[1][2], c.W[1][2])
    assert not np.array_equal(c2.W[1][1], c.W[1][1])


def test_update_column_clip():
    c = init_circuit([3, 4], seed=16, sigma=0.0)
    s = make_state(c, clamps={0: 10.0 * np.ones(3)}, init={1: np.ones(4)})
    c2 = update_weights(c, s, eta_W=5.0, eta_E=5.0, clip=True)
    assert np.linalg.norm(c2.W[1], axis=0).max() <= 1.0 + 1e-12
    assert np.linalg.norm(c2.E[1], axis=0).max() <= 1.0 + 1e-12


def test_untrained_circuit_predicts_nothing():
    rng = np.random.default_rng(18)
    for seed in range(5):
        c = init_circuit([16, 32], seed=seed)
        x = rng.normal(size=16)
        err = np.linalg.norm(x - settle(c, clamps={0: x}).mu[0])
        assert abs(err - np.linalg.norm(x)) <= 0.05 * np.linalg.norm(x)
        assert not settle(c, clamps={0: np.zeros(16)}).mu[0].any()


def test_settle_and_update_learn_a_repeated_pattern():
    c = init_circuit([16, 32], seed=19, beta=0.05)
    x = np.random.default_rng(19).normal(size=16)
    for _ in range(200):
        state = settle(c, clamps={0: x})
        c = update_weights(c, state, eta_W=0.05, eta_E=0.05)
    assert np.linalg.norm(x - settle(c, clamps={0: x}).mu[0]) < 0.1 * np.linalg.norm(x)


def _oracle_case(name):
    """(circuit, settle kwargs) for one named kernel-vs-oracle case."""
    rng = np.random.default_rng(sum(map(ord, name)))

    def vec(n):
        return rng.normal(size=n)

    def blocks(n, open_from, open_to):
        g = np.zeros(n)
        g[open_from:open_to] = 1.0
        return g

    if name == "input_clamped":
        return init_circuit([12, 16], seed=21, K=15), {"clamps": {0: vec(12)}}
    if name == "input_clamped_block_mask":
        c = init_circuit([12, 16], seed=22, K=15)
        return c, {"clamps": {0: vec(12)}, "mask": {1: blocks(16, 4, 8)}}
    if name == "input_clamped_beta_zero":
        return init_circuit([12, 16], seed=20, beta=0.0, K=15), {"clamps": {0: vec(12)}}
    if name == "input_clamped_closed_mask":
        c = init_circuit([12, 16], seed=19, K=15)
        return c, {"clamps": {0: vec(12)}, "mask": {1: np.zeros(16)}}
    if name == "input_clamped_one_unit":  # one column of W, so its norm is summed pairwise
        return init_circuit([200, 1], seed=18, K=15), {"clamps": {0: vec(200)}}
    if name == "top_clamped":
        return init_circuit([3, 16], seed=23, K=15), {"clamps": {1: vec(16)}}
    if name == "top_clamped_pinned":
        return init_circuit([3, 16], seed=24, K=15), {"clamps": {1: vec(16)}, "pin0": {1: 0.7}}
    if name == "top_clamped_pinned_beta_zero":
        c = init_circuit([3, 16], seed=24, beta=0.0, K=15)
        return c, {"clamps": {1: vec(16)}, "pin0": {1: 0.7}}
    if name == "top_clamped_free_middle_pinned":
        c = init_circuit([3, 8, 16], seed=25, K=15)
        return c, {"clamps": {2: vec(16)}, "pin0": {0: -0.4, 2: 0.9}}
    if name == "both_ends_clamped":
        c = init_circuit([6, 12, 6], seed=26, K=15)
        return c, {"clamps": {0: vec(6), 2: vec(6)}, "init": {1: vec(12)}}
    if name == "all_free":
        c = init_circuit([5, 10, 6], seed=27, K=15)
        return c, {"init": {0: vec(5), 1: vec(10), 2: vec(6)}}
    if name == "beta_zero":
        c = init_circuit([4, 8, 4], seed=28, beta=0.0, K=15)
        return c, {"clamps": {0: vec(4)}, "init": {1: vec(8), 2: vec(4)}}
    if name == "deep_masked":
        c = init_circuit([8, 12, 10], seed=29, K=15)
        mask = {1: blocks(12, 0, 6), 2: (rng.random(10) < 0.5).astype(float)}
        return c, {"clamps": {0: vec(8)}, "init": {2: vec(10)}, "mask": mask}
    raise KeyError(name)


ORACLE_CASES = [
    "input_clamped",
    "input_clamped_block_mask",
    "input_clamped_beta_zero",
    "input_clamped_closed_mask",
    "input_clamped_one_unit",
    "top_clamped",
    "top_clamped_pinned",
    "top_clamped_pinned_beta_zero",
    "top_clamped_free_middle_pinned",
    "both_ends_clamped",
    "all_free",
    "beta_zero",
    "deep_masked",
]


# cases that settle in the clamped-input kernel
KERNEL_CASES = {"input_clamped", "input_clamped_block_mask", "input_clamped_beta_zero",
                "input_clamped_closed_mask", "input_clamped_one_unit"}


def kernel_tol(circuit):
    """How far the clamped-input kernel may stray from the oracle's loop.

    The kernel sums ``E @ x``, ``E @ W`` and ``G @ phi(z)`` where the loop
    sums ``E @ e0`` and ``W @ phi(z)``: other sums of at most ``max(sizes)``
    terms each, so each of the K passes differs by float64 rounding of such a
    product.  Held to 10 times that; 1.07e-12 for the open cases' 24 -> 32
    circuit at K = 15, whose largest difference is 3.3e-15.  A batch strays
    from its inputs settled one at a time in the same way, through
    matrix-matrix products; on the oracle cases by at most 1.1e-16.
    """
    return 10 * circuit.K * max(circuit.sizes) * np.finfo(float).eps


def _assert_states_equal(got, want):
    for name in ("z", "mu", "e"):
        a, b = getattr(got, name), getattr(want, name)
        assert len(a) == len(b), name
        for ell, (u, v) in enumerate(zip(a, b)):
            assert np.array_equal(u, v), f"{name}[{ell}] differs"


def _assert_states_close(got, want, tol):
    """Equal within ``tol``, energy included; closed units exactly 0."""
    for name in ("z", "mu", "e"):
        a, b = getattr(got, name), getattr(want, name)
        assert len(a) == len(b), name
        for u, v in zip(a, b):
            np.testing.assert_allclose(u, v, rtol=0, atol=tol, err_msg=name)
    assert got.energy == pytest.approx(want.energy, rel=0, abs=tol)
    g = want.mask.get(1)
    if g is not None:
        assert not np.signbit(got.z[1][g == 0]).any() and not got.z[1][g == 0].any()


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_settle_matches_reference_oracle(name):
    c, kwargs = _oracle_case(name)
    got = settle(c, **kwargs)
    want = reference_ngc.settle(c, **kwargs)
    if name in KERNEL_CASES:
        _assert_states_close(got, want, kernel_tol(c))
    else:
        _assert_states_equal(got, want)
        assert got.energy == want.energy


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_predict_matches_reference_and_leaves_input(name):
    c, kwargs = _oracle_case(name)
    settled = reference_ngc.settle(c, **kwargs)
    before = [list(map(np.copy, getattr(settled, f))) for f in ("z", "mu", "e")]
    got = predict(c, settled)
    _assert_states_equal(got, reference_ngc.predict(c, settled))
    for f, saved in zip(("z", "mu", "e"), before):
        assert all(np.array_equal(u, v) for u, v in zip(getattr(settled, f), saved))
    _assert_states_equal(make_state(c, **kwargs), reference_ngc.make_state(c, **kwargs))


@pytest.mark.parametrize("clip", [False, True])
@pytest.mark.parametrize("name", ORACLE_CASES)
def test_update_matches_reference_oracle(name, clip):
    c, kwargs = _oracle_case(name)
    # ten times the weights puts most columns outside the unit ball, so a
    # clip rescales most of those the update writes
    c = replace(c, W=[None, *(10 * W for W in c.W[1:])], E=[None, *(10 * E for E in c.E[1:])])
    for state in (reference_ngc.settle(c, **kwargs), settle(c, **kwargs)):
        new = _updated(c, state, eta_W=0.3, eta_E=0.2, clip=clip)
        ref = reference_ngc.update_weights(c, state, eta_W=0.3, eta_E=0.2, clip=clip)
        for ell in range(1, c.L + 1):
            assert np.array_equal(new.W[ell], ref.W[ell]), f"W[{ell}]"
            assert np.array_equal(new.E[ell], ref.E[ell]), f"E[{ell}]"
            assert new.W[ell].flags.c_contiguous and new.E[ell].flags.c_contiguous


@pytest.mark.parametrize("shape", [(3, 32), (32, 3), (784, 64), (64, 784), (784, 256),
                                   (256, 784), (784, 1), (1, 784)])
def test_outer_product_equals_the_broadcast_multiply(shape):
    # the shapes of the agent's updates, on seeded draws: nonzero factors,
    # then zeros of both signs (as gated errors and resting units give) and
    # factors whose products underflow to a signed 0, which keep their sign
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    for k in range(12):
        a, b = rng.normal(size=shape[0]), np.tanh(rng.normal(size=shape[1]))
        if k % 3 == 1:
            a[::7], a[3::7] = 0.0, -0.0
        elif k % 3 == 2:
            a[rng.integers(a.size)] = -1e-200
            b[rng.integers(b.size)] = 1e-200
        got = ngc._outer(a, b)
        assert got.flags.c_contiguous and got.dtype == np.float64
        assert got.tobytes() == (a[:, None] * b).tobytes()


@pytest.mark.parametrize("sizes, units", [((1, 24), [2, 3, 4, 9]), ((24, 1), [])])
def test_a_masked_update_of_a_one_column_matrix_matches_the_reference(sizes, units):
    # E[1] of one column (a one-wide input) or W[1] of one column (one hidden
    # unit, closed here), whose norms NumPy sums pairwise; ten times the
    # weights makes the columns the update writes clip
    for seed in range(10):
        c = init_circuit(list(sizes), seed=seed, sigma=0.5)
        c = replace(c, W=[None, 10 * c.W[1]], E=[None, 10 * c.E[1]])
        g = np.zeros(sizes[1])
        g[units] = 1.0
        rng = np.random.default_rng(seed)
        for _ in range(3):
            state = settle(c, clamps={0: rng.normal(size=sizes[0])}, mask={1: g})
            want = reference_ngc.update_weights(c, state, eta_W=0.3, eta_E=0.2, clip=True)
            c = update_weights(c, state, eta_W=0.3, eta_E=0.2, clip=True)
            assert c.W[1].tobytes() == want.W[1].tobytes()
            assert c.E[1].tobytes() == want.E[1].tobytes()


def _fail_on_call(monkeypatch, owner, name, k):
    """Make the ``k``-th call of ``owner.name`` raise; returns the call list."""
    real, calls = getattr(owner, name), []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == k:
            raise RuntimeError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)
    return calls


def _held(c):
    """``c``'s weight matrices, each with its bytes."""
    return [(M, M.tobytes()) for M in (*c.W[1:], *c.E[1:])]


def _as_held(c, held):
    """Whether ``c`` holds the arrays of ``held``, each with the same bytes."""
    return (len(_held(c)) == len(held)
            and all(now is then and now.tobytes() == saved
                    for (now, _), (then, saved) in zip(_held(c), held)))


def test_updates_match_the_reference_step_after_step(monkeypatch):
    # 60 updates, each of the circuit the last one returned and from the
    # state settled on it, under a mask that switches between two blocks,
    # scattered units, one unit and none; ten times the weights makes the
    # columns each writes clip.  Each is first tried with a fault in its
    # last step, E's clip, which leaves the circuit as it was
    rng = np.random.default_rng(5)
    c = init_circuit([48, 24], seed=19, K=10, sigma=0.5)
    c = replace(c, W=[None, 10 * c.W[1]], E=[None, 10 * c.E[1]])
    masks = {"none": None}
    for name, units in (("block", range(0, 8)), ("other block", range(12, 20)),
                        ("scattered", [1, 4, 5, 11, 17, 23]), ("one unit", [9])):
        masks[name] = np.zeros(24)
        masks[name][list(units)] = 1.0
    names = [*masks, *rng.choice(list(masks), size=55)]
    for name in names:
        mask = None if masks[name] is None else {1: masks[name]}
        state = settle(c, clamps={0: rng.normal(size=48)}, mask=mask)
        want = reference_ngc.update_weights(c, state, eta_W=0.3, eta_E=0.2, clip=True)
        W, E, held = c.W[1], c.E[1], _held(c)
        _fail_on_call(monkeypatch, ngc, "_clip", 2)
        with pytest.raises(RuntimeError, match="injected"):
            update_weights(c, state, eta_W=0.3, eta_E=0.2, clip=True)
        monkeypatch.undo()
        assert _as_held(c, held), name
        new = update_weights(c, state, eta_W=0.3, eta_E=0.2, clip=True)
        assert new is not c and new.W is not c.W
        assert np.array_equal(new.W[1], want.W[1]), name
        assert np.array_equal(new.E[1], want.E[1]), name
        if mask is None:  # swapped in: new arrays, the old circuit as it was
            assert new.W[1] is not W and new.E[1] is not E
            assert new.W[1].flags.c_contiguous and new.E[1].flags.c_contiguous
            assert _as_held(c, held)
        else:  # written in place
            assert new.W[1] is W and new.E[1] is E
        c = new
    assert set(names) == set(masks)


# the functions a masked update calls for each layer, the second layer's
# after the first layer's W and E were written
UPDATE_CALLS = ["_swapped", "_outer", "_clip"]


@pytest.mark.parametrize("name", UPDATE_CALLS)
def test_a_fault_in_a_masked_update_leaves_w_and_e_as_they_were(name, monkeypatch):
    # two masked, clipped hidden layers, one of scattered units, one of a
    # block; ten times the weights makes the columns each writes clip, so a
    # fault at each call of ``name`` comes after a different set of writes
    rng = np.random.default_rng(2)
    c = init_circuit([24, 16, 12], seed=7, sigma=0.5)
    c = replace(c, W=[None, *(10 * W for W in c.W[1:])], E=[None, *(10 * E for E in c.E[1:])])
    g1, g2 = np.zeros(16), np.zeros(12)
    g1[[1, 2, 3, 9]] = 1.0
    g2[4:8] = 1.0
    state = settle(c, clamps={0: rng.normal(size=24)}, mask={1: g1, 2: g2})
    calls = _fail_on_call(monkeypatch, ngc, name, 0)
    _updated(c, state, eta_W=0.3, eta_E=0.2, clip=True)
    monkeypatch.undo()
    assert calls
    held = _held(c)
    for k in range(1, len(calls) + 1):
        _fail_on_call(monkeypatch, ngc, name, k)
        with pytest.raises(RuntimeError, match="injected"):
            update_weights(c, state, eta_W=0.3, eta_E=0.2, clip=True)
        monkeypatch.undo()
        assert _as_held(c, held), k
    want = reference_ngc.update_weights(_copied(c), state, eta_W=0.3, eta_E=0.2, clip=True)
    new = update_weights(c, state, eta_W=0.3, eta_E=0.2, clip=True)
    for ell in (1, 2):
        assert new.W[ell].tobytes() == want.W[ell].tobytes()
        assert new.E[ell].tobytes() == want.E[ell].tobytes()


def test_a_masked_update_writes_in_place_and_an_unmasked_one_writes_nothing():
    # a masked update writes its open block into the arrays both circuits
    # hold; an unmasked one swaps new arrays into a new circuit and leaves
    # its circuit as it was
    c = init_circuit([16, 12], seed=3, sigma=0.5)
    g = np.zeros(12)
    g[2:6] = 1.0
    state = settle(c, clamps={0: np.ones(16)}, mask={1: g})
    c = update_weights(c, state, eta_W=0.3, eta_E=0.2, clip=True)
    new = update_weights(c, state, eta_W=0.3, eta_E=0.2, clip=True)
    assert new is not c and new.W is not c.W and new.E is not c.E
    assert new.W[1] is c.W[1] and new.E[1] is c.E[1]
    c = new
    W, E, held = c.W[1], c.E[1], _held(c)
    unmasked = settle(c, clamps={0: np.ones(16)})
    new = update_weights(c, unmasked, eta_W=0.3, eta_E=0.2, clip=True)
    assert _as_held(c, held)
    want = reference_ngc.update_weights(c, unmasked, eta_W=0.3, eta_E=0.2, clip=True)
    assert new is not c and new.W[1] is not W and new.E[1] is not E
    assert np.array_equal(new.W[1], want.W[1]) and np.array_equal(new.E[1], want.E[1])


def test_an_old_circuit_updated_again_after_a_masked_update_clips_as_the_reference():
    # a clipped update of c with units 8-11 open writes the W and E that c
    # holds too; an unclipped update of c (units 0-3, eta_W 200) pushes
    # columns far past 1; the next clipped update of c, units 8-11 open,
    # takes its norms from what W and E hold then
    g = {units: np.zeros(16) for units in ((8, 12), (0, 4))}
    for (lo, hi), mask in g.items():
        mask[lo:hi] = 1.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        c = init_circuit([24, 16], seed=seed, K=5)

        def state(c, units):
            return settle(c, clamps={0: rng.normal(size=24)}, mask={1: g[units]})

        c = update_weights(c, state(c, (8, 12)), eta_W=0.3, eta_E=0.2, clip=True)
        update_weights(c, state(c, (8, 12)), eta_W=0.3, eta_E=0.2, clip=True)
        update_weights(c, state(c, (0, 4)), eta_W=200.0, eta_E=0.2)
        last = state(c, (8, 12))
        want = reference_ngc.update_weights(_copied(c), last, eta_W=0.3, eta_E=0.2, clip=True)
        got = update_weights(c, last, eta_W=0.3, eta_E=0.2, clip=True)
        assert got.W[1].tobytes() == want.W[1].tobytes(), seed
        assert got.E[1].tobytes() == want.E[1].tobytes(), seed


def _record_phi(monkeypatch):
    """The shapes of the activities ``settle`` puts through phi, in order."""
    shapes = []
    phi = ngc.phi
    monkeypatch.setattr(ngc, "phi", lambda v: shapes.append(v.shape) or phi(v))
    return shapes


@pytest.mark.parametrize("name, passes", [
    ("top_clamped", 0),
    ("top_clamped_pinned", 0),
    ("top_clamped_pinned_beta_zero", 0),
    ("beta_zero", 0),
    ("input_clamped_beta_zero", 0),
    ("top_clamped_free_middle_pinned", 15),
    ("input_clamped", 15),
])
def test_settle_stops_after_one_pass_only_when_nothing_can_move(name, passes, monkeypatch):
    c, kwargs = _oracle_case(name)
    calls = _record_phi(monkeypatch)
    settle(c, **kwargs)
    # the loop applies phi to every hidden layer once before its first pass
    # and once per pass (no pass runs when no hidden layer can move); the
    # kernel applies it once per pass and once after
    assert len(calls) == (1 + passes) * c.L


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e6])
def test_divergence_in_clamped_top_raises_on_single_pass(bad, monkeypatch):
    c = init_circuit([3, 16], seed=30, K=15)
    top = np.random.default_rng(30).normal(size=16)
    top[5] = bad
    passes = _record_phi(monkeypatch)
    with pytest.raises(DivergenceError, match=r"clamp for layer 1 is not finite or exceeds 1e\+06"):
        settle(c, clamps={1: top})
    assert passes == []  # on entry, before any prediction
    monkeypatch.undo()
    with pytest.raises(DivergenceError):
        reference_ngc.settle(c, clamps={1: top})


@pytest.mark.parametrize("name", ["clamp", "init"])
def test_divergent_init_or_clamp_is_named_on_entry(name):
    # beta = 0 runs no pass, so only the entry check can see it
    c = init_circuit([4, 6, 3], seed=0, beta=0.0)
    bad = {1: np.array([1.0, np.nan, 0.0, 0.0, 0.0, 0.0])}
    kwargs = {"clamps": bad} if name == "clamp" else {"clamps": {0: np.zeros(4)}, "init": bad}
    with pytest.raises(DivergenceError, match=rf"{name} for layer 1 is not finite"):
        settle(c, **kwargs)


def test_nan_arising_in_free_layer_is_caught():
    c = init_circuit([6, 10], seed=31, K=15)
    c.E[1][3, :] = np.nan  # unit 3's feedback turns NaN on the first step
    x = np.random.default_rng(31).normal(size=6)
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError, match="beta=0.05"):
            settle(c, clamps={0: x})
        with pytest.raises(DivergenceError):
            reference_ngc.settle(c, clamps={0: x})


def test_motor_q_values_nan_state_raises_divergence():
    m = MotorCircuit(n_actions=3, state_dim=8, seed=32)
    s = np.zeros(8)
    s[2] = np.nan
    with pytest.raises(DivergenceError):
        m.q_values(s)


# Open units: one hidden layer, layer 0 clamped, a 0/1 mask, so the
# clamped-input kernel runs on the open units alone.  The name says which
# units of the 32 are open; the last three cases must keep the masked loop.
OPEN_CASES = {
    "block_at_0": range(0, 8),
    "block_in_middle": range(12, 20),
    "wrapped_block": [*range(28, 32), *range(0, 4)],
    "random": [1, 2, 5, 9, 10, 17, 23, 30],
    "single_unit": [13],
    "all_open": range(32),
    "closed_mask": [],
}
MASKED_CASES = ["pinned_layer_0", "init_on_layer_1", "three_layers"]


def _open_case(name):
    """(circuit, settle kwargs, units the loop should run on) for one case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    # sigma puts every column of W and E outside the unit ball, so a clip
    # rescales every column the update writes
    c = init_circuit([24, 32], seed=40, K=15, sigma=0.5)
    g = np.zeros(32)
    if name in OPEN_CASES:
        g[list(OPEN_CASES[name])] = 1.0
        return c, {"clamps": {0: rng.normal(size=24)}, "mask": {1: g}}, int(g.sum())
    g[12:20] = 1.0
    if name == "pinned_layer_0":
        return c, {"mask": {1: g}, "pin0": {3: 0.5}}, 32
    if name == "init_on_layer_1":
        return c, {"clamps": {0: rng.normal(size=24)}, "mask": {1: g},
                   "init": {1: rng.normal(size=32)}}, 32
    if name == "three_layers":
        c = init_circuit([24, 32, 8], seed=41, K=15, sigma=0.5)
        return c, {"clamps": {0: rng.normal(size=24)}, "mask": {1: g}}, 32
    raise KeyError(name)


@pytest.mark.parametrize("clip", [False, True])
@pytest.mark.parametrize("name", [*OPEN_CASES, *MASKED_CASES])
def test_open_unit_settle_and_update_match_reference_oracle(name, clip):
    c, kwargs, _ = _open_case(name)
    got = settle(c, **kwargs)
    want = reference_ngc.settle(c, **kwargs)
    if name in OPEN_CASES:
        _assert_states_close(got, want, kernel_tol(c))
    else:
        _assert_states_equal(got, want)
        assert got.energy == want.energy
    # the update adds no sums: equal bits from the same state, for any mask
    for state in (want, got):
        new = _updated(c, state, eta_W=0.3, eta_E=0.2, clip=clip)
        ref = reference_ngc.update_weights(c, state, eta_W=0.3, eta_E=0.2, clip=clip)
        for ell in range(1, c.L + 1):
            assert np.array_equal(new.W[ell], ref.W[ell]), f"W[{ell}]"
            assert np.array_equal(new.E[ell], ref.E[ell]), f"E[{ell}]"
            assert new.W[ell].flags.c_contiguous and new.E[ell].flags.c_contiguous
        if clip:  # the columns the update writes end within the ball, the rest as they were
            g = state.mask.get(1)
            opened = np.ones(32, bool) if g is None else g == 1.0
            assert (np.linalg.norm(new.W[1][:, opened], axis=0) <= 1.0 + 1e-12).all()
            assert (np.linalg.norm(new.E[1][opened], axis=0) <= 1.0 + 1e-12).all()
            assert np.array_equal(new.W[1][:, ~opened], c.W[1][:, ~opened])
            assert np.array_equal(new.E[1][~opened], c.E[1][~opened])


@pytest.mark.parametrize("name", [*OPEN_CASES, *MASKED_CASES])
def test_open_unit_path_runs_where_it_applies(name, monkeypatch):
    c, kwargs, units = _open_case(name)
    shapes = _record_phi(monkeypatch)
    settle(c, **kwargs)
    # every pass (and, in the loop, the refresh before it) puts each hidden
    # layer through phi: the kernel's one layer has the open units only
    assert set(shapes) == {(units,), *((n,) for n in c.sizes[2:])}
    assert len(shapes) == (c.K + 1) * c.L


# The clamped-input kernel on a batch: X of shape (n, B), one input a column.
# beta_zero keeps every unit of its block mask at rest; closed_mask opens none.
@pytest.mark.parametrize("name", ["block_in_middle", "random", "all_open", "beta_zero",
                                  "closed_mask"])
def test_batch_settle_matches_settling_each_input(name):
    c, kwargs, units = _open_case("block_in_middle" if name == "beta_zero" else name)
    mask = kwargs["mask"]
    if name == "beta_zero":
        c = replace(c, beta=0.0)
    X = np.random.default_rng(42).normal(size=(24, 7))
    got = settle(c, clamps={0: X}, mask=mask)
    assert got.z[1].shape == (32, 7) and got.energy.shape == (7,)
    tol = kernel_tol(c)
    for j in range(X.shape[1]):
        one = settle(c, clamps={0: X[:, j]}, mask=mask)
        ref = reference_ngc.settle(c, clamps={0: X[:, j]}, mask=mask)
        for want in (one, ref):
            for f in ("z", "mu", "e"):
                for u, v in zip(getattr(got, f), getattr(want, f)):
                    np.testing.assert_allclose(u[:, j], v, rtol=0, atol=tol, err_msg=f)
            assert got.energy[j] == pytest.approx(want.energy, rel=0, abs=tol)
    assert np.array_equal(got.z[0], X)
    closed = mask[1] == 0
    assert not got.z[1][closed].any() and not np.signbit(got.z[1][closed]).any()
    if name in ("beta_zero", "closed_mask"):
        assert not got.z[1].any() and np.array_equal(got.e[0], X)


GIVEN = ("clamps", "init")  # the settle kwargs that hold one array per layer


def _batch_of_3(kwargs, rng):
    """``kwargs`` with each clamp and init the first column of a batch of 3."""
    return {k: {ell: np.column_stack([v, rng.normal(size=(len(v), 2))]) for ell, v in d.items()}
            if k in GIVEN else d for k, d in kwargs.items()}


def _column(kwargs, j):
    """``kwargs`` with column ``j`` of each batched clamp and init."""
    return {k: {ell: v[:, j] for ell, v in d.items()} if k in GIVEN else d
            for k, d in kwargs.items()}


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_every_settle_takes_a_batch(name):
    c, kwargs = _oracle_case(name)
    batched = _batch_of_3(kwargs, np.random.default_rng(47))
    got = settle(c, **batched)
    assert got.energy.shape == (3,)
    tol = kernel_tol(c)
    for j in range(3):
        one = settle(c, **_column(batched, j))
        for f in ("z", "mu", "e"):
            for u, v in zip(getattr(got, f), getattr(one, f)):
                assert u.shape == (*v.shape, 3)
                np.testing.assert_allclose(u[:, j], v, rtol=0, atol=tol, err_msg=f)
        assert got.energy[j] == pytest.approx(one.energy, rel=0, abs=tol)
    for ell, X in batched.get("clamps", {}).items():
        assert np.array_equal(got.z[ell], X)


@pytest.mark.parametrize("init_shape", [(12, 2), (12,)])
def test_clamps_and_inits_of_different_batch_shapes_are_rejected(init_shape):
    c = init_circuit([8, 12, 6], seed=43, K=5)
    with pytest.raises(ValueError, match=r"init for layer 1 has shape .*one batch shape, here \(3,\)"):
        settle(c, clamps={0: np.zeros((8, 3))}, init={1: np.zeros(init_shape)})
    with pytest.raises(ValueError, match="one batch shape"):
        make_state(c, clamps={0: np.zeros(8), 2: np.zeros((6, 3))})


@pytest.mark.parametrize("bad", [0.5, np.nan])
@pytest.mark.parametrize("sizes, ell", [([8, 12], 1), ([8, 12, 6], 2)], ids=["kernel", "loop"])
def test_fractional_mask_is_rejected(sizes, ell, bad):
    # the gate makes 0/1 masks only, and a restore takes no other kind
    c = init_circuit(sizes, seed=43, K=5)
    g = np.ones(sizes[ell])
    g[3] = bad
    with pytest.raises(ValueError, match=rf"gating mask for layer {ell} is not 0/1"):
        settle(c, clamps={0: np.zeros((8, 3)) if ell == 1 else np.zeros(8)}, mask={ell: g})


def test_kernel_rejects_a_misshapen_clamp():
    c = init_circuit([8, 12], seed=44, K=5)
    for shape in [(9,), (9, 3), (8, 3, 2), (8, 0), ()]:
        with pytest.raises(ValueError, match=rf"shape {re.escape(str(shape))}"):
            settle(c, clamps={0: np.zeros(shape)})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e6])
@pytest.mark.parametrize("batch", [False, True])
def test_divergent_clamp_raises_on_entry(bad, batch, monkeypatch):
    c = init_circuit([6, 10], seed=45, K=15)
    x = np.random.default_rng(45).normal(size=(6, 4) if batch else 6)
    x[2] = bad
    passes = _record_phi(monkeypatch)
    with pytest.raises(DivergenceError, match=r"clamp for layer 0 is not finite or exceeds 1e\+06"):
        settle(c, clamps={0: x}, mask={1: np.repeat([0.0, 1.0], 5)})
    assert passes == []  # before the first pass
    monkeypatch.undo()
    with pytest.raises(DivergenceError):
        reference_ngc.settle(c, clamps={0: x if not batch else x[:, 0]})


@pytest.mark.parametrize("batch", [False, True])
def test_nan_feedback_row_is_caught_mid_loop(batch, monkeypatch):
    c = init_circuit([6, 10], seed=46, K=15)
    c.E[1][3, :] = np.nan
    x = np.random.default_rng(46).normal(size=(6, 4) if batch else 6)
    passes = _record_phi(monkeypatch)
    with np.errstate(invalid="ignore"):
        with pytest.raises(DivergenceError, match="beta=0.05"):
            settle(c, clamps={0: x})
    assert passes == [(10, 4) if batch else (10,)]  # caught after the first pass


# The kernel's bound: where ``_passes_stay_bounded`` holds, the per-pass
# checks are skipped.  Forcing it false runs every check, as the kernel did
# before the bound; the two must give the same bytes, and raise after the
# same pass where the bound fails.


def _bound_results(monkeypatch, force_checks=False):
    """What ``_passes_stay_bounded`` answers, in order; with ``force_checks``
    it answers False, so every pass is checked."""
    answers, bounded = [], ngc._passes_stay_bounded

    def recorded(*args):
        answers.append(False if force_checks else bounded(*args))
        return answers[-1]

    monkeypatch.setattr(ngc, "_passes_stay_bounded", recorded)
    return answers


def _count_checks(monkeypatch):
    calls, check = [], ngc._check_bounded
    monkeypatch.setattr(ngc, "_check_bounded", lambda v, beta: calls.append(1) or check(v, beta))
    return calls


BOUNDED_CASES = [("oracle", n) for n in sorted(KERNEL_CASES - {"input_clamped_beta_zero"})] + [
    ("open", n) for n in OPEN_CASES]


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("kind, name", BOUNDED_CASES)
def test_bounded_kernel_equals_the_kernel_checking_every_pass(kind, name, batch, monkeypatch):
    c, kwargs = _oracle_case(name) if kind == "oracle" else _open_case(name)[:2]
    if batch:
        kwargs = _batch_of_3(kwargs, np.random.default_rng(49))
    answers, checks = _bound_results(monkeypatch), _count_checks(monkeypatch)
    got = settle(c, **kwargs)
    assert answers == [True] and checks == []
    monkeypatch.undo()
    answers, checks = _bound_results(monkeypatch, force_checks=True), _count_checks(monkeypatch)
    want = settle(c, **kwargs)
    assert answers == [False] and len(checks) == c.K
    _assert_states_equal(got, want)
    assert np.array_equal(got.energy, want.energy)


# (circuit, input) that leave the bound and diverge part way through the
# loop; the pass each raises after, single input and batch, is the one the
# kernel raised after when it checked every pass
DIVERGENT_CASES = {
    "beta_gamma_past_two": (dict(seed=48, beta=1.0, gamma=3.0), 100.0, 17),
    "large_beta": (dict(seed=48, beta=3e5, gamma=0.0), 1.0, 13),
    "large_weights": (dict(seed=50, beta=1.0, gamma=0.001, sigma=100.0), 1.0, 10),
}


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("name", DIVERGENT_CASES)
def test_finite_divergence_still_raises_after_the_same_pass(name, batch, monkeypatch):
    kw, scale, raised_after = DIVERGENT_CASES[name]
    c = init_circuit([6, 10], K=30, **kw)
    x = scale * np.random.default_rng(kw["seed"]).normal(size=(6, 4) if batch else 6)
    seen = []
    for force_checks in (False, True):
        answers = _bound_results(monkeypatch, force_checks)
        passes = _record_phi(monkeypatch)
        with pytest.raises(DivergenceError, match=f"beta={c.beta}"):
            settle(c, clamps={0: x})
        assert answers == [False]
        seen.append(len(passes))
        monkeypatch.undo()
    assert seen == [raised_after, raised_after]
    assert 1 < raised_after < c.K


def test_the_bound_needs_tanh_a_decay_factor_within_one_and_finite_feedback():
    c = init_circuit([6, 10], seed=51, K=30)
    x = np.random.default_rng(51).normal(size=6)
    b, G = c.E[1] @ x, c.E[1] @ c.W[1]
    assert ngc._passes_stay_bounded(c, b, G)
    assert ngc._passes_stay_bounded(replace(c, beta=0.5, gamma=4.0), b, G)  # beta*gamma = 2
    assert not ngc._passes_stay_bounded(replace(c, beta=0.5, gamma=4.5), b, G)
    assert not ngc._passes_stay_bounded(replace(c, beta=0.5, gamma=np.nan), b, G)
    for bad in (np.nan, np.inf):
        b_bad, G_bad = b.copy(), G.copy()
        b_bad[2], G_bad[4, 1] = bad, bad
        assert not ngc._passes_stay_bounded(c, b_bad, G)
        assert not ngc._passes_stay_bounded(c, b, G_bad)


def _run_bytes(run, cfg, out):
    run(cfg, seed=3, out=str(out))
    return (out / "metrics.csv").read_bytes()


@pytest.mark.parametrize("env", ["rps", "maze"])
def test_runs_write_the_same_bytes_with_the_bound_forced_off(env, tmp_path, monkeypatch):
    if env == "rps":  # the benchmark's shape: d = 2048, every route on
        cfg = {**RPS_CFG, "rounds": 300, "d": 2048, "route_wm_encode": True,
               "route_dm_store": True, "route_dm_retrieve": True}
        run = runner.run_rps
    else:
        cfg, run = {**MAZE_CFG, "episodes": 30}, runner.run_maze
    answers = _bound_results(monkeypatch)
    bounded = _run_bytes(run, cfg, tmp_path / "bounded")
    assert answers and all(answers)
    monkeypatch.undo()
    answers = _bound_results(monkeypatch, force_checks=True)
    assert _run_bytes(run, cfg, tmp_path / "checked") == bounded
    assert answers and not any(answers)
