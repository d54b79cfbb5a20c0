import numpy as np
import pytest

from cogkit import ngc
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
    with pytest.raises(ValueError):
        init_circuit([4, 0], seed=0)
    with pytest.raises(ValueError):
        init_circuit([4, 4], seed=0, phi=("identity", "sigmoid"))
    for arg in ("beta", "gamma"):
        for bad in (-0.01, float("nan")):
            with pytest.raises(ValueError, match=rf"{arg} must be >= 0, got {bad}"):
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
    c = init_circuit([3, 3], seed=0, phi=("identity", "identity"))
    c.W[1] = np.eye(3)
    x = np.array([0.3, -1.1, 2.0])
    s = make_state(c, clamps={0: x}, init={1: x})
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
    c = init_circuit([2, 2], seed=0, beta=1.0, gamma=0.0, K=50, phi=("identity", "identity"))
    c.W[1] = 2.0 * np.eye(2)
    c.E[1] = 2.0 * np.eye(2)
    with pytest.raises(DivergenceError, match="beta=1.0"):
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


def test_settle_free_output_tracks_prediction():
    c = init_circuit([3, 8], seed=9)
    s = settle(c, init={1: np.random.default_rng(9).normal(size=8)})
    assert np.array_equal(s.z[0], s.mu[0])
    assert not s.e[0].any()


def local_energy(circuit, state, ell, Wl):
    """0.5 * ||z[ell-1] - Wl @ phi(gated z[ell])||^2 at fixed activities."""
    g = state.mask.get(ell)
    a = state.z[ell] if g is None else state.z[ell] * g
    if circuit.phi[ell] == "tanh":
        a = np.tanh(a)
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
                local_energy(circuit, state, ell, Wp) - local_energy(circuit, state, ell, Wm)
            ) / (2 * h)
    return grad


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
    c2 = update_weights(c, state, eta_W=0.2, eta_E=0.0)
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


def test_gating_soundness_exact_zero_plasticity():
    c = init_circuit([6, 10, 6], seed=14)
    rng = np.random.default_rng(14)
    gate = np.ones(10)
    closed = [2, 5, 6]
    gate[closed] = 0.0
    s = settle(c, clamps={0: rng.normal(size=6)}, mask={1: gate})
    c2 = update_weights(c, s, eta_W=0.1, eta_E=0.1)
    # Closed units: outgoing columns of W1 / rows of E1 untouched...
    assert np.array_equal(c2.W[1][:, closed], c.W[1][:, closed])
    assert np.array_equal(c2.E[1][closed, :], c.E[1][closed, :])
    # ...and the rows of W2 / columns of E2 that predict them too.
    assert np.array_equal(c2.W[2][closed, :], c.W[2][closed, :])
    assert np.array_equal(c2.E[2][:, closed], c.E[2][:, closed])
    # Open units actually learn.
    assert not np.array_equal(c2.W[1][:, 0], c.W[1][:, 0])


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
    if name == "top_clamped":
        return init_circuit([3, 16], seed=23, K=15), {"clamps": {1: vec(16)}}
    if name == "top_clamped_pinned":
        return init_circuit([3, 16], seed=24, K=15), {"clamps": {1: vec(16)}, "pin0": {1: 0.7}}
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
    "top_clamped",
    "top_clamped_pinned",
    "top_clamped_free_middle_pinned",
    "both_ends_clamped",
    "all_free",
    "beta_zero",
    "deep_masked",
]


def _assert_states_equal(got, want):
    for name in ("z", "mu", "e"):
        a, b = getattr(got, name), getattr(want, name)
        assert len(a) == len(b), name
        for ell, (u, v) in enumerate(zip(a, b)):
            assert np.array_equal(u, v), f"{name}[{ell}] differs"


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_settle_matches_reference_oracle(name):
    c, kwargs = _oracle_case(name)
    got = settle(c, **kwargs)
    want = reference_ngc.settle(c, **kwargs)
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


@pytest.mark.parametrize("name, passes", [
    ("top_clamped", 1),
    ("top_clamped_pinned", 1),
    ("beta_zero", 1),
    ("top_clamped_free_middle_pinned", 15),
    ("input_clamped", 15),
])
def test_settle_stops_after_one_pass_only_when_nothing_can_move(name, passes, monkeypatch):
    c, kwargs = _oracle_case(name)
    calls = []
    refresh = ngc._refresh
    monkeypatch.setattr(ngc, "_refresh", lambda *a: calls.append(1) or refresh(*a))
    settle(c, **kwargs)
    assert len(calls) == 1 + passes  # make_state refreshes once before the loop


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e6])
def test_divergence_in_clamped_top_raises_on_single_pass(bad):
    c = init_circuit([3, 16], seed=30, K=15)
    top = np.random.default_rng(30).normal(size=16)
    top[5] = bad
    with pytest.raises(DivergenceError, match="beta=0.05"):
        settle(c, clamps={1: top})
    with pytest.raises(DivergenceError):
        reference_ngc.settle(c, clamps={1: top})


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


# Open-unit path: one hidden layer, layer 0 clamped, a 0/1 mask.  The name
# says which units of the 32 are open; the last three cases must keep the
# masked computation.
OPEN_CASES = {
    "block_at_0": range(0, 8),
    "block_in_middle": range(12, 20),
    "wrapped_block": [*range(28, 32), *range(0, 4)],
    "random": [1, 2, 5, 9, 10, 17, 23, 30],
    "single_unit": [13],
    "all_open": range(32),
}
MASKED_CASES = ["pinned_layer_0", "init_on_layer_1", "three_layers"]
# A scattered mask and a single unit leave BLAS adding the open terms of a
# product in another order than with the closed zeros between them, so they
# are held to float64 rounding of K passes over products of at most 32
# terms, not to equal bits.
ROUNDED = {"random", "single_unit"}
OPEN_TOL = 10 * 15 * 32 * np.finfo(float).eps


def _open_case(name):
    """(circuit, settle kwargs, units the loop should run on) for one case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    # sigma puts every column of W and E outside the unit ball, so a clip
    # rescales closed units' columns too
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
    if name in ROUNDED:
        for f in ("z", "mu", "e"):
            for u, v in zip(getattr(got, f), getattr(want, f)):
                np.testing.assert_allclose(u, v, rtol=0, atol=OPEN_TOL)
        assert got.energy == pytest.approx(want.energy, rel=0, abs=OPEN_TOL)
        assert not got.z[1][got.mask[1] == 0].any()
    else:
        _assert_states_equal(got, want)
        assert got.energy == want.energy
    # the update adds no sums: equal bits from the same state, for any mask
    for state in (want, got):
        new = update_weights(c, state, eta_W=0.3, eta_E=0.2, clip=clip)
        ref = reference_ngc.update_weights(c, state, eta_W=0.3, eta_E=0.2, clip=clip)
        for ell in range(1, c.L + 1):
            assert np.array_equal(new.W[ell], ref.W[ell]), f"W[{ell}]"
            assert np.array_equal(new.E[ell], ref.E[ell]), f"E[{ell}]"
            assert new.W[ell].flags.c_contiguous and new.E[ell].flags.c_contiguous
        if clip:
            for M in (new.W[1], new.E[1]):
                assert (np.linalg.norm(M, axis=0) <= 1.0 + 1e-12).all()


@pytest.mark.parametrize("name", [*OPEN_CASES, *MASKED_CASES])
def test_open_unit_path_runs_where_it_applies(name, monkeypatch):
    c, kwargs, units = _open_case(name)
    ran_on = []
    loop = ngc._settle
    monkeypatch.setattr(ngc, "_settle", lambda sub, st: ran_on.append(sub.sizes) or loop(sub, st))
    settle(c, **kwargs)
    assert ran_on == [(c.sizes[0], units, *c.sizes[2:])]
