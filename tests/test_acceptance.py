"""End-to-end acceptance suite.

Every test here pins a headline behaviour of the toolkit at a stated
tolerance: binding fidelity and its direct-convolution oracle, local-energy
gradient agreement, settling descent, interference protection on the paired
continual benchmark, recall recency, adaptation in the two RL environments,
determinism/persistence, and stub-agent bracketing.  Numbers in asserts are
contracts, not observations — do not relax them to make a run pass.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from cogkit import hrr, ngc, runner
from cogkit.agent import Agent, AgentConfig
from cogkit.config import resolve
from cogkit.envs import RpsEnv

# ---------------------------------------------------------------------------
# suite configurations

CONTINUAL_CFG = resolve(dict(
    d=1024, sensory_hidden=(256,), sensory_K=30,
    sensory_eta_W=0.01, sensory_eta_E=0.01,
    mask_mode="blocks", mask_p=0.25, M_max=4, eta_c=0.02,
    theta="auto", theta_factor=2.25, context_window=32,
    motor_state_dim=128, motor_hidden=(), motor_K=20,
    motor_eta_W=0.05, motor_eta_E=0.05,
    gamma_d=0.0, eps_start=0.2, eps_end=0.02,
    route_wm_encode=False, route_dm_store=False, route_dm_retrieve=False,
    n_tasks=2, per_task_train=500, per_task_test=500, epochs=3,
    synthetic_per_class=900, readout="rl",
))
CONTINUAL_SEEDS = (1, 2, 3)

RPS_CFG = resolve(dict(
    env="rps", rounds=2000, d=256, sensory_hidden=(32,), sensory_K=10,
    motor_K=10, motor_state_dim=32, context_window=16, M_max=1,
    mask_p=1.0, theta=1e9, gamma_d=0.0, alpha_e=0.0,
    motor_eta_W=0.05, motor_eta_E=0.05,
    route_wm_encode=False, route_dm_store=False, route_dm_retrieve=False,
))
RPS_SEEDS = (1, 2, 3, 4, 5)

MAZE_CFG = resolve(dict(
    env="maze", episodes=500, step_limit=50, eval_window=100,
    d=64, sensory_hidden=(32,), sensory_K=8, motor_K=8, motor_state_dim=32,
    context_window=8, M_max=1, mask_p=1.0, theta=1e9,
    sensory_eta_W=0.002, sensory_eta_E=0.002,
    motor_eta_W=0.05, motor_eta_E=0.05, gamma_d=0.95, alpha_e=0.0,
    route_wm_encode=False, route_dm_store=False, route_dm_retrieve=False,
))
MAZE_SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def continual_runs():
    t0 = time.perf_counter()
    runs = {
        seed: (runner.run_continual(CONTINUAL_CFG, seed=seed),
               runner.run_continual(CONTINUAL_CFG, seed=seed, ungated=True))
        for seed in CONTINUAL_SEEDS
    }
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def rps_runs():
    return {seed: runner.run_rps(RPS_CFG, seed=seed) for seed in RPS_SEEDS}


@pytest.fixture(scope="module")
def maze_runs():
    return {seed: runner.run_maze(MAZE_CFG, seed=seed) for seed in MAZE_SEEDS}


# ---------------------------------------------------------------------------
# 1-2: holographic binding

def test_binding_cleanup_fidelity():
    # d=1024, 50 symbols, 100 pairs: unbind-then-cleanup recovers the first
    # factor in at least 99 trials, and the whole thing stays under 5 s.
    t0 = time.perf_counter()
    d = 1024
    names = [f"sym{i}" for i in range(50)]
    lex = hrr.SymbolLexicon(d, seed=7, names=names)
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(100):
        a, b = rng.choice(names, size=2, replace=False)
        trace = hrr.bind(lex[a], lex[b])
        got, _score = hrr.cleanup(hrr.unbind(trace, lex[b]), lex)[0]
        hits += got == a
    elapsed = time.perf_counter() - t0
    assert hits >= 99
    assert elapsed < 5.0


def _direct_convolution(a, b):
    d = len(a)
    out = np.zeros(d)
    for k in range(d):
        for i in range(d):
            out[k] += a[i] * b[(k - i) % d]
    return out


@pytest.mark.parametrize("d", [3, 64, 256])
def test_bind_matches_direct_convolution(d):
    rng = np.random.default_rng(d)
    for _ in range(100):
        a = rng.normal(0, 1 / np.sqrt(d), d)
        b = rng.normal(0, 1 / np.sqrt(d), d)
        want = _direct_convolution(a, b)
        got = hrr.bind(a, b)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


# ---------------------------------------------------------------------------
# 3-4: generative circuits

def _finite_difference_grad(circuit, state, ell, h=1e-6):
    g = np.zeros_like(circuit.W[ell])
    for i in range(g.shape[0]):
        for j in range(g.shape[1]):
            es = []
            for sign in (+1.0, -1.0):
                W = [None if w is None else w.copy() for w in circuit.W]
                W[ell][i, j] += sign * h
                pert = replace(circuit, W=W)
                es.append(ngc.energy(ngc.predict(pert, state)))
            g[i, j] = (es[0] - es[1]) / (2 * h)
    return g


def test_hebbian_update_matches_local_energy_gradient():
    # The weight change proposed after settling must equal the (negated)
    # finite-difference gradient of the settled energy to 1e-4 relative.
    for seed in range(20):
        circuit = ngc.init_circuit((8, 16, 8), seed=seed)
        rng = np.random.default_rng(seed + 1000)
        state = ngc.settle(circuit, clamps={0: rng.normal(0, 1, 8)})
        updated = ngc.update_weights(circuit, state, eta_W=1.0, eta_E=0.0)
        for ell in range(1, circuit.L + 1):
            delta = updated.W[ell] - circuit.W[ell]
            grad = _finite_difference_grad(circuit, state, ell)
            err = np.linalg.norm(delta + grad) / np.linalg.norm(grad)
            assert err <= 1e-4, f"seed {seed} layer {ell}: rel err {err:.2e}"


def test_settling_lowers_energy():
    wins = 0
    for seed in range(100):
        circuit = ngc.init_circuit((8, 16, 8), seed=seed)
        rng = np.random.default_rng(seed + 500)
        clamps = {0: rng.normal(0, 1, 8)}
        init = {1: rng.normal(0, 1, 16), 2: rng.normal(0, 1, 8)}
        before = ngc.energy(
            ngc.predict(circuit, ngc.make_state(circuit, clamps=clamps, init=init))
        )
        after = ngc.energy(ngc.settle(circuit, clamps=clamps, init=init))
        wins += after < before
    assert wins >= 95


# ---------------------------------------------------------------------------
# 5: continual interference protection

@pytest.mark.slow
def test_gating_protects_first_task(continual_runs):
    runs, elapsed = continual_runs
    gaps = []
    gated_accs = []
    for gated, ungated in runs.values():
        gaps.append(gated["final"][0] - ungated["final"][0])
        gated_accs.append(gated["ACC"])
    assert np.mean(gaps) >= 0.10, f"task-1 retention gaps {gaps}"
    assert np.mean(gated_accs) >= 0.75, f"gated ACCs {gated_accs}"
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 6: serial recall recency

def test_recall_recency():
    cfg = resolve(dict(
        recall_d=2048, recall_rho=0.9, recall_lexicon=16,
        recall_list_len=7, recall_lists=100,
    ))
    acc = runner.run_recall(cfg, seed=0)["accuracy"]
    assert acc[6] > acc[3], f"position accuracies {list(acc)}"


# ---------------------------------------------------------------------------
# 7-8: reinforcement learning

def test_rps_adaptation(rps_runs):
    lates = [run["late_payoff"] for run in rps_runs.values()]
    assert np.median(lates) >= 0.4, f"late payoffs {lates}"


def test_maze_reaches_goal(maze_runs):
    rates = [run["success_rate"] for run in maze_runs.values()]
    assert np.median(rates) >= 0.9, f"success rates {rates}"


# ---------------------------------------------------------------------------
# 9: determinism and persistence

def test_metrics_byte_identical(tmp_path):
    cfg = resolve(dict(
        env="rps", rounds=300, d=64, sensory_hidden=(16,), sensory_K=8,
        motor_K=8, motor_state_dim=16, context_window=8, M_max=1,
        mask_p=1.0, theta=1e9, gamma_d=0.0,
        route_wm_encode=False, route_dm_store=False, route_dm_retrieve=False,
    ))
    for sub in ("a", "b"):
        runner.run_rps(cfg, seed=11, out=tmp_path / sub)
    first = (tmp_path / "a" / "metrics.csv").read_bytes()
    second = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert first == second


def _play(agent, env, obs, reward, rounds):
    actions = []
    for _ in range(rounds):
        a = agent.cycle(obs, reward, False)
        actions.append(a)
        reward, opp = env.step(a)
        obs = np.eye(3)[opp]
    return actions, obs, reward


def test_snapshot_restore_resumes_identically():
    config = AgentConfig(
        obs_dim=3, n_actions=3, d=64, seed=5,
        sensory_hidden=(16,), sensory_K=8, motor_K=8, motor_state_dim=16,
        context_window=8, M_max=1, mask_p=1.0, theta=1e9, gamma_d=0.0,
        route_wm_encode=False, route_dm_store=False, route_dm_retrieve=False,
        horizon=250,
    )
    policy = (0.8, 0.1, 0.1)
    start = np.full(3, 1.0 / 3.0)

    original = Agent(config)
    env_a = RpsEnv(policy=policy, seed=99)
    warm_actions, obs, reward = _play(original, env_a, start, 0.0, 150)
    frozen = original.snapshot()
    tail_original, _, _ = _play(original, env_a, obs, reward, 100)

    # replay the warm-up actions into a twin environment so its RNG sits at
    # the same point, then resume from the snapshot
    env_b = RpsEnv(policy=policy, seed=99)
    for a in warm_actions:
        env_b.step(a)
    restored = Agent.restore(frozen)
    tail_restored, _, _ = _play(restored, env_b, obs, reward, 100)

    assert tail_original == tail_restored


# ---------------------------------------------------------------------------
# 10: stub agents bracket the learned agent

@pytest.mark.slow
def test_stub_agents_bracket_learned(continual_runs, rps_runs, maze_runs):
    runs, _ = continual_runs
    for seed, (gated, _ungated) in runs.items():
        lo = runner.run_continual(CONTINUAL_CFG, seed=seed, agent_kind="random")
        hi = runner.run_continual(CONTINUAL_CFG, seed=seed, agent_kind="oracle")
        assert lo["ACC"] <= gated["ACC"] <= hi["ACC"], f"continual seed {seed}"

    for seed, run in rps_runs.items():
        lo = runner.run_rps(RPS_CFG, seed=seed, agent_kind="random")
        hi = runner.run_rps(RPS_CFG, seed=seed, agent_kind="oracle")
        assert lo["late_payoff"] <= run["late_payoff"] <= hi["late_payoff"], (
            f"rps seed {seed}: {lo['late_payoff']:.3f} / "
            f"{run['late_payoff']:.3f} / {hi['late_payoff']:.3f}"
        )

    for seed, run in maze_runs.items():
        lo = runner.run_maze(MAZE_CFG, seed=seed, agent_kind="random")
        hi = runner.run_maze(MAZE_CFG, seed=seed, agent_kind="oracle")
        assert lo["success_rate"] <= run["success_rate"] <= hi["success_rate"], (
            f"maze seed {seed}"
        )
