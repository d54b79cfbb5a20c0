"""Experiment runners: protocol fixtures, stubs, and determinism."""

from dataclasses import fields

import numpy as np
import pytest

from cogkit import runner
from cogkit.agent import Agent, AgentConfig
from cogkit.config import SCHEMA, parse_config, resolve
from cogkit.metrics import MetricsWriter, format_value
from cogkit.runner import calibrate_theta, canonical_config_text

TINY_RL = dict(
    d=64, sensory_hidden=(16,), sensory_K=8, motor_K=8, motor_state_dim=16,
    context_window=8, M_max=4, theta=5.0,
    route_wm_encode=False, route_dm_store=False, route_dm_retrieve=False,
    eval_window=50,
)

TINY_CONTINUAL = dict(
    TINY_RL,
    n_tasks=2, per_task_train=40, per_task_test=30, epochs=1,
    synthetic_per_class=80, gamma_d=0.0, theta="auto",
)


class TestContinual:
    def test_oracle_stub_is_perfect(self):
        cfg = resolve(TINY_CONTINUAL)
        out = runner.run_continual(cfg, seed=0, agent_kind="oracle")
        assert out["ACC"] == 1.0
        assert out["forgetting"] == 0.0

    def test_single_task_forgetting_is_zero(self):
        cfg = resolve({**TINY_CONTINUAL, "n_tasks": 1})
        out = runner.run_continual(cfg, seed=0, agent_kind="random")
        assert out["forgetting"] == 0.0

    def test_random_stub_near_chance(self):
        cfg = resolve({**TINY_CONTINUAL, "per_task_test": 250,
                       "synthetic_per_class": 300})
        out = runner.run_continual(cfg, seed=3, agent_kind="random")
        assert 0.35 < out["ACC"] < 0.65

    def test_learned_agent_beats_chance_on_one_task(self):
        # cortex frozen: a 16-unit circuit saturates on images this
        # correlated, and the point here is the reward-driven readout
        cfg = resolve({**TINY_CONTINUAL, "n_tasks": 1, "epochs": 2,
                       "per_task_train": 120, "per_task_test": 60,
                       "synthetic_per_class": 200,
                       "sensory_eta_W": 0.0, "sensory_eta_E": 0.0,
                       "eps_start": 0.3, "eps_end": 0.05})
        out = runner.run_continual(cfg, seed=0)
        assert out["ACC"] > 0.8

    def test_eval_rows_shape(self):
        cfg = resolve(TINY_CONTINUAL)
        out = runner.run_continual(cfg, seed=0, agent_kind="random")
        acc_rows = [r for r in out["rows"] if r[2] == "accuracy"]
        # task 0 evaluated after each of the two tasks, task 1 once
        assert [(r[1]) for r in acc_rows] == [0, 0, 1]
        assert out["rows"][-2][2:] == ("ACC", out["ACC"])

    def test_ungated_run_forces_dense_masks_and_no_bootstrap(self):
        cfg = resolve({**TINY_CONTINUAL, "gamma_d": 0.9, "per_task_train": 10})
        out = runner.run_continual(cfg, seed=0, ungated=True)
        assert (out["agent"].config.mask_p, out["agent"].config.gamma_d) == (1.0, 0.0)

    def test_unknown_agent_kind(self):
        with pytest.raises(ValueError, match="agent kind"):
            runner.run_continual(resolve(TINY_CONTINUAL), seed=0, agent_kind="best")

    def test_writes_metrics_and_metadata(self, tmp_path):
        cfg = resolve(TINY_CONTINUAL)
        runner.run_continual(cfg, seed=0, out=str(tmp_path), agent_kind="random")
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "step,task,metric,value"
        assert len(lines) > 3
        meta = (tmp_path / "metadata.txt").read_text()
        assert "seed = 0" in meta
        assert "config_hash = " in meta
        assert "wall_time_s = " in meta


class TestRps:
    def test_fixed_best_response_vs_pure_rock_scores_one(self):
        # deterministic opponent, deterministic policy: every round is a win
        cfg = resolve({**TINY_RL, "rounds": 50, "rps_policy": (1.0, 0.0, 0.0)})
        out = runner.run_rps(cfg, seed=0, agent_kind="oracle")
        assert out["mean_payoff"] == 1.0
        assert out["late_payoff"] == 1.0

    def test_random_stub_near_zero(self):
        cfg = resolve({**TINY_RL, "rounds": 3000})
        out = runner.run_rps(cfg, seed=1, agent_kind="random")
        assert abs(out["late_payoff"]) < 0.1

    def test_learned_agent_runs_and_learns(self):
        cfg = resolve({**TINY_RL, "rounds": 400, "gamma_d": 0.0,
                       "eps_decay_frac": 0.3})
        out = runner.run_rps(cfg, seed=0)
        assert out["late_payoff"] > 0.2

    def test_every_shared_config_key_reaches_the_agent(self):
        # a non-default value for each key the schema shares with AgentConfig
        values = dict(
            seed=5, d=32, sensory_hidden=(8,), sensory_beta=0.04, sensory_gamma=0.002,
            sensory_K=3, sensory_sigma=0.04, sensory_eta_W=0.02, sensory_eta_E=0.03,
            sensory_clip=False, motor_hidden=(4,), motor_state_dim=8, motor_beta=0.06,
            motor_gamma=0.003, motor_K=2, motor_sigma=0.06, motor_eta_W=0.04,
            motor_eta_E=0.05, motor_clip=True, gamma_d=0.5, alpha_e=0.1, r_clip=2.0,
            replay_capacity=4, replay_samples=1, theta=7.5, eta_c=0.2, M_max=2,
            mask_p=0.75, mask_mode="blocks", gate_metric="cosine", context_window=4,
            route_wm_encode=False, route_dm_store=False, route_dm_retrieve=False,
            wm_rho=0.8, dm_tau=0.2, dm_k=2, eps_start=0.9, eps_end=0.1,
            eps_decay_frac=0.3,
        )
        assert set(values) == {f.name for f in fields(AgentConfig)} & set(SCHEMA)
        assert all(v != SCHEMA[k][1] for k, v in values.items())
        agent = runner.run_rps(resolve(dict(values, rounds=3)))["agent"]
        assert {k: getattr(agent.config, k) for k in values} == values
        assert (agent.config.obs_dim, agent.config.n_actions) == (3, 3)
        assert agent.config.horizon == 3

    def test_late_window_bounds(self):
        # rounds < 2000 falls back to the second half
        cfg = resolve({**TINY_RL, "rounds": 100, "rps_policy": (1.0, 0.0, 0.0)})
        out = runner.run_rps(cfg, seed=0, agent_kind="oracle")
        assert out["late_payoff"] == 1.0


class TestMaze:
    def test_step_limit_one_every_episode_ends(self):
        cfg = resolve({**TINY_RL, "episodes": 5, "step_limit": 1})
        out = runner.run_maze(cfg, seed=0, agent_kind="random")
        returns = [r[3] for r in out["rows"] if r[2] == "return"]
        assert returns == [-0.01] * 5
        assert out["success_rate"] == 0.0

    def test_oracle_stub_always_succeeds(self):
        cfg = resolve({**TINY_RL, "episodes": 4, "step_limit": 50})
        out = runner.run_maze(cfg, seed=0, agent_kind="oracle")
        assert out["success_rate"] == 1.0
        assert out["mean_return"] == pytest.approx(0.92)

    def test_random_stub_sometimes_fails(self):
        cfg = resolve({**TINY_RL, "episodes": 30, "step_limit": 50})
        out = runner.run_maze(cfg, seed=2, agent_kind="random")
        assert 0.0 <= out["success_rate"] < 0.9

    def test_learned_agent_runs(self):
        cfg = resolve({**TINY_RL, "episodes": 8, "step_limit": 30,
                       "gamma_d": 0.9})
        out = runner.run_maze(cfg, seed=0)
        assert len([r for r in out["rows"] if r[2] == "return"]) == 8


class TestRecall:
    def test_single_item_lists_are_exact(self):
        cfg = resolve({"recall_d": 256, "recall_list_len": 1, "recall_lists": 20})
        out = runner.run_recall(cfg, seed=0)
        assert out["accuracy"][0] == 1.0

    def test_accuracy_per_position_shape(self):
        cfg = resolve({"recall_d": 256, "recall_lists": 10})
        out = runner.run_recall(cfg, seed=0)
        assert len(out["accuracy"]) == 7
        names = [r[2] for r in out["rows"]]
        assert "recall_acc_pos1" in names and "recall_cos_pos7" in names

    def test_list_longer_than_lexicon_rejected(self):
        cfg = resolve({"recall_list_len": 20, "recall_lexicon": 16})
        with pytest.raises(ValueError, match="lexicon"):
            runner.run_recall(cfg, seed=0)


class TestOutputs:
    def test_config_error_raises_before_any_file(self, tmp_path):
        cfg = resolve({**TINY_CONTINUAL, "n_tasks": 6})
        with pytest.raises(ValueError, match="n_tasks 6"):
            runner.run_continual(cfg, seed=0, out=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_closes_its_metrics_and_writes_no_metadata(self, tmp_path,
                                                                  monkeypatch):
        writers = []

        class Recording(MetricsWriter):
            def __init__(self, path=None):
                super().__init__(path)
                self.closed = False
                writers.append(self)

            def close(self):
                self.closed = True
                super().close()

        real_cycle, calls = Agent.cycle, []

        def failing_cycle(agent, *args, **kwargs):
            calls.append(None)
            if len(calls) == 25:
                raise RuntimeError("cycle failed")
            return real_cycle(agent, *args, **kwargs)

        monkeypatch.setattr(runner, "MetricsWriter", Recording)
        monkeypatch.setattr(Agent, "cycle", failing_cycle)
        cfg = resolve({**TINY_RL, "rounds": 40, "eval_window": 10})
        with pytest.raises(RuntimeError, match="cycle failed"):
            runner.run_rps(cfg, seed=0, out=str(tmp_path))
        (sink,) = writers
        assert sink.closed
        assert [row[0] for row in sink.rows] == [10, 20]
        assert (tmp_path / "metrics.csv").read_text() == MetricsWriter.HEADER + "".join(
            f"{step},{task},{metric},{format_value(value)}\n"
            for step, task, metric, value in sink.rows)
        assert not (tmp_path / "metadata.txt").exists()


class TestDeterminism:
    def test_same_seed_identical_metrics_bytes(self, tmp_path):
        cfg = resolve({**TINY_RL, "rounds": 150, "gamma_d": 0.0})
        blobs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            runner.run_rps(cfg, seed=5, out=str(out_dir))
            blobs.append((out_dir / "metrics.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_different_seed_differs(self):
        cfg = resolve({**TINY_RL, "rounds": 150, "gamma_d": 0.0})
        a = runner.run_rps(cfg, seed=5)
        b = runner.run_rps(cfg, seed=6)
        assert a["rows"] != b["rows"]


class TestHelpers:
    def test_calibrate_theta_positive_and_scales(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(0, 1, size=(100, 10))
        t1 = calibrate_theta(samples, window=16, factor=1.0, eta_c=0.05)
        t2 = calibrate_theta(samples, window=16, factor=3.0, eta_c=0.05)
        assert t1 > 0
        assert t2 == pytest.approx(3 * t1)

    def test_calibrate_theta_constant_stream(self):
        samples = np.ones((50, 4))
        assert calibrate_theta(samples, 8, 2.0, 0.05) == 1e-9

    def test_canonical_text_parses_back(self):
        cfg = resolve({"d": 128, "sensory_clip": False, "rps_policy": (0.5, 0.3, 0.2)})
        text = canonical_config_text(cfg)
        assert resolve(parse_config(text)) == cfg
