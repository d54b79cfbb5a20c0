"""Command-line interface."""

import numpy as np
import pytest

from cogkit.agent import Agent, AgentConfig
from cogkit.cli import main

TINY_CFG = """
d = 64
sensory_hidden = 16
sensory_K = 8
motor_K = 8
motor_state_dim = 16
context_window = 8
theta = 5.0
route_wm_encode = false
route_dm_store = false
route_dm_retrieve = false
eval_window = 50
n_tasks = 2
per_task_train = 30
per_task_test = 20
epochs = 1
synthetic_per_class = 60
rounds = 60
episodes = 3
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CFG)
    return str(path)


def test_continual_oracle(cfg_file, tmp_path, capsys):
    out = tmp_path / "run1"
    rc = main(["continual", "--config", cfg_file, "--seed", "0",
               "--out", str(out), "--agent", "oracle"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "ACC = 1.0000" in text
    assert "forgetting = 0.0000" in text
    assert (out / "metrics.csv").exists()
    assert (out / "metadata.txt").exists()


def test_continual_ungated_flag(cfg_file, capsys):
    rc = main(["continual", "--config", cfg_file, "--seed", "0",
               "--agent", "random", "--ungated"])
    assert rc == 0
    assert "ACC = " in capsys.readouterr().out


def test_rl_rps(cfg_file, capsys):
    rc = main(["rl", "--env", "rps", "--config", cfg_file, "--seed", "1",
               "--agent", "random"])
    assert rc == 0
    assert "late payoff" in capsys.readouterr().out


def test_rl_maze(cfg_file, capsys):
    rc = main(["rl", "--env", "maze", "--config", cfg_file, "--seed", "1",
               "--agent", "oracle"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "success rate" in out
    assert "1.0000" in out


def test_rl_env_defaults_to_config(tmp_path, capsys):
    path = tmp_path / "maze.cfg"
    path.write_text(TINY_CFG + "env = maze\n")
    assert main(["rl", "--config", str(path), "--agent", "oracle"]) == 0
    assert "success rate" in capsys.readouterr().out
    # an explicit flag still wins over the config
    assert main(["rl", "--env", "rps", "--config", str(path), "--agent", "oracle"]) == 0
    assert "late payoff" in capsys.readouterr().out


def test_recall(tmp_path, capsys):
    path = tmp_path / "r.cfg"
    path.write_text("recall_d = 256\nrecall_lists = 5\n")
    rc = main(["recall", "--config", str(path)])
    assert rc == 0
    assert "position 7" in capsys.readouterr().out


def test_defaults_without_config(capsys):
    # no --config: schema defaults; keep it cheap with a stub agent
    rc = main(["rl", "--env", "rps", "--seed", "0", "--agent", "oracle"])
    assert rc == 0
    assert "late payoff = 0.7" in capsys.readouterr().out


def test_inspect(tmp_path, capsys):
    agent = Agent(AgentConfig(obs_dim=6, n_actions=2, d=32,
                              sensory_hidden=(8,), sensory_K=4, motor_K=4,
                              motor_state_dim=8, context_window=4))
    agent.cycle(np.zeros(6))
    path = tmp_path / "agent.snap"
    with open(path, "wb") as fh:
        fh.write(agent.snapshot())
    rc = main(["inspect", "--snapshot", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "arrays" in out
    assert "sensory" in out


def test_bad_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
