"""Gridworld and iterated rock-paper-scissors environments."""

import numpy as np
import pytest

from cogkit.envs import DEFAULT_MAZE, MazeEnv, RpsEnv


def pos_of(obs):
    (idx,) = np.flatnonzero(obs)
    return divmod(int(idx), 5)


class TestMaze:
    def test_reset_observation(self):
        env = MazeEnv()
        obs = env.reset()
        assert obs.shape == (25,)
        assert obs.sum() == 1.0
        assert pos_of(obs) == (0, 0)
        assert env.obs_dim == 25
        assert env.n_actions == 4

    def test_default_layout_shortest_path(self):
        env = MazeEnv()
        assert env.distance_map()[env.start] == 8

    def test_moves_and_border_bump(self):
        env = MazeEnv()
        env.reset()
        obs, r, done = env.step(0)  # up, into the border
        assert pos_of(obs) == (0, 0)
        assert r == -0.01
        assert not done

    def test_wall_bump_keeps_position(self):
        env = MazeEnv()
        env.reset()
        obs, _, _ = env.step(3)  # right -> (0,1)
        assert pos_of(obs) == (0, 1)
        obs, r, done = env.step(1)  # down, into wall (1,1)
        assert pos_of(obs) == (0, 1)
        assert r == -0.01
        assert not done

    def test_optimal_walk_return(self):
        # greedy descent on the BFS distance map earns 8 * -0.01 + 1.0
        env = MazeEnv()
        dist = env.distance_map()
        obs = env.reset()
        total, done = 0.0, False
        while not done:
            i, j = pos_of(obs)
            moves = [(-1, 0), (1, 0), (0, -1), (0, 1)]
            best = min(
                (a for a in range(4)
                 if (i + moves[a][0], j + moves[a][1]) in dist),
                key=lambda a: dist[(i + moves[a][0], j + moves[a][1])],
            )
            obs, r, done = env.step(best)
            total += r
        assert env.pos == env.goal
        assert abs(total - 0.92) < 1e-12
        assert env.steps == 8

    def test_goal_step_reward(self):
        env = MazeEnv(layout=("S.", ".G"), step_limit=10)
        env.reset()
        env.step(3)  # right
        obs, r, done = env.step(1)  # down -> goal
        assert r == pytest.approx(0.99)
        assert done

    def test_step_limit_terminates(self):
        env = MazeEnv(step_limit=5)
        env.reset()
        for k in range(5):
            _, r, done = env.step(0)  # bump the border forever
            assert r == -0.01
        assert done

    def test_step_after_done_raises(self):
        env = MazeEnv(step_limit=2)
        env.reset()
        env.step(0)
        env.step(0)
        with pytest.raises(RuntimeError):
            env.step(0)
        env.reset()
        env.step(0)  # fine again after reset

    def test_bad_action(self):
        env = MazeEnv()
        env.reset()
        with pytest.raises(ValueError):
            env.step(4)

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            MazeEnv(layout=("..", ".G"))  # no start
        with pytest.raises(ValueError):
            MazeEnv(layout=("S.", ".."))  # no goal
        with pytest.raises(ValueError):
            MazeEnv(layout=("S#", "#G"))  # goal unreachable
        with pytest.raises(ValueError):
            MazeEnv(layout=("SX", ".G"))  # unknown character

    def test_default_layout_has_four_walls(self):
        walls = sum(row.count("#") for row in DEFAULT_MAZE)
        assert walls == 4
        env = MazeEnv()
        assert len(env.walls) == 4


class TestRps:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RpsEnv(policy=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            RpsEnv(policy=(1.2, -0.2, 0.0))
        with pytest.raises(ValueError):
            RpsEnv(policy=(1.0, 0.0))

    def test_payoff_rules_against_pure_rock(self):
        env = RpsEnv(policy=(1.0, 0.0, 0.0), seed=0)
        assert env.step(1) == (1.0, 0)   # paper beats rock
        assert env.step(0) == (0.0, 0)   # rock draws rock
        assert env.step(2) == (-1.0, 0)  # scissors loses to rock

    def test_bad_action(self):
        env = RpsEnv()
        with pytest.raises(ValueError):
            env.step(3)

    def test_opponent_stream_is_seeded(self):
        a = RpsEnv(seed=42)
        b = RpsEnv(seed=42)
        seq_a = [a.step(0)[1] for _ in range(50)]
        seq_b = [b.step(0)[1] for _ in range(50)]
        assert seq_a == seq_b

    def test_opponent_matches_policy_frequencies(self):
        env = RpsEnv(policy=(0.8, 0.1, 0.1), seed=1)
        draws = np.array([env.step(0)[1] for _ in range(20000)])
        freq = np.bincount(draws, minlength=3) / len(draws)
        assert np.allclose(freq, [0.8, 0.1, 0.1], atol=0.02)

    def test_best_response_expected_payoff(self):
        # against (0.8, 0.1, 0.1), always-paper earns 0.8 - 0.1 = 0.7
        env = RpsEnv(policy=(0.8, 0.1, 0.1), seed=3)
        mean = np.mean([env.step(1)[0] for _ in range(20000)])
        assert abs(mean - 0.7) < 0.03
