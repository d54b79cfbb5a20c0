"""Environments: a walled grid maze and iterated rock-paper-scissors."""

from __future__ import annotations

from collections import deque

import numpy as np

DEFAULT_MAZE = (
    "S....",
    ".##..",
    ".....",
    "..##.",
    "....G",
)

# action indices: up, down, left, right
MOVES = ((-1, 0), (1, 0), (0, -1), (0, 1))


class MazeEnv:
    """Deterministic grid world with per-step cost and a goal bonus.

    The layout is a tuple of equal-length strings over {S, G, #, .}.  Each
    step costs -0.01; entering the goal adds +1.0 and ends the episode, as
    does exhausting the step limit.  Observations are one-hot position
    vectors of length H*W.
    """

    def __init__(self, layout=DEFAULT_MAZE, step_limit=50):
        rows = [str(r) for r in layout]
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("maze rows must be non-empty and equal length")
        self.layout = tuple(rows)
        self.h = len(rows)
        self.w = len(rows[0])
        self.walls = set()
        starts, goals = [], []
        for i, row in enumerate(rows):
            for j, ch in enumerate(row):
                if ch == "#":
                    self.walls.add((i, j))
                elif ch == "S":
                    starts.append((i, j))
                elif ch == "G":
                    goals.append((i, j))
                elif ch != ".":
                    raise ValueError(f"unknown maze cell {ch!r} at {(i, j)}")
        if len(starts) != 1 or len(goals) != 1:
            raise ValueError("maze needs exactly one S and one G")
        self.start, self.goal = starts[0], goals[0]
        if step_limit < 1:
            raise ValueError(f"step limit must be >= 1, got {step_limit}")
        self.step_limit = int(step_limit)
        if self.start not in self.distance_map():
            raise ValueError("goal is unreachable from start")
        self.pos = self.start
        self.steps = 0
        self.done = True  # require reset() before stepping

    @property
    def obs_dim(self):
        return self.h * self.w

    @property
    def n_actions(self):
        return 4

    def _observe(self):
        v = np.zeros(self.h * self.w)
        v[self.pos[0] * self.w + self.pos[1]] = 1.0
        return v

    def reset(self):
        self.pos = self.start
        self.steps = 0
        self.done = False
        return self._observe()

    def _free(self, cell):
        i, j = cell
        return 0 <= i < self.h and 0 <= j < self.w and cell not in self.walls

    def step(self, action):
        """Apply a move; walls and borders leave the position unchanged."""
        if self.done:
            raise RuntimeError("step() after episode end; call reset()")
        if not 0 <= action < 4:
            raise ValueError(f"action {action} not in 0..3")
        di, dj = MOVES[action]
        target = (self.pos[0] + di, self.pos[1] + dj)
        if self._free(target):
            self.pos = target
        self.steps += 1
        reward = -0.01
        reached = self.pos == self.goal
        if reached:
            reward += 1.0
        self.done = reached or self.steps >= self.step_limit
        return self._observe(), reward, self.done

    def distance_map(self):
        """BFS distance to the goal from every free cell that can reach it."""
        dist = {self.goal: 0}
        frontier = deque([self.goal])
        while frontier:
            cell = frontier.popleft()
            for di, dj in MOVES:
                nxt = (cell[0] + di, cell[1] + dj)
                if self._free(nxt) and nxt not in dist:
                    dist[nxt] = dist[cell] + 1
                    frontier.append(nxt)
        return dist


class RpsEnv:
    """Iterated rock-paper-scissors against a stationary mixed strategy.

    Actions 0, 1, 2 are rock, paper, scissors; (a - o) % 3 == 1 means the
    agent's choice beats the opponent's.
    """

    def __init__(self, policy=(0.8, 0.1, 0.1), seed=0):
        policy = np.asarray(policy, dtype=float)
        if policy.shape != (3,) or (policy < 0).any():
            raise ValueError("opponent policy must be 3 non-negative probabilities")
        if abs(policy.sum() - 1.0) > 1e-9:
            raise ValueError(f"opponent policy sums to {policy.sum()}, not 1")
        self.policy = policy
        self.rng = np.random.default_rng(seed)

    @property
    def n_actions(self):
        return 3

    def step(self, action):
        """Play one round; returns (reward, opponent_action)."""
        if not 0 <= action < 3:
            raise ValueError(f"action {action} not in 0..2")
        opp = int(self.rng.choice(3, p=self.policy))
        if action == opp:
            return 0.0, opp
        return (1.0, opp) if (action - opp) % 3 == 1 else (-1.0, opp)
