"""Experiment runners: continual split-digit, rock-paper-scissors, maze,
and serial recall.

Every runner takes a resolved config dict, a seed, and an optional output
directory; it returns a summary dict and (when ``out`` is given) writes
``metrics.csv`` plus ``metadata.txt``.  All randomness flows from the seed,
so a rerun with the same seed and config reproduces the metrics file byte
for byte.  Wall-clock time goes only into the metadata file.

``agent_kind`` selects the learned agent or one of two stubs: ``random``
acts uniformly and never learns, ``oracle`` plays each suite's known best
strategy.  The stubs share the environment stepping code, so they bound
what the learned agent's numbers can mean.
"""

from __future__ import annotations

import os
from dataclasses import fields

import numpy as np

from . import hrr, memory
from .agent import Agent, AgentConfig
from .config import config_hash
from .data import DEFAULT_PAIRS, load_idx, make_split_mnist, make_synthetic_digits
from .envs import MazeEnv, MOVES, RpsEnv
from .gate import ContextTracker
from .metrics import MetricsWriter, Stopwatch, write_metadata

AGENT_KINDS = ("learned", "random", "oracle")


class MetricsSink:
    """Collects rows in memory and mirrors them to a CSV when given a path."""

    def __init__(self, path=None):
        self.rows = []
        self._writer = MetricsWriter(path) if path else None

    def emit(self, step, task, metric, value):
        self.rows.append((int(step), int(task), metric, value))
        if self._writer:
            self._writer.write(step, task, metric, value)

    def flush(self):
        if self._writer:
            self._writer.flush()

    def close(self):
        if self._writer:
            self._writer.close()

    def value(self, metric):
        """Last emitted value for ``metric``."""
        for step, task, name, value in reversed(self.rows):
            if name == metric:
                return value
        raise KeyError(metric)


def canonical_config_text(cfg):
    """Render a resolved config back to sorted key=value text (used to hash
    configs that never existed as a file)."""
    parts = []
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        parts.append(f"{key} = {value}")
    return "\n".join(parts) + "\n"


def _start_run(cfg, seed, out, cfg_text):
    if seed is None:
        seed = cfg["seed"]
    sink_path = None
    if out:
        os.makedirs(out, exist_ok=True)
        sink_path = os.path.join(out, "metrics.csv")
    text = cfg_text if cfg_text is not None else canonical_config_text(cfg)
    return int(seed), MetricsSink(sink_path), config_hash(text), Stopwatch()


def _end_run(out, seed, cfg_hash, watch, sink, extra):
    sink.close()
    if out:
        write_metadata(os.path.join(out, "metadata.txt"), seed, cfg_hash,
                       watch.seconds(), extra)


def calibrate_theta(samples, window, factor, eta_c):
    """Novelty threshold from a short calibration stream.

    Replays the gate's own dynamics on ~100 samples: a running-mean context
    chased by a single prototype at rate ``eta_c``.  theta is ``factor``
    times the 95th percentile of the steady-state context-to-prototype
    distances (the warm-up, where the running mean is still sliding away
    from the first sample, is excluded), i.e. comfortably above anything
    one stationary source produces, so only a genuine distribution shift
    clears it.
    """
    samples = np.asarray(samples, dtype=float)[:100]
    if len(samples) < 2:
        raise ValueError("calibration needs at least 2 samples")
    tracker = ContextTracker(samples.shape[1], window)
    proto = None
    dists = []
    skip = min(window, len(samples) // 2)
    for i, x in enumerate(samples):
        ctx = tracker.update(x)
        if proto is None:
            proto = ctx.copy()
            continue
        if i >= skip:
            dists.append(float(np.linalg.norm(ctx - proto)))
        proto = proto + eta_c * (ctx - proto)
    theta = factor * float(np.percentile(dists, 95))
    return max(theta, 1e-9)


def _agent_config(cfg, **overrides):
    """AgentConfig from the resolved config's keys of the same name, plus
    ``overrides``: what the runner works out itself or forces."""
    names = {f.name for f in fields(AgentConfig)}
    return AgentConfig(**{**{k: v for k, v in cfg.items() if k in names}, **overrides})


# ---------------------------------------------------------------------------
# continual split-digit classification


def load_dataset(cfg):
    """Images/labels from IDX files when configured, else the synthetic set.

    The synthetic generator is seeded by a constant, not the run seed, so
    paired runs (gated vs ungated, learned vs stub) see the same dataset and
    differ only in what the config says they differ in.
    """
    if cfg["train_images"]:
        images = load_idx(cfg["train_images"])
        labels = load_idx(cfg["train_labels"])
        return images, labels
    return make_synthetic_digits(per_class=cfg["synthetic_per_class"], seed=0)


def _fixed_task_context(task, window):
    return task.test_x[: min(window, len(task.test_x))].mean(axis=0)


def _eval_tasks(predict, stream, upto, step, sink, best):
    """Accuracy of ``predict(x, task_id)`` on every task seen so far."""
    accs = {}
    for j in range(upto + 1):
        task = stream[j]
        correct = sum(
            1 for x, y in zip(task.test_x, task.test_y) if predict(x, j) == y
        )
        acc = correct / len(task.test_y)
        accs[j] = acc
        best[j] = max(best.get(j, 0.0), acc)
        sink.emit(step, j, "accuracy", acc)
    sink.flush()
    return accs


def run_continual(cfg, seed=None, out=None, ungated=False, agent_kind="learned",
                  cfg_text=None):
    """Sequential binary digit tasks; reports average final accuracy (ACC)
    and forgetting (mean best-minus-final over tasks)."""
    if agent_kind not in AGENT_KINDS:
        raise ValueError(f"unknown agent kind {agent_kind!r}")
    seed, sink, cfg_hash, watch = _start_run(cfg, seed, out, cfg_text)

    images, labels = load_dataset(cfg)
    n_tasks = cfg["n_tasks"]
    if n_tasks > len(DEFAULT_PAIRS):
        raise ValueError(f"n_tasks {n_tasks} > {len(DEFAULT_PAIRS)} available pairs")
    stream = make_split_mnist(images, labels, DEFAULT_PAIRS[:n_tasks],
                              cfg["per_task_train"], cfg["per_task_test"], seed=seed)
    obs_dim = stream[0].train_x.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1000]))

    agent = None
    lookup = {}
    if agent_kind == "learned":
        theta = cfg["theta"]
        if theta == "auto":
            theta = calibrate_theta(stream[0].train_x, cfg["context_window"],
                                    cfg["theta_factor"], cfg["eta_c"])
        horizon = cfg["epochs"] * n_tasks * cfg["per_task_train"]
        # classification is a one-shot bandit: no bootstrapping
        agent = Agent(_agent_config(
            cfg, obs_dim=obs_dim, n_actions=2, horizon=horizon, seed=seed, theta=theta,
            mask_p=1.0 if ungated else cfg["mask_p"], gamma_d=0.0))
        contexts = {}

        def predict(x, j):
            if j not in contexts:
                contexts[j] = _fixed_task_context(stream[j], cfg["context_window"])
            action, _, _ = agent.probe(x, context=contexts[j])
            return action

    elif agent_kind == "oracle":
        for task in stream:
            for x, y in zip(task.test_x, task.test_y):
                lookup[(task.task_id, x.tobytes())] = int(y)

        def predict(x, j):
            return lookup[(j, x.tobytes())]

    else:

        def predict(x, j):
            return int(rng.integers(2))

    step = 0
    best = {}
    accs = {}
    for task in stream:
        if agent_kind == "learned":
            supervised = cfg["readout"] == "supervised"
            r = 0.0
            for _ in range(cfg["epochs"]):
                order = rng.permutation(len(task.train_x))
                for i in order:
                    x, y = task.train_x[i], int(task.train_y[i])
                    if supervised:
                        targets = np.full(2, -1.0)
                        targets[y] = 1.0
                        agent.supervised_step(x, targets)
                    else:
                        a = agent.cycle(x, r, done=False)
                        r = 1.0 if a == y else -1.0
                    step += 1
            if not supervised:
                agent.finish(r)
        else:
            step += cfg["epochs"] * len(task.train_x)
        accs = _eval_tasks(predict, stream, task.task_id, step, sink, best)

    final = [accs[j] for j in range(n_tasks)]
    acc_mean = float(np.mean(final))
    forgetting = float(np.mean([best[j] - accs[j] for j in range(n_tasks)]))
    sink.emit(step, -1, "ACC", acc_mean)
    sink.emit(step, -1, "forgetting", forgetting)
    if agent is not None:
        sink.emit(step, -1, "units_recruited", agent.gate.active_count)
    sink.flush()

    _end_run(out, seed, cfg_hash, watch, sink, {
        "command": "continual", "agent": agent_kind,
        "ungated": int(ungated), "steps": step,
    })
    return {"ACC": acc_mean, "forgetting": forgetting, "final": final,
            "rows": sink.rows, "agent": agent}


# ---------------------------------------------------------------------------
# reinforcement-learning suites


def _rl_theta(cfg, obs_samples):
    theta = cfg["theta"]
    if theta == "auto":
        theta = calibrate_theta(obs_samples, cfg["context_window"],
                                cfg["theta_factor"], cfg["eta_c"])
    return theta


def run_rps(cfg, seed=None, out=None, agent_kind="learned", cfg_text=None):
    """Iterated rock-paper-scissors against a stationary mixed opponent.

    The observation is a one-hot of the opponent's previous move (uniform on
    round zero); the headline number is the mean payoff over a late window
    where adaptation should have converged (rounds 1000..2000 when
    available, otherwise the second half)."""
    if agent_kind not in AGENT_KINDS:
        raise ValueError(f"unknown agent kind {agent_kind!r}")
    seed, sink, cfg_hash, watch = _start_run(cfg, seed, out, cfg_text)

    rounds = cfg["rounds"]
    policy = np.asarray(cfg["rps_policy"], dtype=float)
    ss = np.random.SeedSequence([seed, 2000])
    env_seed, calib_seed, stub_seed = ss.spawn(3)
    env = RpsEnv(policy=policy, seed=env_seed)
    rng = np.random.default_rng(stub_seed)

    agent = None
    if agent_kind == "learned":
        calib = np.eye(3)[np.random.default_rng(calib_seed).choice(
            3, size=100, p=policy)]
        theta = _rl_theta(cfg, calib)
        agent = Agent(_agent_config(cfg, obs_dim=3, n_actions=3, horizon=rounds,
                                    seed=seed, theta=theta))
    elif agent_kind == "oracle":
        # expected payoff of action a: P(beats) - P(loses)
        expect = [policy[(a - 1) % 3] - policy[(a + 1) % 3] for a in range(3)]
        best_response = int(np.argmax(expect))

    payoffs = []
    obs = np.full(3, 1.0 / 3.0)
    r = 0.0
    window = cfg["eval_window"]
    for t in range(rounds):
        if agent_kind == "learned":
            a = agent.cycle(obs, r, done=False)
        elif agent_kind == "oracle":
            a = best_response
        else:
            a = int(rng.integers(3))
        r, opp = env.step(a)
        payoffs.append(r)
        obs = np.zeros(3)
        obs[opp] = 1.0
        if (t + 1) % window == 0:
            sink.emit(t + 1, 0, "mean_payoff", float(np.mean(payoffs[-window:])))
            sink.flush()
    if agent is not None:
        agent.finish(r)

    lo = 1000 if rounds >= 2000 else rounds // 2
    hi = min(2000, rounds)
    late = float(np.mean(payoffs[lo:hi]))
    sink.emit(rounds, -1, "late_payoff", late)
    if agent is not None:
        sink.emit(rounds, -1, "units_recruited", agent.gate.active_count)
    sink.flush()

    _end_run(out, seed, cfg_hash, watch, sink, {
        "command": "rl", "env": "rps", "agent": agent_kind, "rounds": rounds,
    })
    return {"late_payoff": late, "mean_payoff": float(np.mean(payoffs)),
            "rows": sink.rows, "agent": agent}


def _maze_calibration_obs(env, seed, n=100):
    """Observations from a seeded uniform-random walk on a copy of the maze
    (the real episode stream stays untouched)."""
    walk = MazeEnv(layout=env.layout, step_limit=env.step_limit)
    rng = np.random.default_rng(seed)
    obs = walk.reset()
    samples = [obs]
    while len(samples) < n:
        o, _, done = walk.step(int(rng.integers(4)))
        samples.append(o)
        if done:
            o = walk.reset()
            samples.append(o)
    return np.asarray(samples[:n])


def run_maze(cfg, seed=None, out=None, agent_kind="learned", cfg_text=None):
    """Episodic gridworld navigation; headline number is the success rate
    over the last ``eval_window`` episodes."""
    if agent_kind not in AGENT_KINDS:
        raise ValueError(f"unknown agent kind {agent_kind!r}")
    seed, sink, cfg_hash, watch = _start_run(cfg, seed, out, cfg_text)

    env = MazeEnv(step_limit=cfg["step_limit"])
    episodes = cfg["episodes"]
    ss = np.random.SeedSequence([seed, 3000])
    calib_seed, stub_seed = ss.spawn(2)
    rng = np.random.default_rng(stub_seed)

    agent = None
    if agent_kind == "learned":
        theta = _rl_theta(cfg, _maze_calibration_obs(env, calib_seed))
        horizon = episodes * cfg["step_limit"]
        agent = Agent(_agent_config(cfg, obs_dim=env.obs_dim, n_actions=env.n_actions,
                                    horizon=horizon, seed=seed, theta=theta))
    elif agent_kind == "oracle":
        dist = env.distance_map()

        def oracle_action(obs):
            (idx,) = np.flatnonzero(obs)
            i, j = divmod(int(idx), env.w)
            return min(
                (a for a in range(4)
                 if (i + MOVES[a][0], j + MOVES[a][1]) in dist),
                key=lambda a: dist[(i + MOVES[a][0], j + MOVES[a][1])],
            )

    successes = []
    returns = []
    for ep in range(episodes):
        obs = env.reset()
        r, done = 0.0, False
        total, reached = 0.0, False
        while True:
            if agent_kind == "learned":
                a = agent.cycle(obs, r, done)
            elif agent_kind == "oracle":
                a = oracle_action(obs)
            else:
                a = int(rng.integers(4))
            if done:
                break
            obs, r, done = env.step(a)
            total += r
            reached = reached or r > 0.5
        successes.append(reached)
        returns.append(total)
        sink.emit(ep, 0, "return", total)
        sink.emit(ep, 0, "success", reached)
        if (ep + 1) % cfg["eval_window"] == 0:
            sink.flush()

    window = min(cfg["eval_window"], episodes)
    rate = float(np.mean(successes[-window:]))
    sink.emit(episodes, -1, "success_rate_last", rate)
    if agent is not None:
        sink.emit(episodes, -1, "units_recruited", agent.gate.active_count)
    sink.flush()

    _end_run(out, seed, cfg_hash, watch, sink, {
        "command": "rl", "env": "maze", "agent": agent_kind, "episodes": episodes,
    })
    return {"success_rate": rate, "mean_return": float(np.mean(returns)),
            "rows": sink.rows, "agent": agent}


# ---------------------------------------------------------------------------
# serial recall


def run_recall(cfg, seed=None, out=None, cfg_text=None):
    """Per-position recall accuracy for random lists in the decay buffer."""
    seed, sink, cfg_hash, watch = _start_run(cfg, seed, out, cfg_text)

    d = cfg["recall_d"]
    rho = cfg["recall_rho"]
    n_sym = cfg["recall_lexicon"]
    length = cfg["recall_list_len"]
    n_lists = cfg["recall_lists"]
    if length > n_sym:
        raise ValueError(f"list length {length} exceeds lexicon size {n_sym}")

    names = [f"s{i}" for i in range(n_sym)]
    lex = hrr.SymbolLexicon(d, seed=seed, names=names)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4000]))

    hits = np.zeros(length)
    cosines = np.zeros(length)
    for _ in range(n_lists):
        picked = [names[k] for k in rng.permutation(n_sym)[:length]]
        buf = memory.WorkingMemoryBuffer.empty(d, rho)
        for name in picked:
            buf = memory.wm_encode(buf, lex[name])
        for p in range(1, length + 1):
            got, _, probe = memory.wm_recall(buf, p, lex)
            hits[p - 1] += got == picked[p - 1]
            cosines[p - 1] += hrr.cosine(probe, lex[picked[p - 1]])

    acc = hits / n_lists
    mean_cos = cosines / n_lists
    for p in range(1, length + 1):
        sink.emit(n_lists, 0, f"recall_acc_pos{p}", float(acc[p - 1]))
        sink.emit(n_lists, 0, f"recall_cos_pos{p}", float(mean_cos[p - 1]))
    sink.flush()

    _end_run(out, seed, cfg_hash, watch, sink, {
        "command": "recall", "lists": n_lists,
    })
    return {"accuracy": acc, "mean_cosine": mean_cos, "rows": sink.rows}
