"""Experiment runners: continual split-digit, rock-paper-scissors, maze,
and serial recall.

Every runner takes a resolved config dict, a seed, and an optional output
directory; it returns a summary dict and (when ``out`` is given) writes
``metrics.csv`` plus ``metadata.txt``.  All randomness flows from the seed,
so a rerun with the same seed and config reproduces the metrics file byte
for byte.  Wall-clock time goes only into the metadata file.

Config errors (an unknown agent kind, more tasks than digit pairs, a list
longer than the lexicon) raise before any file is written.  A run that
raises part way leaves a closed ``metrics.csv`` holding a valid prefix of
its rows and no ``metadata.txt``; the metadata file marks a finished run.

``agent_kind`` selects the learned agent or one of two stubs: ``random``
acts uniformly and never learns, ``oracle`` plays each suite's known best
strategy.  The stubs share the environment stepping code, so they bound
what the learned agent's numbers can mean.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from . import hrr, memory
from .agent import Agent, AgentConfig
from .config import config_hash
from .data import DEFAULT_PAIRS, load_idx, make_split_mnist, make_synthetic_digits
from .envs import MazeEnv, MOVES, RpsEnv
from .gate import ContextTracker
from .metrics import MetricsWriter, write_metadata

AGENT_KINDS = ("learned", "random", "oracle")


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


@contextmanager
def _recorded(cfg, seed, out, cfg_text, meta):
    """One run's outputs: yields ``(seed, sink)``, the run seed (the
    config's when ``seed`` is None) and a writer of ``out/metrics.csv``
    that is closed however the block exits.  ``metadata.txt`` is written,
    with ``meta`` as it stands then, only when the block finishes."""
    seed = int(cfg["seed"] if seed is None else seed)
    t0 = time.monotonic()
    if out:
        os.makedirs(out, exist_ok=True)
    with MetricsWriter(os.path.join(out, "metrics.csv") if out else None) as sink:
        yield seed, sink
    if out:
        text = cfg_text if cfg_text is not None else canonical_config_text(cfg)
        write_metadata(os.path.join(out, "metadata.txt"), seed, config_hash(text),
                       time.monotonic() - t0, meta)


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


def _learned_agent(cfg, calib_obs, **overrides):
    """The learned agent, configured by the resolved config's keys of the
    same name plus ``overrides`` (what the runner works out itself or
    forces); an "auto" theta is calibrated on ``calib_obs``."""
    theta = cfg["theta"]
    if theta == "auto":
        theta = calibrate_theta(calib_obs, cfg["context_window"],
                                cfg["theta_factor"], cfg["eta_c"])
    names = {f.name for f in fields(AgentConfig)}
    shared = {k: v for k, v in cfg.items() if k in names}
    return Agent(AgentConfig(**{**shared, "theta": theta, **overrides}))


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


def _train(agent, task, epochs, rng, supervised):
    """``epochs`` shuffled passes over a task's training set: a supervised
    step per sample, or a cycle rewarded +1/-1 for the right/wrong label."""
    r = 0.0
    for _ in range(epochs):
        for i in rng.permutation(len(task.train_x)):
            x, y = task.train_x[i], int(task.train_y[i])
            if supervised:
                targets = np.full(2, -1.0)
                targets[y] = 1.0
                agent.supervised_step(x, targets)
            else:
                a = agent.cycle(x, r, done=False)
                r = 1.0 if a == y else -1.0
    if not supervised:
        agent.finish(r)


def run_continual(cfg, seed=None, out=None, ungated=False, agent_kind="learned",
                  cfg_text=None):
    """Sequential binary digit tasks; reports average final accuracy (ACC)
    and forgetting (mean best-minus-final over tasks)."""
    if agent_kind not in AGENT_KINDS:
        raise ValueError(f"unknown agent kind {agent_kind!r}")
    n_tasks = cfg["n_tasks"]
    if n_tasks > len(DEFAULT_PAIRS):
        raise ValueError(f"n_tasks {n_tasks} > {len(DEFAULT_PAIRS)} available pairs")
    meta = {"command": "continual", "agent": agent_kind, "ungated": int(ungated)}
    with _recorded(cfg, seed, out, cfg_text, meta) as (seed, sink):
        images, labels = load_dataset(cfg)
        stream = make_split_mnist(images, labels, DEFAULT_PAIRS[:n_tasks],
                                  cfg["per_task_train"], cfg["per_task_test"], seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1000]))

        # answers(task): the predicted label of each of the task's test samples
        agent = None
        if agent_kind == "learned":
            # classification is a one-shot bandit: no bootstrapping
            agent = _learned_agent(
                cfg, stream[0].train_x, obs_dim=stream[0].train_x.shape[1], n_actions=2,
                horizon=cfg["epochs"] * n_tasks * cfg["per_task_train"], seed=seed,
                mask_p=1.0 if ungated else cfg["mask_p"], gamma_d=0.0)

            def answers(task):
                window = min(cfg["context_window"], len(task.test_x))
                context = task.test_x[:window].mean(axis=0)
                return [agent.probe(x, context=context)[0] for x in task.test_x]

        elif agent_kind == "oracle":
            answers = lambda task: task.test_y
        else:
            answers = lambda task: [int(rng.integers(2)) for _ in task.test_x]

        step = 0
        best = [0.0] * n_tasks
        for t, task in enumerate(stream):
            if agent is not None:
                _train(agent, task, cfg["epochs"], rng, cfg["readout"] == "supervised")
            step += cfg["epochs"] * len(task.train_x)
            final = []
            for j, seen in enumerate(stream[: t + 1]):
                correct = sum(1 for a, y in zip(answers(seen), seen.test_y) if a == y)
                final.append(correct / len(seen.test_y))
                best[j] = max(best[j], final[j])
                sink.write(step, j, "accuracy", final[j])
            sink.flush()

        acc_mean = float(np.mean(final))
        forgetting = float(np.mean([b - f for b, f in zip(best, final)]))
        sink.write(step, -1, "ACC", acc_mean)
        sink.write(step, -1, "forgetting", forgetting)
        if agent is not None:
            sink.write(step, -1, "units_recruited", agent.gate.active_count)
        meta["steps"] = step
        return {"ACC": acc_mean, "forgetting": forgetting, "final": final,
                "rows": sink.rows, "agent": agent}


# ---------------------------------------------------------------------------
# reinforcement-learning suites


def run_rps(cfg, seed=None, out=None, agent_kind="learned", cfg_text=None):
    """Iterated rock-paper-scissors against a stationary mixed opponent.

    The observation is a one-hot of the opponent's previous move (uniform on
    round zero); the headline number is the mean payoff over a late window
    where adaptation should have converged (rounds 1000..2000 when
    available, otherwise the second half)."""
    if agent_kind not in AGENT_KINDS:
        raise ValueError(f"unknown agent kind {agent_kind!r}")
    rounds = cfg["rounds"]
    meta = {"command": "rl", "env": "rps", "agent": agent_kind, "rounds": rounds}
    with _recorded(cfg, seed, out, cfg_text, meta) as (seed, sink):
        policy = np.asarray(cfg["rps_policy"], dtype=float)
        env_seed, calib_seed, stub_seed = np.random.SeedSequence([seed, 2000]).spawn(3)
        env = RpsEnv(policy=policy, seed=env_seed)

        # act(obs, r, done) -> action
        agent = None
        if agent_kind == "learned":
            calib = np.eye(3)[np.random.default_rng(calib_seed).choice(
                3, size=100, p=policy)]
            agent = _learned_agent(cfg, calib, obs_dim=3, n_actions=3, horizon=rounds,
                                   seed=seed)
            act = agent.cycle
        elif agent_kind == "oracle":
            # expected payoff of action a: P(beats) - P(loses)
            expect = [policy[(a - 1) % 3] - policy[(a + 1) % 3] for a in range(3)]
            best_response = int(np.argmax(expect))
            act = lambda obs, r, done: best_response
        else:
            rng = np.random.default_rng(stub_seed)
            act = lambda obs, r, done: int(rng.integers(3))

        payoffs = []
        obs = np.full(3, 1.0 / 3.0)
        r = 0.0
        window = cfg["eval_window"]
        for t in range(rounds):
            r, opp = env.step(act(obs, r, False))
            payoffs.append(r)
            obs = np.zeros(3)
            obs[opp] = 1.0
            if (t + 1) % window == 0:
                sink.write(t + 1, 0, "mean_payoff", float(np.mean(payoffs[-window:])))
                sink.flush()
        if agent is not None:
            agent.finish(r)

        lo = 1000 if rounds >= 2000 else rounds // 2
        hi = min(2000, rounds)
        late = float(np.mean(payoffs[lo:hi]))
        sink.write(rounds, -1, "late_payoff", late)
        if agent is not None:
            sink.write(rounds, -1, "units_recruited", agent.gate.active_count)
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
    episodes = cfg["episodes"]
    meta = {"command": "rl", "env": "maze", "agent": agent_kind, "episodes": episodes}
    with _recorded(cfg, seed, out, cfg_text, meta) as (seed, sink):
        env = MazeEnv(step_limit=cfg["step_limit"])
        calib_seed, stub_seed = np.random.SeedSequence([seed, 3000]).spawn(2)

        # act(obs, r, done) -> action
        agent = None
        if agent_kind == "learned":
            agent = _learned_agent(
                cfg, _maze_calibration_obs(env, calib_seed), obs_dim=env.obs_dim,
                n_actions=env.n_actions, horizon=episodes * cfg["step_limit"], seed=seed)
            act = agent.cycle
        elif agent_kind == "oracle":
            dist = env.distance_map()

            def act(obs, r, done):
                # step to the neighbour nearest the goal
                (idx,) = np.flatnonzero(obs)
                i, j = divmod(int(idx), env.w)
                return min(
                    (a for a in range(4)
                     if (i + MOVES[a][0], j + MOVES[a][1]) in dist),
                    key=lambda a: dist[(i + MOVES[a][0], j + MOVES[a][1])],
                )

        else:
            rng = np.random.default_rng(stub_seed)
            act = lambda obs, r, done: int(rng.integers(4))

        successes = []
        returns = []
        for ep in range(episodes):
            obs = env.reset()
            r, done = 0.0, False
            total, reached = 0.0, False
            while True:
                a = act(obs, r, done)
                if done:
                    break
                obs, r, done = env.step(a)
                total += r
                reached = reached or r > 0.5
            successes.append(reached)
            returns.append(total)
            sink.write(ep, 0, "return", total)
            sink.write(ep, 0, "success", reached)
            if (ep + 1) % cfg["eval_window"] == 0:
                sink.flush()

        window = min(cfg["eval_window"], episodes)
        rate = float(np.mean(successes[-window:]))
        sink.write(episodes, -1, "success_rate_last", rate)
        if agent is not None:
            sink.write(episodes, -1, "units_recruited", agent.gate.active_count)
        return {"success_rate": rate, "mean_return": float(np.mean(returns)),
                "rows": sink.rows, "agent": agent}


# ---------------------------------------------------------------------------
# serial recall


def run_recall(cfg, seed=None, out=None, cfg_text=None):
    """Per-position recall accuracy for random lists in the decay buffer."""
    d = cfg["recall_d"]
    rho = cfg["recall_rho"]
    n_sym = cfg["recall_lexicon"]
    length = cfg["recall_list_len"]
    n_lists = cfg["recall_lists"]
    if length > n_sym:
        raise ValueError(f"list length {length} exceeds lexicon size {n_sym}")
    meta = {"command": "recall", "lists": n_lists}
    with _recorded(cfg, seed, out, cfg_text, meta) as (seed, sink):
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
            sink.write(n_lists, 0, f"recall_acc_pos{p}", float(acc[p - 1]))
            sink.write(n_lists, 0, f"recall_cos_pos{p}", float(mean_cos[p - 1]))
        return {"accuracy": acc, "mean_cosine": mean_cos, "rows": sink.rows}
