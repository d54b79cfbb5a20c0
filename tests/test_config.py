"""Run-configuration parsing."""

import hashlib
import math
import numbers
import re

import numpy as np
import pytest

from cogkit import config, hrr
from cogkit.agent import Agent, AgentConfig
from cogkit.config import (AGENT_SCHEMA, SCHEMA, check_vector, config_hash, load_config,
                           parse_config, resolve)
from cogkit.envs import MazeEnv, RpsEnv
from cogkit.gate import CompetitiveGate, ContextTracker
from cogkit.hrr import SymbolLexicon
from cogkit.memory import (DeclarativeMemory, WorkingMemoryBuffer, dm_retrieve, dm_store,
                           wm_encode)
from cogkit.motor import MotorCircuit, Transition
from cogkit.ngc import init_circuit, settle


def test_defaults():
    cfg = resolve()
    assert cfg["d"] == 1024
    assert cfg["sensory_hidden"] == (360, 360)
    assert cfg["theta"] == "auto"
    assert cfg["mask_p"] == 0.5
    assert set(cfg) == set(SCHEMA)


def test_parse_basic_types():
    text = """
# an experiment
seed = 7
d = 256            # inline comment
sensory_hidden = 128,64
sensory_clip = false
theta = 2.5
rps_policy = 0.5,0.25,0.25
"""
    got = parse_config(text)
    assert got == {
        "seed": 7,
        "d": 256,
        "sensory_hidden": (128, 64),
        "sensory_clip": False,
        "theta": 2.5,
        "rps_policy": (0.5, 0.25, 0.25),
    }


def test_theta_auto_keyword():
    assert parse_config("theta = auto")["theta"] == "auto"


def test_unknown_key_reports_line():
    with pytest.raises(ValueError, match=r"line 2.*sensorry_K"):
        parse_config("seed = 1\nsensorry_K = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ValueError, match=r"line 3.*duplicate.*'seed'"):
        parse_config("seed = 1\nd = 8\nseed = 2\n")


def test_bad_value_reports_key_and_line():
    with pytest.raises(ValueError, match=r"line 1.*'d'"):
        parse_config("d = lots\n")


def test_missing_equals_sign():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("just some words\n")


def test_resolve_merges_overrides():
    cfg = resolve({"d": 64, "epochs": 3})
    assert cfg["d"] == 64
    assert cfg["epochs"] == 3
    assert cfg["sensory_K"] == 50  # untouched default


def test_resolve_rejects_unknown():
    with pytest.raises(ValueError):
        resolve({"dd": 64})


def test_load_config_returns_text_and_dict(tmp_path):
    path = tmp_path / "run.cfg"
    text = "seed = 3\nepochs = 2\n"
    path.write_text(text)
    cfg, raw = load_config(path)
    assert raw == text
    assert cfg["seed"] == 3
    assert cfg["epochs"] == 2
    assert cfg["d"] == 1024


def test_config_hash_is_sha256_of_text():
    text = "seed = 3\n"
    assert config_hash(text) == hashlib.sha256(text.encode()).hexdigest()
    assert config_hash(text) != config_hash(text + " ")


ENUM_CASES = [
    ("readout", "supervised", "supervisd"),
    ("env", "maze", "mazes"),
    ("mask_mode", "blocks", "block"),
    ("gate_metric", "cosine", "cos"),
]

# numeric keys bounded to an interval: each closed end is a good value, each
# open end and a value past a closed end a bad one; whole-number keys also
# reject a fraction, and every numeric key a bool.  The switches' bad values
# are words that are not booleans.
RANGE_CASES = [
    ("seed", 0, -1),
    ("seed", 7, 1.5),
    ("mask_p", 1.0, 0.0),
    ("mask_p", 0.25, 1.5),
    ("gamma_d", 0.0, 1.0),
    ("gamma_d", 0.95, -0.5),
    ("eps_start", 0.0, -0.1),
    ("eps_start", 1.0, 1.01),
    ("eps_end", 0.0, -0.1),
    ("eps_end", 1.0, 1.01),
    ("eps_end", 0.5, float("nan")),
    ("d", 1, 0),
    ("d", 1024, 2.5),
    ("recall_d", 1, -4),
    ("recall_lexicon", 1, 0),
    ("recall_list_len", 1, 0),
    ("recall_lists", 1, 0),
    ("motor_state_dim", 1, 0),
    ("M_max", 1, 0),
    ("context_window", 1, 0),
    ("sensory_K", 1, 0),
    ("motor_K", 1, -1),
    ("eta_c", 0.0, -0.01),
    ("eta_c", 1.0, 1.5),
    ("dm_tau", 1e-09, 0.0),
    ("wm_rho", 1.0, 0.0),
    ("wm_rho", 0.5, 1.01),
    ("recall_rho", 1.0, 0.0),
    ("sensory_eta_W", 0.0, -0.01),
    ("sensory_eta_E", 0.0, -0.01),
    ("motor_eta_W", 0.0, -0.01),
    ("motor_eta_E", 0.0, float("nan")),
    ("sensory_sigma", 0.0, -0.05),
    ("sensory_sigma", 0.05, float("nan")),
    ("motor_sigma", 0.0, float("nan")),
    ("motor_sigma", 0.05, -1.0),
    ("theta_factor", 2.25, 0.0),
    ("dm_k", 1, 0),
    ("dm_k", 3, -1),
    ("epochs", 1, 0),
    ("n_tasks", 1, 0),
    ("per_task_train", 1, 0),
    ("per_task_test", 1, 0),
    ("synthetic_per_class", 1, 0),
    ("rounds", 1, 0),
    ("episodes", 1, 0),
    ("step_limit", 1, 0),
    ("eval_window", 1, 0),
    ("sensory_beta", 0.0, float("nan")),
    ("sensory_gamma", 0.0, -0.001),
    ("motor_beta", 0.0, -0.05),
    ("motor_gamma", 0.0, float("nan")),
    ("alpha_e", 0.0, -0.1),
    ("r_clip", 1e-09, 0.0),
    ("r_clip", 2.0, float("nan")),
    ("replay_capacity", 0, -3),
    ("replay_capacity", 64, 2.5),
    ("replay_samples", 0, -1),
    ("eps_decay_frac", 0.0, -0.5),
    ("eps_decay_frac", 0.3, float("nan")),
    ("theta", 0.0, -1.0),
    ("theta", "auto", float("nan")),
    ("d", 1, True),
    ("replay_samples", 0, False),
    ("mask_p", 1.0, True),
    ("sensory_K", 30, True),
    ("sensory_clip", True, "maybe"),
    ("motor_clip", False, "maybe"),
    ("route_wm_encode", True, "sometimes"),
    ("route_dm_store", False, "2"),
    ("route_dm_retrieve", True, "y"),
]

BOOL_KEYS = ["sensory_clip", "motor_clip", "route_wm_encode", "route_dm_store",
             "route_dm_retrieve"]


@pytest.mark.parametrize("key, good, bad", ENUM_CASES + RANGE_CASES)
def test_enum_keys_fail_at_parse_time(key, good, bad):
    assert parse_config(f"{key} = {good}\n") == {key: good}
    with pytest.raises(ValueError, match=rf"line 2.*'{key}'.*{bad}"):
        parse_config(f"# the second line\n{key} = {bad}\n")


@pytest.mark.parametrize("key, good, bad", ENUM_CASES + RANGE_CASES)
def test_enum_keys_fail_in_code_overrides(key, good, bad):
    assert resolve({key: good})[key] == good
    for wrong in (bad, f" {good}", None):
        with pytest.raises(ValueError, match=rf"'{key}'"):
            resolve({"seed": 1, key: wrong})


@pytest.mark.parametrize("key", ["sensory_hidden", "motor_hidden"])
def test_layer_sizes_fail_at_parse_time_and_in_code(key):
    assert parse_config(f"{key} = 64,1\n") == {key: (64, 1)}
    with pytest.raises(ValueError, match=rf"line 2.*'{key}'.*0"):
        parse_config(f"seed = 1\n{key} = 64,0\n")
    assert resolve({key: (8,)})[key] == (8,)
    for wrong in ((64, 0), [-1], 64, (2.5,), None):
        with pytest.raises(ValueError, match=rf"'{key}'"):
            resolve({"seed": 1, key: wrong})


@pytest.mark.parametrize("bad", ["0.5,0.6,0.1", "1,0", "-0.2,0.6,0.6", "nan,0.5,0.5",
                                 "0.25,0.25,0.25,0.25"])
def test_rps_policy_is_checked_at_parse_time_and_in_code(bad):
    # three non-negative numbers summing to 1, as the opponent needs
    assert parse_config("rps_policy = 1,0,0\n") == {"rps_policy": (1.0, 0.0, 0.0)}
    with pytest.raises(ValueError, match=r"line 2.*'rps_policy'"):
        parse_config(f"seed = 1\nrps_policy = {bad}\n")
    assert resolve({"rps_policy": [0.2, 0.3, 0.5]})["rps_policy"] == (0.2, 0.3, 0.5)
    for wrong in (tuple(float(p) for p in bad.split(",")), 0.5, "0.8,0.1,0.1", None):
        with pytest.raises(ValueError, match="'rps_policy'"):
            resolve({"rps_policy": wrong})


@pytest.mark.parametrize("key", BOOL_KEYS)
def test_bool_keys_take_only_bools_from_code(key):
    # a file's words are parsed, but in code a non-empty string is true
    assert parse_config(f"{key} = no\n") == {key: False}
    assert resolve({key: False})[key] is False
    for wrong in ("no", "false", 0, 1, 1.0, None):
        with pytest.raises(ValueError, match=rf"'{key}'.*not true or false"):
            resolve({key: wrong})
        with pytest.raises(ValueError, match=rf"'{key}'"):
            AgentConfig(obs_dim=8, n_actions=3, theta=1.0, **{key: wrong})


def test_every_numeric_key_has_a_check():
    # a number nothing checks reaches the run and fails there, if at all,
    # under another name
    numeric = {key for key, (_, default) in SCHEMA.items()
               if isinstance(default, numbers.Number) and not isinstance(default, bool)}
    assert {key for key in numeric if not hasattr(SCHEMA[key][0], "check")} == set()


def test_agent_config_defaults_are_the_schema_defaults():
    config = AgentConfig(obs_dim=8, n_actions=3, theta=1.0)
    cfg = resolve({"theta": 1.0})
    assert {key: getattr(config, key) for key in AGENT_SCHEMA} == {
        key: cfg[key] for key in AGENT_SCHEMA}
    assert (config.obs_dim, config.n_actions, config.horizon) == (8, 3, 10_000)


@pytest.mark.parametrize("key, good, bad",
                         [case for case in ENUM_CASES + RANGE_CASES if case[0] in AGENT_SCHEMA])
def test_agent_config_checks_each_key(key, good, bad):
    base = dict(obs_dim=8, n_actions=3, theta=1.0)
    if good == "auto":  # a schema value the runner replaces before it builds an agent
        with pytest.raises(ValueError, match="'auto' is calibrated by the runner"):
            AgentConfig(**{**base, key: good})
    else:
        assert getattr(AgentConfig(**{**base, key: good}), key) == good
    with pytest.raises(ValueError, match=rf"'{key}'"):
        AgentConfig(**{**base, key: bad})


@pytest.mark.parametrize("field, bad", [
    ("obs_dim", 0), ("obs_dim", 8.0), ("n_actions", 1), ("n_actions", 2.5),
    ("n_actions", True), ("horizon", -5), ("horizon", 0), ("horizon", "x"),
])
def test_agent_config_checks_the_fields_no_key_sets(field, bad):
    base = dict(obs_dim=8, n_actions=3, theta=1.0)
    with pytest.raises(ValueError, match=rf"^bad value for '{field}': "):
        AgentConfig(**{**base, field: bad})
    assert getattr(AgentConfig(**{**base, field: 2}), field) == 2


def _retrieve(**kw):
    lex = SymbolLexicon(16, names=("a", "b"))
    dm = dm_store(DeclarativeMemory(lexicon=lex), "a", ["b"])
    return dm_retrieve(dm, lex["b"], **{"k": 1, **kw})


# a component argument that a config key sets, with a bad value for it:
# the component checks it with that key's check and names the argument
NAN = float("nan")
COMPONENT_CASES = [
    ("theta", lambda: CompetitiveGate(4, {}, theta=NAN)),
    ("theta", lambda: CompetitiveGate(4, {}, theta="auto")),
    ("eta_c", lambda: CompetitiveGate(4, {}, theta=1.0, eta_c=1.5)),
    ("M_max", lambda: CompetitiveGate(4, {}, theta=1.0, M_max=2.5)),
    ("M_max", lambda: CompetitiveGate(4, {}, theta=1.0, M_max=True)),
    ("p", lambda: CompetitiveGate(4, {}, theta=1.0, p=0.0)),
    ("mask_mode", lambda: CompetitiveGate(4, {}, theta=1.0, mask_mode="block")),
    ("metric", lambda: CompetitiveGate(4, {}, theta=1.0, metric="manhattan")),
    ("window", lambda: ContextTracker(4, window=2.5)),
    ("dim", lambda: ContextTracker(0)),
    ("gamma_d", lambda: MotorCircuit(2, 4, gamma_d=1.0)),
    ("alpha_e", lambda: MotorCircuit(2, 4, alpha_e=NAN)),
    ("r_clip", lambda: MotorCircuit(2, 4, r_clip=NAN)),
    ("eta_W", lambda: MotorCircuit(2, 4, eta_W=-1)),
    ("eta_E", lambda: MotorCircuit(2, 4, eta_E=NAN)),
    ("replay_capacity", lambda: MotorCircuit(2, 4, replay_capacity=-3)),
    ("replay_samples", lambda: MotorCircuit(2, 4, replay_samples=2.5)),
    ("clip_weights", lambda: MotorCircuit(2, 4, clip_weights="no")),
    ("state_dim", lambda: MotorCircuit(2, 2.5)),
    ("n_actions", lambda: MotorCircuit(2.5, 4)),
    ("K", lambda: MotorCircuit(2, 4, K=0)),
    ("K", lambda: init_circuit([4, 4], seed=0, K=2.5)),
    ("K", lambda: init_circuit([4, 4], seed=0, K=True)),
    ("beta", lambda: init_circuit([4, 4], seed=0, beta=NAN)),
    ("d", lambda: WorkingMemoryBuffer.empty(2.5)),
    ("rho", lambda: WorkingMemoryBuffer.empty(8, rho=0.0)),
    ("k", lambda: _retrieve(k=0)),
    ("tau", lambda: _retrieve(tau=NAN)),
    ("step_limit", lambda: MazeEnv(step_limit=2.5)),
    ("policy", lambda: RpsEnv(policy=(NAN, 0.5, 0.5))),
    ("policy", lambda: RpsEnv(policy=np.array([0.5, 0.6, -0.1]))),
    ("d", lambda: SymbolLexicon(2.5)),
]


@pytest.mark.parametrize("arg, build", COMPONENT_CASES)
def test_components_check_arguments_with_the_schema_checks(arg, build):
    with pytest.raises(ValueError, match=rf"^bad value for '{arg}': "):
        build()



@pytest.mark.parametrize("value", [
    3, 0, -2, 2.5, 0.0, 1.0, float("nan"), float("inf"), True, False,
    np.int8(3), np.int64(-2), np.uint16(7), np.float16(0.5), np.float32(2.5),
    np.float64(0.0), np.float64(np.nan), np.bool_(True), np.longdouble(1.5), "3", None,
])
@pytest.mark.parametrize("interval", [
    dict(lo=0, hi=math.inf, open_hi=True, parse=int),
    dict(lo=1, hi=math.inf, open_hi=True, parse=int),
    dict(lo=0, hi=1, open_lo=True),
    dict(lo=0, hi=math.inf, open_lo=True, open_hi=True),
], ids=["whole", "count", "decay", "positive"])
def test_the_type_fast_path_decides_as_the_abstract_classes_do(interval, value, monkeypatch):
    fast = config._within(**interval).check
    monkeypatch.setattr(config, "_INTEGRAL_TYPES", frozenset())
    monkeypatch.setattr(config, "_REAL_TYPES", frozenset())
    slow = config._within(**interval).check  # numbers.Integral / numbers.Real alone

    def verdict(check):
        try:
            return check(value) is value
        except ValueError:
            return False

    assert verdict(fast) == verdict(slow)


def test_check_vector_returns_the_vector_as_float64():
    v = np.arange(3.0)
    assert check_vector("v", v, 3) is v  # a float64 vector is not copied
    got = check_vector("v", [1, 2])
    assert got.dtype == np.float64 and np.array_equal(got, [1.0, 2.0])


def _gate_with_a_unit():
    gate = CompetitiveGate(4, {}, theta=1.0)
    gate.select_or_recruit(np.ones(4))
    return gate


def _small_agent():
    return Agent(AgentConfig(obs_dim=8, n_actions=3, d=16, sensory_hidden=(4,),
                             motor_state_dim=4, theta=1.0))


# every entry point that takes a 1-d vector: (case id, argument name, the
# length it needs or None for any, a call that passes ``v`` as it)
ONES = np.ones(4)
VECTOR_CASES = [
    ("bind-a", "a", None, lambda v: hrr.bind(v, ONES)),
    ("bind-b", "b", 4, lambda v: hrr.bind(ONES, v)),
    ("involution", "a", None, hrr.involution),
    ("superpose-first", "vs[0]", None, lambda v: hrr.superpose([v, ONES])),
    ("superpose-second", "vs[1]", 4, lambda v: hrr.superpose([ONES, v])),
    ("permute", "a", None, lambda v: hrr.permute(v, 1)),
    ("cosine-a", "a", None, lambda v: hrr.cosine(v, ONES)),
    ("cosine-b", "b", 4, lambda v: hrr.cosine(ONES, v)),
    ("cleanup", "probe", 8, lambda v: hrr.cleanup(v, SymbolLexicon(8, names=("x", "y")))),
    ("gate-select", "context", 4,
     lambda v: CompetitiveGate(4, {}, theta=1.0).select_or_recruit(v)),
    ("gate-match", "context", 4, lambda v: _gate_with_a_unit().match(v)),
    ("gate-update", "context", 4, lambda v: _gate_with_a_unit().update_winner(0, v)),
    ("tracker", "obs", 4, lambda v: ContextTracker(4).update(v)),
    ("regress-s", "s", 4, lambda v: MotorCircuit(2, 4).regress(v, np.zeros(2))),
    ("regress-targets", "targets", 2, lambda v: MotorCircuit(2, 4).regress(ONES, v)),
    ("learn-s", "t.s", 4, lambda v: MotorCircuit(2, 4).learn(Transition(v, 0, 0.0, ONES, True))),
    ("learn-s_next", "t.s_next", 4,
     lambda v: MotorCircuit(2, 4).learn(Transition(ONES, 0, 0.0, v, True))),
    ("wm_encode", "item", 16, lambda v: wm_encode(WorkingMemoryBuffer.empty(16), v)),
    ("perceive", "obs", 8, lambda v: _small_agent().perceive(v)),
    ("rps", "policy", 3, lambda v: RpsEnv(policy=v)),
    ("mask", "mask[1]", 6,
     lambda v: settle(init_circuit([4, 6], seed=0), clamps={0: ONES}, mask={1: v})),
]
BAD_VECTORS = {
    "short": lambda n: np.ones(n - 1),
    "long": lambda n: np.ones(n + 1),
    "2d": lambda n: np.ones((2, n or 4)),
    "empty": lambda n: np.ones(0),
}


# cleanup also takes a (B, d) batch of probes, so a 2-d probe is not bad
# there; tests/test_hrr.py checks the batch's own shape rule
@pytest.mark.parametrize("arg, n, call, bad", [
    pytest.param(arg, n, call, bad, id=f"{case}-{kind}")
    for case, arg, n, call in VECTOR_CASES
    for kind, bad in BAD_VECTORS.items()
    if (n or kind not in ("short", "long")) and (case, kind) != ("cleanup", "2d")
])
def test_vector_arguments_follow_one_rule(arg, n, call, bad):
    v = bad(n)
    expected = "(n,) with n >= 1" if n is None else f"({n},)"
    message = f"bad shape for {arg!r}: {v.shape}, expected {expected}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(v)
