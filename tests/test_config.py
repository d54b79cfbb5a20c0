"""Run-configuration parsing."""

import hashlib

import pytest

from cogkit.config import SCHEMA, config_hash, load_config, parse_config, resolve


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
# reject a fraction
RANGE_CASES = [
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
]


@pytest.mark.parametrize("key, good, bad", ENUM_CASES + RANGE_CASES)
def test_enum_keys_fail_at_parse_time(key, good, bad):
    assert parse_config(f"{key} = {good}\n") == {key: good}
    with pytest.raises(ValueError, match=rf"line 2.*'{key}'.*{bad}"):
        parse_config(f"seed = 1\n{key} = {bad}\n")


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
