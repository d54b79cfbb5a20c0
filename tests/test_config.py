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


@pytest.mark.parametrize("key, good, bad", [
    ("readout", "supervised", "supervisd"),
    ("env", "maze", "mazes"),
    ("mask_mode", "blocks", "block"),
    ("gate_metric", "cosine", "cos"),
])
def test_enum_keys_fail_at_parse_time(key, good, bad):
    assert parse_config(f"{key} = {good}\n") == {key: good}
    with pytest.raises(ValueError, match=rf"line 2.*'{key}'.*{bad}"):
        parse_config(f"seed = 1\n{key} = {bad}\n")
