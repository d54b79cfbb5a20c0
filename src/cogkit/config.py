"""Flat key=value run configuration.

Files are UTF-8 text, one ``key = value`` per line, ``#`` starts a comment.
Every key must be in the schema; unknown keys are errors rather than silent
typos.  ``resolve()`` fills unset keys with defaults so a run sees one
complete, typed dictionary.
"""

from __future__ import annotations

import hashlib


def _bool(text):
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _ints(text):
    text = text.strip()
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


def _floats(text):
    text = text.strip()
    if not text:
        return ()
    return tuple(float(p) for p in text.split(","))


def _choice(*options):
    """Caster for a key that takes one of a fixed set of words."""

    def cast(text):
        text = text.strip()
        if text not in options:
            raise ValueError(f"{text!r} is not one of {', '.join(options)}")
        return text

    return cast


def _theta(text):
    text = text.strip()
    if text == "auto":
        return "auto"
    return float(text)


# key -> (caster, default); defaults are the values used when a key is absent.
SCHEMA = {
    # experiment
    "seed": (int, 0),
    "readout": (_choice("rl", "supervised"), "rl"),
    "epochs": (int, 1),
    "n_tasks": (int, 2),
    "per_task_train": (int, 500),
    "per_task_test": (int, 500),
    "train_images": (str, ""),
    "train_labels": (str, ""),
    "synthetic_per_class": (int, 600),
    "env": (_choice("rps", "maze"), "rps"),
    "rounds": (int, 2000),
    "episodes": (int, 500),
    "step_limit": (int, 50),
    "rps_policy": (_floats, (0.8, 0.1, 0.1)),
    "eval_window": (int, 100),
    # recall protocol
    "recall_d": (int, 2048),
    "recall_rho": (float, 0.9),
    "recall_lexicon": (int, 16),
    "recall_list_len": (int, 7),
    "recall_lists": (int, 100),
    # holographic space
    "d": (int, 1024),
    # sensory cortex
    "sensory_hidden": (_ints, (360, 360)),
    "sensory_beta": (float, 0.05),
    "sensory_gamma": (float, 0.001),
    "sensory_K": (int, 50),
    "sensory_sigma": (float, 0.05),
    "sensory_eta_W": (float, 0.01),
    "sensory_eta_E": (float, 0.01),
    "sensory_clip": (_bool, True),
    # motor cortex
    "motor_hidden": (_ints, ()),
    "motor_state_dim": (int, 64),
    "motor_beta": (float, 0.05),
    "motor_gamma": (float, 0.001),
    "motor_K": (int, 20),
    "motor_sigma": (float, 0.05),
    "motor_eta_W": (float, 0.02),
    "motor_eta_E": (float, 0.02),
    "motor_clip": (_bool, False),
    "gamma_d": (float, 0.95),
    "alpha_e": (float, 0.0),
    "r_clip": (float, 1.0),
    "replay_capacity": (int, 0),
    "replay_samples": (int, 0),
    # task gate
    "theta": (_theta, "auto"),
    "theta_factor": (float, 3.0),
    "eta_c": (float, 0.05),
    "M_max": (int, 8),
    "mask_p": (float, 0.5),
    "mask_mode": (_choice("random", "blocks"), "random"),
    "gate_metric": (_choice("euclid", "cosine"), "euclid"),
    "context_window": (int, 32),
    "route_wm_encode": (_bool, True),
    "route_dm_store": (_bool, True),
    "route_dm_retrieve": (_bool, True),
    # memory
    "wm_rho": (float, 0.9),
    "dm_tau": (float, 0.1),
    "dm_k": (int, 3),
    # exploration schedule
    "eps_start": (float, 1.0),
    "eps_end": (float, 0.05),
    "eps_decay_frac": (float, 0.5),
}


def parse_config(text):
    """Parse config text into a typed dict of explicitly set keys."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        caster, _ = SCHEMA[key]
        try:
            out[key] = caster(value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}: {exc}")
    return out


def resolve(overrides=None):
    """Full config dict: schema defaults updated with explicit settings."""
    cfg = {key: default for key, (_, default) in SCHEMA.items()}
    for key, value in (overrides or {}).items():
        if key not in SCHEMA:
            raise ValueError(f"unknown config key {key!r}")
        cfg[key] = value
    return cfg


def load_config(path):
    """Read a config file; returns (resolved dict, raw text)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return resolve(parse_config(text)), text


def config_hash(text):
    """Stable fingerprint of the raw config text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
