"""Flat key=value run configuration.

Files are UTF-8 text, one ``key = value`` per line, ``#`` starts a comment.
Every key must be in the schema; unknown keys are errors rather than silent
typos.  ``resolve()`` fills unset keys with defaults so a run sees one
complete, typed dictionary.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import operator

import numpy as np


def _parse_bool(text):
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


def _checked(parse, check):
    """Caster that parses a value's text and then checks it; ``resolve()``
    runs the same ``check`` on values set from code."""

    def cast(text):
        return check(parse(text))

    cast.check = check
    return cast


def _choice(*options):
    """Caster for a key that takes one of a fixed set of words."""

    def check(value):
        if value not in options:
            raise ValueError(f"{value!r} is not one of {', '.join(options)}")
        return value

    return _checked(str.strip, check)


# Concrete types that are numbers.Integral (or numbers.Real) and not bool.  A
# check looks a value's type up here first, which costs far less than asking
# the abstract classes; any other type still gets the full test.
_INTEGRAL_TYPES = frozenset({int, np.int8, np.int16, np.int32, np.int64,
                             np.uint8, np.uint16, np.uint32, np.uint64})
_REAL_TYPES = _INTEGRAL_TYPES | {float, np.float16, np.float32, np.float64}


def _within(lo, hi, open_lo=False, open_hi=False, parse=float):
    """Caster for a number in the interval from ``lo`` to ``hi``, each end
    closed unless marked open; with ``parse=int`` the number must be whole."""
    interval = f"{'(' if open_lo else '['}{lo}, {hi}{')' if open_hi else ']'}"
    kind = numbers.Integral if parse is int else numbers.Real
    types = _INTEGRAL_TYPES if parse is int else _REAL_TYPES

    def check(value):
        if not ((type(value) in types
                 or isinstance(value, kind) and not isinstance(value, bool))
                and (lo < value if open_lo else lo <= value)
                and (value < hi if open_hi else value <= hi)):
            raise ValueError(f"{value!r} is not in {interval}")
        return value

    return _checked(parse, check)


def _check_bool(value):
    if not isinstance(value, bool):
        raise ValueError(f"{value!r} is not true or false")
    return value


# a file may say 1/0, true/false, yes/no or on/off; code must give a bool
_bool = _checked(_parse_bool, _check_bool)
_COUNT = _within(1, math.inf, open_hi=True, parse=int)  # sizes, K and counts
_WHOLE = _within(0, math.inf, open_hi=True, parse=int)  # counts that may be 0
_RATE = _within(0, math.inf, open_hi=True)  # rates and other non-negative reals
_POSITIVE = _within(0, math.inf, open_lo=True, open_hi=True)
_DECAY = _within(0, 1, open_lo=True)  # retention factors


def _check_sizes(sizes):
    if not isinstance(sizes, (tuple, list)):
        raise ValueError(f"{sizes!r} is not a list of layer sizes")
    return tuple(int(_COUNT.check(n)) for n in sizes)


_SIZES = _checked(_ints, _check_sizes)


def _check_policy(policy):
    """Three non-negative probabilities summing to 1, as ``RpsEnv`` needs."""
    if not isinstance(policy, (tuple, list)) or len(policy) != 3:
        raise ValueError(f"{policy!r} is not three probabilities")
    policy = tuple(float(_RATE.check(p)) for p in policy)
    if abs(sum(policy) - 1.0) > 1e-9:
        raise ValueError(f"{policy!r} sums to {sum(policy)}, not 1")
    return policy


def _theta(text):
    text = text.strip()
    if text == "auto":
        return "auto"
    return float(text)


# "auto" (calibrated by the runner) or a non-negative number
_THETA = _checked(_theta, lambda value: value if value == "auto" else _RATE.check(value))


# key -> (caster, default); defaults are the values used when a key is absent.
# The agent's keys: ``agent.AgentConfig`` takes its fields, their defaults and
# their checks from this table.
AGENT_SCHEMA = {
    "seed": (_WHOLE, 0),
    # holographic space
    "d": (_COUNT, 1024),
    # sensory cortex
    "sensory_hidden": (_SIZES, (360, 360)),
    "sensory_beta": (_RATE, 0.05),
    "sensory_gamma": (_RATE, 0.001),
    "sensory_K": (_COUNT, 50),
    "sensory_sigma": (_RATE, 0.05),
    "sensory_eta_W": (_RATE, 0.01),
    "sensory_eta_E": (_RATE, 0.01),
    "sensory_clip": (_bool, True),
    # motor cortex
    "motor_hidden": (_SIZES, ()),
    "motor_state_dim": (_COUNT, 64),
    "motor_beta": (_RATE, 0.05),
    "motor_gamma": (_RATE, 0.001),
    "motor_K": (_COUNT, 20),
    "motor_sigma": (_RATE, 0.05),
    "motor_eta_W": (_RATE, 0.02),
    "motor_eta_E": (_RATE, 0.02),
    "motor_clip": (_bool, False),
    "gamma_d": (_within(0, 1, open_hi=True), 0.95),
    "alpha_e": (_RATE, 0.0),
    "r_clip": (_POSITIVE, 1.0),
    "replay_capacity": (_WHOLE, 0),
    "replay_samples": (_WHOLE, 0),
    # task gate
    "theta": (_THETA, "auto"),
    "eta_c": (_within(0, 1), 0.05),
    "M_max": (_COUNT, 8),
    "mask_p": (_within(0, 1, open_lo=True), 0.5),
    "mask_mode": (_choice("random", "blocks"), "random"),
    "gate_metric": (_choice("euclid", "cosine"), "euclid"),
    "context_window": (_COUNT, 32),
    "route_wm_encode": (_bool, True),
    "route_dm_store": (_bool, True),
    "route_dm_retrieve": (_bool, True),
    # memory
    "wm_rho": (_DECAY, 0.9),
    "dm_tau": (_POSITIVE, 0.1),
    "dm_k": (_COUNT, 3),
    # exploration schedule
    "eps_start": (_within(0, 1), 1.0),
    "eps_end": (_within(0, 1), 0.05),
    "eps_decay_frac": (_RATE, 0.5),
}

# The agent's fields that no key sets, as a run takes them from its task and
# its length; ``check`` checks them by name as it checks a key.
AGENT_FIELDS = {
    "obs_dim": _COUNT,
    "n_actions": _within(2, math.inf, open_hi=True, parse=int),
    "horizon": _COUNT,
}

SCHEMA = {
    **AGENT_SCHEMA,
    # experiment
    "readout": (_choice("rl", "supervised"), "rl"),
    "epochs": (_COUNT, 1),
    "n_tasks": (_COUNT, 2),
    "per_task_train": (_COUNT, 500),
    "per_task_test": (_COUNT, 500),
    "train_images": (str, ""),
    "train_labels": (str, ""),
    "synthetic_per_class": (_COUNT, 600),
    "env": (_choice("rps", "maze"), "rps"),
    "rounds": (_COUNT, 2000),
    "episodes": (_COUNT, 500),
    "step_limit": (_COUNT, 50),
    "rps_policy": (_checked(_floats, _check_policy), (0.8, 0.1, 0.1)),
    "eval_window": (_COUNT, 100),
    "theta_factor": (_POSITIVE, 3.0),  # scales the theta the runner calibrates
    # recall protocol
    "recall_d": (_COUNT, 2048),
    "recall_rho": (_DECAY, 0.9),
    "recall_lexicon": (_COUNT, 16),
    "recall_list_len": (_COUNT, 7),
    "recall_lists": (_COUNT, 100),
}


def check(key, value, name=None):
    """``value`` for ``key``, a key or one of ``AGENT_FIELDS``, once its
    caster has checked it (a list of layer sizes comes back as a tuple of
    ints); a bad value raises a ValueError naming ``name``, the key by
    default.  Components check the arguments that a key sets with this,
    under the argument's own name."""
    caster = SCHEMA[key][0] if key in SCHEMA else AGENT_FIELDS[key]
    if not hasattr(caster, "check"):
        return value
    try:
        return caster.check(value)
    except ValueError as exc:
        raise ValueError(f"bad value for {name or key!r}: {exc}") from None


def check_vector(name, v, n=None):
    """``v`` as a float64 array once it is checked to be a non-empty 1-d
    vector, ``n`` long when ``n`` is given; otherwise a ValueError naming
    ``name``, the shape given and the shape expected.  Components check
    every vector argument with this."""
    a = np.asarray(v, dtype=float)
    if a.ndim != 1 or not a.size or n is not None and a.size != n:
        expected = "(n,) with n >= 1" if n is None else f"({n},)"
        raise ValueError(f"bad shape for {name!r}: {a.shape}, expected {expected}")
    return a


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
    """Full config dict: schema defaults updated with explicit settings, whose
    enum words and ranges are checked as ``parse_config`` checks a file's."""
    cfg = {key: default for key, (_, default) in SCHEMA.items()}
    for key, value in (overrides or {}).items():
        if key not in SCHEMA:
            raise ValueError(f"unknown config key {key!r}")
        cfg[key] = check(key, value)
    return cfg


def load_config(path):
    """Read a config file; returns (resolved dict, raw text)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return resolve(parse_config(text)), text


def config_hash(text):
    """Stable fingerprint of the raw config text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_index(name, value):
    """``value`` as an int once it is checked to be a whole number that is
    not a bool (``1.0``, ``nan`` and ``True`` are not); otherwise a TypeError
    naming ``name``.  Components check an integer argument with this."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):  # NumPy's bool has no __index__
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"bad type for {name!r}: {value!r} is not an integer")
