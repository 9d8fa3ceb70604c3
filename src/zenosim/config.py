"""Experiment configuration: a flat `key = value` document.

Schema (one line per key, `#` starts a comment, lists are comma-separated
and nonempty):

    alpha0_re, alpha0_im    float   data amplitude on |0>   (default 1, 0)
    alpha1_re, alpha1_im    float   data amplitude on |1>   (default 0, 0)
    lambda                  floats  per-qubit flip coupling, required;
                                    one entry per register qubit
                                    (2 for single, 3 for dual-alternating)
    mu                      floats  per-qubit diagonal energy (default zeros)
    total_time              float   required, >= 0
    n_values                ints    required, >= 1, strictly increasing
    aux_strategy            string  single | dual-alternating (default single)
    mode                    string  post-selected | stochastic (default post-selected)
    abort_policy            string  abort-on-detect | reset-and-continue
                                    (default abort-on-detect)
    trials                  int     >= 1, used in stochastic mode (default 1);
                                    a stochastic sweep asks for at most
                                    MAX_STOCHASTIC_CYCLES cycles in all
                                    (the sum of n over n_values, times trials)
    seed                    int     unsigned 64-bit master seed (default 0)
    output                  string  CSV destination (default sweep.csv)

Unknown keys are always fatal, as are duplicates.
"""
from __future__ import annotations

__all__ = ["ConfigError", "ExperimentConfig", "parse_config"]

import math
from dataclasses import dataclass
from functools import partial

from .protocol import (
    ABORT_ON_DETECT, AUX_SINGLE, MODE_POST_SELECTED, MODE_STOCHASTIC, ZenoSchedule,
)
from .noise import NoiseSpec
from .states import StateVector

#: cycles a stochastic sweep may ask for, sum(n_values) * trials: about 60
#: times the 20 000-trial, 8-cycle consistency check. Post-selected runs cost
#: O(log n) and are not bounded.
MAX_STOCHASTIC_CYCLES = 10_000_000


def _parse_float(text_value: str) -> float:
    value = float(text_value)
    if not math.isfinite(value):
        raise ValueError(f"values must be finite, got {text_value!r}")
    return value


def _parse_list(parse, text_value: str) -> tuple:
    items = text_value.strip()
    if items.startswith("[") and items.endswith("]"):
        items = items[1:-1]
    parts = [p.strip() for p in items.split(",") if p.strip()]
    if not parts:
        raise ValueError("the list must not be empty")
    return tuple(parse(p) for p in parts)


#: the parser of each key's value; no other key is known
_PARSERS = {
    **dict.fromkeys(("alpha0_re", "alpha0_im", "alpha1_re", "alpha1_im", "total_time"),
                    _parse_float),
    **dict.fromkeys(("trials", "seed"), int),
    **dict.fromkeys(("lambda", "mu"), partial(_parse_list, _parse_float)),
    "n_values": partial(_parse_list, int),
    **dict.fromkeys(("aux_strategy", "mode", "abort_policy", "output"), str),
}
_REQUIRED_KEYS = ("lambda", "total_time", "n_values")
#: the config key of each ZenoSchedule field, whose name starts the field's error messages
_SCHEDULE_KEYS = {"total_time": "total_time", "cycles": "n_values", "aux_strategy": "aux_strategy",
                  "measurement_mode": "mode", "abort_policy": "abort_policy", "seed": "seed"}


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending key."""


@dataclass
class ExperimentConfig:
    """Validated sweep parameters; see the module docstring for the schema.
    ``schedule`` is the checked ZenoSchedule for the first n, and carries
    total_time, aux_strategy, mode, abort_policy and the master seed."""

    data: StateVector
    noise: NoiseSpec
    schedule: ZenoSchedule
    n_values: tuple[int, ...]
    trials: int
    output: str


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a configuration document.

    The data state, the noise spec and a schedule for the first n are built
    here, so their constructors are the only checks of the values they take,
    and the config keeps what they built.
    """
    raw = _parse_pairs(text)
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")

    values: dict[str, object] = {}
    for key, (text_value, line_no) in raw.items():
        try:
            values[key] = _PARSERS[key](text_value)
        except ValueError as exc:
            raise ConfigError(f"key '{key}' (line {line_no}): {exc}") from None
    get = values.get

    data = _build(
        ("alpha0_re", "alpha0_im", "alpha1_re", "alpha1_im"),
        StateVector,
        1,
        [complex(get("alpha0_re", 1.0), get("alpha0_im", 0.0)),
         complex(get("alpha1_re", 0.0), get("alpha1_im", 0.0))],
    )

    n_values = values["n_values"]
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ConfigError("key 'n_values': n values must be strictly increasing")
    # n_values increase, so the first n is the one that can be out of range
    try:
        schedule = ZenoSchedule(
            total_time=values["total_time"], cycles=n_values[0], seed=get("seed", 0),
            aux_strategy=get("aux_strategy", AUX_SINGLE),
            measurement_mode=get("mode", MODE_POST_SELECTED),
            abort_policy=get("abort_policy", ABORT_ON_DETECT),
        )
    except ValueError as exc:
        field, _, reason = str(exc).partition(" ")
        raise ConfigError(f"key '{_SCHEDULE_KEYS[field]}': {reason}") from None

    lam = values["lambda"]
    if len(lam) != schedule.register_size:
        raise ConfigError(
            f"key 'lambda' must list {schedule.register_size} per-qubit values for "
            f"aux_strategy={schedule.aux_strategy}, got {len(lam)}"
        )
    noise = _build(("lambda", "mu"), NoiseSpec, lam, get("mu", ()))

    trials = get("trials", 1)
    if trials < 1:
        raise ConfigError(f"key 'trials' must be >= 1, got {trials}")
    if schedule.measurement_mode == MODE_STOCHASTIC and sum(n_values) * trials > MAX_STOCHASTIC_CYCLES:
        # the product may have more digits than an int converts to str
        raise ConfigError(
            f"keys 'n_values' and 'trials' ask for more than {MAX_STOCHASTIC_CYCLES} "
            f"stochastic cycles (sum of n times trials)"
        )

    return ExperimentConfig(
        data=data,
        noise=noise,
        schedule=schedule,
        n_values=n_values,
        trials=trials,
        output=get("output", "sweep.csv"),
    )


def _build(keys: tuple[str, ...], factory, *args, **kwargs):
    """``factory(*args, **kwargs)``, with its ValueError reported as a
    ConfigError that names the config keys the arguments came from."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"keys {', '.join(repr(k) for k in keys)}: {exc}") from None


def _parse_pairs(text: str) -> dict[str, tuple[str, int]]:
    pairs: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got '{stripped}'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"unknown key '{key}' (line {line_no})")
        if key in pairs:
            raise ConfigError(f"duplicate key '{key}' (line {line_no})")
        if not value:
            raise ConfigError(f"key '{key}' (line {line_no}): empty value")
        pairs[key] = (value, line_no)
    return pairs
