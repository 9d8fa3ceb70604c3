"""Experiment configuration: a flat `key = value` document.

Schema (one line per key, `#` starts a comment, lists are comma-separated):

    alpha0_re, alpha0_im    float   data amplitude on |0>   (default 1, 0)
    alpha1_re, alpha1_im    float   data amplitude on |1>   (default 0, 0)
    lambda                  floats  per-qubit flip coupling, required;
                                    one entry per register qubit
                                    (2 for single, 3 for dual-alternating)
    mu                      floats  per-qubit diagonal energy (default zeros)
    total_time              float   required, >= 0
    n_values                ints    required, nonempty, strictly increasing
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

import math
from dataclasses import dataclass

from .protocol import (
    ABORT_POLICIES,
    AUX_STRATEGIES,
    MEASUREMENT_MODES,
    MODE_STOCHASTIC,
    AUX_SINGLE,
)
from .noise import NoiseSpec
from .states import StateVector

_MAX_SEED = (1 << 64) - 1

#: cycles a stochastic sweep may ask for, sum(n_values) * trials: about 60
#: times the 20 000-trial, 8-cycle consistency check. Post-selected runs cost
#: O(log n) and are not bounded.
MAX_STOCHASTIC_CYCLES = 10_000_000

_FLOAT_KEYS = {"alpha0_re", "alpha0_im", "alpha1_re", "alpha1_im", "total_time"}
_INT_KEYS = {"trials", "seed"}
_FLOAT_LIST_KEYS = {"lambda", "mu"}
_INT_LIST_KEYS = {"n_values"}
_STRING_KEYS = {"aux_strategy", "mode", "abort_policy", "output"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _FLOAT_LIST_KEYS | _INT_LIST_KEYS | _STRING_KEYS
_REQUIRED_KEYS = ("lambda", "total_time", "n_values")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending key."""


@dataclass
class ExperimentConfig:
    """Validated sweep parameters; see the module docstring for the schema."""

    alpha0: complex
    alpha1: complex
    lam: tuple[float, ...]
    mu: tuple[float, ...]
    total_time: float
    n_values: tuple[int, ...]
    aux_strategy: str
    mode: str
    abort_policy: str
    trials: int
    seed: int
    output: str

    def data_state(self) -> StateVector:
        return StateVector(1, [self.alpha0, self.alpha1])

    def noise_spec(self) -> NoiseSpec:
        return NoiseSpec(lam=self.lam, mu=self.mu)

    @property
    def register_size(self) -> int:
        return 2 if self.aux_strategy == AUX_SINGLE else 3


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a configuration document."""
    raw = _parse_pairs(text)
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required key '{key}'")

    values: dict[str, object] = {}
    for key, (text_value, line_no) in raw.items():
        try:
            values[key] = _convert(key, text_value)
        except ValueError as exc:
            raise ConfigError(f"key '{key}' (line {line_no}): {exc}") from None

    alpha0 = complex(values.get("alpha0_re", 1.0), values.get("alpha0_im", 0.0))
    alpha1 = complex(values.get("alpha1_re", 0.0), values.get("alpha1_im", 0.0))
    # hypot cannot overflow where squaring the amplitudes would
    if math.hypot(alpha0.real, alpha0.imag, alpha1.real, alpha1.imag) < 1e-6:
        raise ConfigError(
            "amplitudes alpha0_re/alpha0_im/alpha1_re/alpha1_im are not normalizable (all zero)"
        )

    aux_strategy = values.get("aux_strategy", AUX_SINGLE)
    if aux_strategy not in AUX_STRATEGIES:
        raise ConfigError(f"key 'aux_strategy' must be one of {AUX_STRATEGIES}, got '{aux_strategy}'")
    mode = values.get("mode", MEASUREMENT_MODES[0])
    if mode not in MEASUREMENT_MODES:
        raise ConfigError(f"key 'mode' must be one of {MEASUREMENT_MODES}, got '{mode}'")
    abort_policy = values.get("abort_policy", ABORT_POLICIES[0])
    if abort_policy not in ABORT_POLICIES:
        raise ConfigError(f"key 'abort_policy' must be one of {ABORT_POLICIES}, got '{abort_policy}'")

    register = 2 if aux_strategy == AUX_SINGLE else 3
    lam = values["lambda"]
    if len(lam) != register:
        raise ConfigError(
            f"key 'lambda' must list {register} per-qubit values for aux_strategy={aux_strategy}, "
            f"got {len(lam)}"
        )
    mu = values.get("mu", (0.0,) * register)
    if len(mu) != len(lam):
        raise ConfigError(f"key 'mu' must match the length of 'lambda' ({len(lam)}), got {len(mu)}")

    total_time = values["total_time"]
    if total_time < 0:
        raise ConfigError(f"key 'total_time' must be >= 0, got {total_time!r}")

    n_values = values["n_values"]
    if len(n_values) == 0:
        raise ConfigError("key 'n_values' must not be empty")
    if any(n < 1 for n in n_values):
        raise ConfigError("key 'n_values': n values must be positive integers")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ConfigError("key 'n_values': n values must be strictly increasing")

    trials = values.get("trials", 1)
    if trials < 1:
        raise ConfigError(f"key 'trials' must be >= 1, got {trials}")
    if mode == MODE_STOCHASTIC and sum(n_values) * trials > MAX_STOCHASTIC_CYCLES:
        raise ConfigError(
            f"keys 'n_values' and 'trials' ask for {sum(n_values) * trials} stochastic cycles "
            f"(sum of n times trials), more than {MAX_STOCHASTIC_CYCLES}"
        )
    seed = values.get("seed", 0)
    if not 0 <= seed <= _MAX_SEED:
        raise ConfigError(f"key 'seed' must be an unsigned 64-bit integer, got {seed}")

    return ExperimentConfig(
        alpha0=alpha0,
        alpha1=alpha1,
        lam=lam,
        mu=mu,
        total_time=total_time,
        n_values=n_values,
        aux_strategy=aux_strategy,
        mode=mode,
        abort_policy=abort_policy,
        trials=trials,
        seed=seed,
        output=values.get("output", "sweep.csv"),
    )


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
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown key '{key}' (line {line_no})")
        if key in pairs:
            raise ConfigError(f"duplicate key '{key}' (line {line_no})")
        if not value:
            raise ConfigError(f"key '{key}' (line {line_no}): empty value")
        pairs[key] = (value, line_no)
    return pairs


def _convert(key: str, text_value: str):
    if key in _STRING_KEYS:
        return text_value
    if key in _FLOAT_KEYS:
        return _parse_float(text_value)
    if key in _INT_KEYS:
        return _parse_int(text_value)
    items = text_value.strip()
    if items.startswith("[") and items.endswith("]"):
        items = items[1:-1]
    parts = [p.strip() for p in items.split(",") if p.strip()]
    if key in _FLOAT_LIST_KEYS:
        return tuple(_parse_float(p) for p in parts)
    return tuple(_parse_int(p) for p in parts)


def _parse_float(text_value: str) -> float:
    value = float(text_value)
    if not math.isfinite(value):
        raise ValueError(f"values must be finite, got {text_value!r}")
    return value


def _parse_int(text_value: str) -> int:
    return int(text_value)
