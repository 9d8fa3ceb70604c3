"""The benchmark's workloads: each is a list of zenosim sweep configurations.

A configuration is kept as a dict of parameters, so the checks can rebuild
the physics independently, and rendered into the ``key = value`` document
that ``zenosim sweep`` reads. Only ``postsel-param-scan`` depends on the
workload seed; the other three are the fixed configurations whose outputs
were frozen at the seed commit (see ``frozen/``), which is what lets the
checks compare them byte for byte or within a stated tolerance.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("postsel-large-n", "postsel-param-scan", "stochastic-abort", "stochastic-reset")

#: configurations generated for postsel-param-scan; each one is its own sweep
PARAM_SCAN_CONFIGS = 300


def build(workload: str, seed: int) -> list[dict]:
    """The configurations of one workload; the same seed gives the same list."""
    if workload == "postsel-large-n":
        return [
            _config(
                "large-n",
                alpha=(0.6, 0.8),
                lam=(0.1, 0.0),
                total_time=1.0,
                n_values=tuple(2**k for k in range(4, 17)),
            )
        ]
    if workload == "postsel-param-scan":
        rng = random.Random(seed)
        configs = []
        for i in range(PARAM_SCAN_CONFIGS):
            a = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
            norm = math.sqrt(abs(a[0]) ** 2 + abs(a[1]) ** 2)
            configs.append(
                _config(
                    f"scan-{i:03d}",
                    alpha=(a[0] / norm, a[1] / norm),
                    lam=tuple(rng.uniform(0.05, 0.5) for _ in range(3)),
                    mu=tuple(rng.uniform(0.0, 0.5) for _ in range(3)),
                    total_time=1.0,
                    n_values=tuple(range(1, 9)),
                    aux_strategy="dual-alternating",
                )
            )
        return configs
    if workload == "stochastic-abort":
        # acceptance criterion 7's configuration, cut from 20 000 to the
        # first 2 000 trials so one run repeats the sweep many times
        return [
            _config(
                "abort",
                alpha=(0.6, 0.8),
                lam=(0.1, 0.1),
                total_time=1.0,
                n_values=(8,),
                mode="stochastic",
                trials=2000,
                seed=42,
            )
        ]
    if workload == "stochastic-reset":
        return [
            _config(
                "reset",
                alpha=(0.6, 0.8),
                lam=(0.4, 0.3, 0.2),
                mu=(0.2, 0.1, 0.0),
                total_time=4.0,
                n_values=(64, 256),
                aux_strategy="dual-alternating",
                mode="stochastic",
                abort_policy="reset-and-continue",
                trials=100,
                seed=42,
            )
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def warmup_config(workload: str) -> dict:
    """A few-cycle configuration on the workload's own code path.

    Running it once fills the lazy caches (CNOT permutations, outcome
    indices, numpy's first linalg and generator calls) before timing.
    """
    first = build(workload, 0)[0]
    return dict(first, name="warmup", n_values=(1, 2), trials=min(first["trials"], 2))


def requested_cycles(config: dict) -> int:
    """Cycles the configuration asks for: sum of n times trials over its rows."""
    trials = config["trials"] if config["mode"] == "stochastic" else 1
    return sum(config["n_values"]) * trials


def render(config: dict, output: str) -> str:
    """The ``key = value`` document for one configuration, writing to ``output``."""
    (a0, a1) = config["alpha"]
    lines = [
        f"alpha0_re = {a0.real!r}",
        f"alpha0_im = {a0.imag!r}",
        f"alpha1_re = {a1.real!r}",
        f"alpha1_im = {a1.imag!r}",
        "lambda = " + ", ".join(repr(x) for x in config["lam"]),
        "mu = " + ", ".join(repr(x) for x in config["mu"]),
        f"total_time = {config['total_time']!r}",
        "n_values = " + ", ".join(str(n) for n in config["n_values"]),
        f"aux_strategy = {config['aux_strategy']}",
        f"mode = {config['mode']}",
        f"abort_policy = {config['abort_policy']}",
        f"trials = {config['trials']}",
        f"seed = {config['seed']}",
        f"output = {output}",
    ]
    return "\n".join(lines) + "\n"


def _config(
    name,
    *,
    alpha,
    lam,
    total_time,
    n_values,
    mu=None,
    aux_strategy="single",
    mode="post-selected",
    abort_policy="abort-on-detect",
    trials=1,
    seed=0,
) -> dict:
    return {
        "name": name,
        "alpha": tuple(complex(a) for a in alpha),
        "lam": tuple(lam),
        "mu": tuple(mu) if mu is not None else (0.0,) * len(lam),
        "total_time": total_time,
        "n_values": tuple(n_values),
        "aux_strategy": aux_strategy,
        "mode": mode,
        "abort_policy": abort_policy,
        "trials": trials,
        "seed": seed,
    }
