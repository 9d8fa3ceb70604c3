"""Sweep runner and CSV writer.

One row per cycle count n. Post-selected mode computes all rows in one
stacked pass (`protocol.run_post_selected`); a row that fails there fails
alone, and each row's wall_time_ms is an even share of the pass's time.
Stochastic mode samples `trials` independent trials per n, each drawing
from a seed derived from (master seed, n, trial) through a splitmix64-style
mixer, so any single trial can be reproduced without replaying the others:
`run_protocol` with that seed gives the same outcome. The trials of one n
share a single encoding, propagator and tree of outcome histories
(`protocol.sample_trials`), so each register state along a history is
computed once, however many trials pass through it.

The CSV is a byte-reproducible artifact: (config, seed) determines every
written byte. Because measured wall time cannot satisfy that, the
wall_time_ms column is normalized to 0 unless the caller explicitly opts
into keeping timings; measured values stay available on the in-memory rows.
"""
from __future__ import annotations

__all__ = [
    "CSV_COLUMNS", "SweepResult", "SweepRow", "derive_trial_seed", "mix64", "run_sweep",
    "write_csv",
]

import csv
import math
import time
from dataclasses import dataclass, field

from .analysis import single_qubit_survival
from .config import ExperimentConfig
# run_protocol stays importable here: perfbench/spans.py traces it
from .protocol import (  # noqa: F401
    MODE_STOCHASTIC, ZenoSchedule, run_post_selected, run_protocol, sample_trials,
)

CSV_COLUMNS = (
    "n",
    "survival_probability",
    "mean_post_selected_fidelity",
    "detection_rate",
    "analytic_reference",
    "wall_time_ms",
)

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finalizer: one-round avalanche of a 64-bit value."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_trial_seed(master_seed: int, n: int, trial: int) -> int:
    """Order-independent per-trial seed: mix64 chained over (seed, n, trial)."""
    s = mix64(master_seed & _MASK64)
    s = mix64(s ^ (n & _MASK64))
    return mix64(s ^ (trial & _MASK64))


@dataclass
class SweepRow:
    """One sweep point. wall_time_ms is measured and not reproducible; every
    other field is a pure function of (config, seed). A failed row has NaN
    results and ``error`` says why, as "<ExceptionType>: <message>"."""

    n: int
    survival_probability: float
    mean_post_selected_fidelity: float
    detection_rate: float
    analytic_reference: float
    wall_time_ms: float
    failed: bool = False
    error: str | None = None


@dataclass
class SweepResult:
    rows: list[SweepRow] = field(default_factory=list)


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Execute the configured protocol for every n; never returns a short
    result — a row that raises is marked failed (NaN fields) instead."""
    data, noise = config.data, config.noise
    outcomes = {}  # n -> ((survival, fidelity, detection) or the exception, wall ms)
    schedules = {}  # n -> schedule of a post-selected row, for the one stacked pass
    for n in config.n_values:
        start = time.perf_counter()
        try:
            schedule = ZenoSchedule(config.total_time, n, aux_strategy=config.aux_strategy,
                                    measurement_mode=config.mode, seed=config.seed,
                                    abort_policy=config.abort_policy)
            if config.mode != MODE_STOCHASTIC:
                schedules[n] = schedule
                continue
            outcome = _stochastic_point(config, data, noise, schedule)
        except Exception as exc:
            outcome = exc
        outcomes[n] = outcome, (time.perf_counter() - start) * 1e3
    if schedules:
        start = time.perf_counter()
        try:
            results = run_post_selected(data, noise, list(schedules.values()))
        except Exception as exc:
            results = [exc] * len(schedules)
        share = (time.perf_counter() - start) * 1e3 / len(schedules)
        for n, result in zip(schedules, results):
            if not isinstance(result, Exception):
                result = result.survival_probability, result.final_fidelity, float(result.detected)
            outcomes[n] = result, share
    rows = []
    for n in config.n_values:
        outcome, wall_ms = outcomes[n]
        reference = single_qubit_survival(noise.lam[0], config.total_time, n)
        if isinstance(outcome, Exception):
            rows.append(SweepRow(n, math.nan, math.nan, math.nan, reference, wall_ms, failed=True,
                                 error=f"{type(outcome).__name__}: {outcome}"))
        else:
            rows.append(SweepRow(n, *outcome, reference, wall_ms))
    return SweepResult(rows=rows)


def _stochastic_point(config, data, noise, schedule) -> tuple[float, float, float]:
    """(survival rate, mean fidelity of the survivors, detection rate) over
    config.trials trials, all sampled against one outcome tree."""
    seeds = (derive_trial_seed(config.seed, schedule.cycles, t) for t in range(config.trials))
    survivors = 0
    detections = 0
    fidelity_sum = 0.0
    for trial in sample_trials(data, noise, schedule, seeds):
        if trial.detected:
            detections += 1
        else:
            survivors += 1
            fidelity_sum += trial.final_fidelity
    survival = survivors / config.trials
    fidelity_mean = fidelity_sum / survivors if survivors else math.nan
    return survival, fidelity_mean, detections / config.trials


def write_csv(result: SweepResult, path, keep_timings: bool = False) -> None:
    """Write the sweep as CSV with the fixed column order and 12-significant-
    digit formatting. wall_time_ms is written as 0 unless keep_timings, so
    identical (config, seed) runs produce byte-identical files."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in result.rows:
            wall = row.wall_time_ms if keep_timings else 0.0
            writer.writerow(
                [
                    row.n,
                    _fmt(row.survival_probability),
                    _fmt(row.mean_post_selected_fidelity),
                    _fmt(row.detection_rate),
                    _fmt(row.analytic_reference),
                    _fmt(wall),
                ]
            )


def _fmt(value: float) -> str:
    return format(value, ".12g")
