"""Sweep runner and CSV writer.

One row per cycle count n, all on the schedule `parse_config` checked.
Post-selected mode computes and finishes all rows in one stacked pass,
`protocol.run_post_selected(data, noise, schedule, cycles)` over the list
of n, and reads the numbers of the light rows it returns; a row that fails
there fails alone, and each row's wall_time_ms is an even share of the
pass's time. Stochastic mode copies the schedule for each n and samples
`trials` independent trials per n with `protocol.sample_trials`, which
derives each trial's seed from (master seed, n, trial) through a
splitmix64-style mixer (`streams.derive_trial_seed`), so any single trial can be
reproduced without replaying the others: `run_protocol` with that seed
gives the same outcome. A trial runs only to its first detection, and a
row is read from what `sample_trials` returns: how many trials survive,
and the one no-error leaf they all end on. A row whose analytic reference
cannot be computed fails alone.

The CSV is a byte-reproducible artifact: (config, seed) determines every
written byte. Because measured wall time cannot satisfy that, the
wall_time_ms column is normalized to 0 unless the caller explicitly opts
into keeping timings; measured values stay available on the in-memory rows.
The file is formatted into one buffer and written with one ``os.write``; a
rerun writes over the existing file in place and cuts off any old tail.
"""
from __future__ import annotations

__all__ = [
    "CSV_COLUMNS", "SweepResult", "SweepRow", "derive_trial_seed", "mix64", "run_sweep",
    "write_csv",
]

import math
import os
import stat
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import single_qubit_survival
from .config import ExperimentConfig
# ZenoSchedule and run_protocol stay importable here: perfbench/spans.py traces them
from .protocol import (  # noqa: F401
    MODE_STOCHASTIC, SEED_BATCH, ZenoSchedule, run_post_selected, run_protocol, sample_trials,
)
# this module's public names, computed where the trials' streams are
from .streams import derive_trial_seed, mix64

CSV_COLUMNS = (
    "n",
    "survival_probability",
    "mean_post_selected_fidelity",
    "detection_rate",
    "analytic_reference",
    "wall_time_ms",
)
_HEADER = ",".join(CSV_COLUMNS) + "\n"


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
    result — a row that raises is marked failed (NaN fields) instead. A row
    whose analytic reference raises fails with that error and a NaN
    reference, and is not run."""
    data, noise, schedule = config.data, config.noise, config.schedule
    outcomes = {}  # n -> ((survival, fidelity, detection) or the exception, wall ms)
    cycles = []  # n of each post-selected row, for the one stacked pass
    references = {}  # n -> the row's analytic reference, where it has one
    for n in config.n_values:
        start = time.perf_counter()
        try:
            # this also rejects an n that is not a positive integer, on its own row
            references[n] = single_qubit_survival(noise.lam[0], schedule.total_time, n)
            if schedule.measurement_mode != MODE_STOCHASTIC:
                cycles.append(n)
                continue
            outcome = _stochastic_point(config, replace(schedule, cycles=n))
        except Exception as exc:
            outcome = exc
        outcomes[n] = outcome, (time.perf_counter() - start) * 1e3
    if cycles:
        start = time.perf_counter()
        try:
            results = run_post_selected(data, noise, schedule, cycles)
        except Exception as exc:
            results = [exc] * len(cycles)
        share = (time.perf_counter() - start) * 1e3 / len(cycles)
        for n, result in zip(cycles, results):
            if not isinstance(result, Exception):
                result = result.survival_probability, result.final_fidelity, float(result.detected)
            outcomes[n] = result, share
    rows = []
    for n in config.n_values:
        outcome, wall_ms = outcomes[n]
        reference = references.get(n, math.nan)
        if isinstance(outcome, Exception):
            rows.append(SweepRow(n, math.nan, math.nan, math.nan, reference, wall_ms, failed=True,
                                 error=f"{type(outcome).__name__}: {outcome}"))
        else:
            rows.append(SweepRow(n, *outcome, reference, wall_ms))
    return SweepResult(rows=rows)


def _stochastic_point(config, schedule) -> tuple[float, float, float]:
    """(survival rate, mean fidelity of the survivors, detection rate) over
    config.trials trials; every survivor ends on the row's no-error leaf."""
    survivors, leaf = sample_trials(config.data, config.noise, schedule, config.trials)
    # added once a survivor, left to right, as a loop over the trials adds
    # each one's: the sum's roundoff, not the leaf alone, gives the mean's
    # last bits. np.add.accumulate adds in that order, SEED_BATCH at a time,
    # each chunk starting from the running sum
    fidelity_sum = 0.0
    for start in range(0, survivors, SEED_BATCH):
        chunk = np.full(min(SEED_BATCH, survivors - start) + 1, leaf.final_fidelity)
        chunk[0] = fidelity_sum
        fidelity_sum = float(np.add.accumulate(chunk)[-1])
    fidelity_mean = fidelity_sum / survivors if survivors else math.nan
    return survivors / config.trials, fidelity_mean, (config.trials - survivors) / config.trials


def write_csv(result: SweepResult, path, keep_timings: bool = False) -> None:
    """Write the sweep as CSV with the fixed column order and 12-significant-
    digit formatting. wall_time_ms is written as 0 unless keep_timings, so
    identical (config, seed) runs produce byte-identical files.

    The file's bytes are formatted into one buffer and written with
    ``os.write`` (looping on a short write), with no text layer. An
    existing file is written over in place and, where it was longer, cut
    to the bytes written, instead of being opened with ``O_TRUNC``: on
    ext4 mounted with ``discard``, truncating a rerun's same-sized file to
    zero was measured to cost several times more than writing it. A
    missing file is created as ``open(path, "w")`` would create it, and an
    existing one keeps its inode. A non-regular target such as
    ``/dev/null`` is written but not cut. The rows formatted so far are
    written, and the cut made, on every exit, so a formatting error or a
    write that raises part-way leaves a short file of new bytes, as a
    truncating write does. Neither is atomic, and a process killed
    outright (or a power loss) between the write and the cut leaves new
    bytes followed by old ones."""
    lines = [_HEADER]
    written = 0
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        old = os.fstat(fd)
        try:
            for row in result.rows:
                wall = row.wall_time_ms if keep_timings else 0.0
                lines.append(
                    f"{row.n},{_fmt(row.survival_probability)},"
                    f"{_fmt(row.mean_post_selected_fidelity)},{_fmt(row.detection_rate)},"
                    f"{_fmt(row.analytic_reference)},{_fmt(wall)}\n"
                )
        finally:
            try:
                data = "".join(lines).encode()  # ASCII: no locale moves a byte
                while written < len(data):
                    written += os.write(fd, data[written:])
            finally:
                if stat.S_ISREG(old.st_mode) and written < old.st_size:
                    os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _fmt(value: float) -> str:
    return format(value, ".12g")
