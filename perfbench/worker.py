"""The benchmark's child process: import zenosim from the checkout and drive
``zenosim.cli.main(["sweep", <config>])`` in process.

    python3 perfbench/worker.py probe <manifest>
        import, run the warm-up sweep once, print "ready" and exit; the
        parent times this from spawn to the "ready" line (setup_s)
    python3 perfbench/worker.py run <manifest> <seconds> <trace>
        warm up, then repeat the workload's sweeps for at least <seconds>
        and print one JSON line of timings and counters

The parent pins BLAS and OpenMP to one thread in the environment before it
starts this process, so they hold before numpy is imported.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: lower bound on sweeps per side, whatever the run length
MIN_REPEATS = 3
#: iterations of the calibration loop; about 0.1 s on a 2.1 GHz Xeon
CALIBRATION_LOOPS = 40_000


def _import_zenosim():
    sys.path.insert(0, str(SRC))
    import zenosim
    import zenosim.cli

    if not Path(zenosim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"zenosim was imported from {zenosim.__file__}, not from {SRC}")
    return zenosim


def calibration_s() -> float:
    """Wall time of a fixed loop of small numpy calls, the kind of work the
    sweep does.

    A shared 2-vCPU Xeon VM (2.1 GHz) was measured changing speed by up to
    2x in phases of 5 to 20 seconds, for the sweep and this loop alike. Timing the
    loop next to every sweep lets a run state its sweep times at one
    reference speed (see run.py). The loop is the benchmark's own code, so
    a change to zenosim does not change it.
    """
    import numpy as np

    u = np.eye(4, dtype=complex)
    v = np.full(4, 0.5, dtype=complex)
    start = time.perf_counter()
    for _ in range(CALIBRATION_LOOPS):
        v = u @ v
        float(np.vdot(v, v).real)
    return time.perf_counter() - start


def _sweep(cli, config_paths) -> tuple[float, int]:
    """One pass over every config with stdout and stderr captured; returns
    (wall seconds, number of non-zero exits)."""
    sink = io.StringIO()
    nonzero = 0
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        for path in config_paths:
            # resolved through the module on every call, so a wrapped
            # cli.main is seen
            if cli.main(["sweep", path]) != 0:
                nonzero += 1
        elapsed = time.perf_counter() - start
    return elapsed, nonzero


def _outputs(manifest) -> list[bytes]:
    return [Path(p).read_bytes() for p in manifest["outputs"]]


def probe(manifest) -> None:
    zenosim = _import_zenosim()
    _sweep(zenosim.cli, [manifest["warmup"]])
    print("ready", flush=True)


def run(manifest, seconds: float, traced: bool) -> dict:
    zenosim = _import_zenosim()
    import numpy as np

    import spans

    cli = zenosim.cli
    configs = manifest["configs"]
    _sweep(cli, [manifest["warmup"]])

    untraced, traced_sweeps, nonzero, mismatched = [], [], 0, 0
    layers = {name: {"calls": [], "self_s": []} for name in spans.SPAN_NAMES}
    trial_us, cycle_log_len, missing = [], 0, []
    postsel_rows = []

    def observe_trial(duration, result):
        nonlocal cycle_log_len
        trial_us.append(duration * 1e6)
        cycle_log_len = max(cycle_log_len, len(getattr(result, "cycle_log", None) or ()))

    def observe_sweep(duration, result):
        postsel_rows.append([(row.n, row.survival_probability) for row in result.rows])

    def timed(instrumented: bool) -> list[float]:
        """One sweep as [wall seconds, mean of the calibrations around it]."""
        nonlocal nonzero, mismatched, calibration, missing, first_outputs
        if instrumented:
            tracer = spans.Tracer()
            observers = {"protocol.run_protocol": observe_trial}
            if not postsel_rows:
                observers["sweep.run_sweep"] = observe_sweep
            with spans.instrument(tracer, observers) as missing:
                elapsed, bad = _sweep(cli, configs)
            for name in spans.SPAN_NAMES:
                layers[name]["calls"].append(tracer.calls[name])
                layers[name]["self_s"].append(tracer.self_s[name])
        else:
            elapsed, bad = _sweep(cli, configs)
        before, calibration = calibration, calibration_s()
        nonzero += bad
        outputs = _outputs(manifest)
        first_outputs = first_outputs or outputs
        mismatched += sum(a != b for a, b in zip(first_outputs, outputs))
        return [elapsed, (before + calibration) / 2]

    first_outputs = None
    calibration = calibration_s()
    deadline = time.perf_counter() + seconds
    while len(untraced) < MIN_REPEATS or time.perf_counter() < deadline:
        untraced.append(timed(False))
        if traced:
            traced_sweeps.append(timed(True))

    report = {
        "zenosim_file": zenosim.__file__,
        "numpy": np.__version__,
        "untraced": untraced,
        "traced": traced_sweeps,
        "nonzero_exits": nonzero,
        "mismatched_outputs": mismatched,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        report.update(
            layers={
                name: {
                    "calls": statistics.median_low(v["calls"]),
                    "self_s": statistics.median(v["self_s"]),
                }
                for name, v in layers.items()
            },
            trial_us=_percentiles(trial_us),
            cycle_log_len=cycle_log_len,
            unwrapped=missing,
            survival_rows=postsel_rows,
        )
    return report


def _percentiles(samples) -> dict:
    """Nearest-rank p50 and p99 of the samples, with their count."""
    ordered = sorted(samples) or [0.0]

    def rank(q):
        return ordered[min(len(ordered), max(1, round(q * len(ordered)))) - 1]

    return {"p50": rank(0.50), "p99": rank(0.99), "samples": len(samples)}


def main(argv) -> int:
    command, manifest_path = argv[0], argv[1]
    manifest = json.loads(Path(manifest_path).read_text())
    if command == "probe":
        probe(manifest)
    elif command == "run":
        print(json.dumps(run(manifest, float(argv[2]), argv[3] == "1")))
    else:
        raise SystemExit(f"unknown command {command!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
