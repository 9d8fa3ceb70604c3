"""zenosim sweep benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; zenosim is imported from the ``src/`` next to this
directory. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run; ``--workload all`` runs every workload
both ways. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 only when
every check passed. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import calibration_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: BLAS and OpenMP run single-threaded in every benchmark process
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 5
#: every run, probes included, ends within this many seconds
RUN_LIMIT_S = 170.0
#: the reference speed: reported times are those of a host on which
#: worker.calibration_s() takes this long
CALIBRATION_NOMINAL_S = 0.1


def at_reference_speed(wall_s: float, calibration: float) -> float:
    """A wall time rescaled by the calibration loop timed next to it."""
    return wall_s * CALIBRATION_NOMINAL_S / calibration


def _spawn(*args):
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )


def _finish(proc, timeout) -> str:
    """Wait for a child and return its stdout; kill it if it outlives ``timeout``."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def setup_time(manifest_path, deadline) -> float:
    """Median time from spawning a fresh interpreter to the end of its
    warm-up sweep (import zenosim, one sweep that fills the lazy caches),
    at reference speed."""
    samples = []
    calibration = calibration_s()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = _spawn("probe", str(manifest_path))
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.perf_counter(), 1.0))
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        _finish(proc, deadline - time.perf_counter())
        if line.strip() != "ready":
            raise RuntimeError("setup probe did not report ready")
        before, calibration = calibration, calibration_s()
        samples.append(at_reference_speed(elapsed, (before + calibration) / 2))
    return statistics.median(samples)


def prepare(workload: str, seed: int, trace: int):
    """Write the workload's config files and the manifest the worker reads."""
    work = WORK / f"{workload}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    configs = workloads.build(workload, seed)
    manifest = {"configs": [], "outputs": []}
    for config in configs:
        output = work / f"{config['name']}.csv"
        path = work / f"{config['name']}.cfg"
        path.write_text(workloads.render(config, str(output)))
        manifest["configs"].append(str(path))
        manifest["outputs"].append(str(output))
    manifest["warmup"] = str(work / "warmup.cfg")
    Path(manifest["warmup"]).write_text(
        workloads.render(workloads.warmup_config(workload), str(work / "warmup.csv"))
    )
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))
    return work, configs, manifest, manifest_path


def run_checks(workload, configs, manifest, report) -> list[str]:
    import checks

    errors = []
    if report["nonzero_exits"]:
        errors.append(f"{report['nonzero_exits']} sweep(s) exited non-zero")
    if report["mismatched_outputs"]:
        errors.append(f"{report['mismatched_outputs']} CSV(s) differ between repeats of the run")
    outputs = manifest["outputs"]
    if workload == "postsel-large-n":
        errors += checks.check_against_frozen_values(workload, configs[0], outputs[0])
    elif workload == "postsel-param-scan":
        for config, output in zip(configs, outputs):
            errors += checks.check_against_reference(config, output)
    else:
        errors += checks.check_frozen_bytes(workload, outputs[0])
        if workload == "stochastic-abort":
            errors += checks.check_binomial(configs[0], outputs[0])
    return errors


def end_to_end_metrics(setup_s: float, report: dict, cycles: int) -> dict:
    """name -> (value, unit) for a run with tracing off."""
    sweep_s = statistics.median(at_reference_speed(*s) for s in report["untraced"])
    return {
        "setup_s": (setup_s, "s"),
        "sweep_s": (sweep_s, "s"),
        "cycles_per_s": (cycles / sweep_s, "cycles/s"),
        "peak_rss_mb": (report["peak_rss_mib"], "MiB"),
    }


def per_layer_metrics(report: dict, loss_rel_err_max: float, cycles: int) -> dict:
    """name -> (value, unit) for a traced run."""
    metrics = {}
    for name, layer in report["layers"].items():
        metrics[f"{name}.calls"] = (layer["calls"], "count")
        metrics[f"{name}.self_s"] = (layer["self_s"], "s")
    metrics["protocol.run_protocol.p50_us"] = (report["trial_us"]["p50"], "us")
    metrics["protocol.run_protocol.p99_us"] = (report["trial_us"]["p99"], "us")
    metrics["protocol.cycle_log_len"] = (report["cycle_log_len"], "count")
    metrics["protocol.cycles_executed_frac"] = (
        report["layers"]["protocol.zeno_cycle"]["calls"] / cycles, "ratio")
    untraced_s = statistics.median(at_reference_speed(*s) for s in report["untraced"])
    traced_s = statistics.median(at_reference_speed(*s) for s in report["traced"])
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["analysis.loss_rel_err_max"] = (loss_rel_err_max, "ratio")
    return metrics


def run_record(workload, seed, seconds, trace, report) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "thread_env": THREAD_ENV,
        "load": "one worker process; sweeps run back to back (closed loop)",
        "calibration_nominal_s": CALIBRATION_NOMINAL_S,
        "sweeps_untraced": report["untraced"],
        "sweeps_traced": report["traced"],
        "zenosim_file": report["zenosim_file"],
    }


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    work, configs, manifest, manifest_path = prepare(workload, seed, trace)
    setup_s = None if trace else setup_time(manifest_path, deadline)
    proc = _spawn("run", str(manifest_path), str(seconds), str(trace))
    report = json.loads(_finish(proc, deadline - time.perf_counter()).splitlines()[-1])

    import checks  # imports numpy: only after main() has pinned the threads

    errors = run_checks(workload, configs, manifest, report)
    sweeps = len(report["untraced"]) + len(report["traced"])
    attempted = sum(len(c["n_values"]) for c in configs) * sweeps
    failed_rows = sum(checks.failed_rows(p) for p in manifest["outputs"]) * sweeps
    failed = failed_rows + report["nonzero_exits"] + len(errors)
    cycles = sum(workloads.requested_cycles(c) for c in configs)

    if trace:
        loss = 0.0
        if workload == "postsel-large-n":
            loss = checks.loss_rel_err_max(configs[0], report["survival_rows"][0])
        metrics = per_layer_metrics(report, loss, cycles)
        notes = {"run_protocol_samples": report["trial_us"]["samples"],
                 "unwrapped": report["unwrapped"]}
    else:
        metrics = end_to_end_metrics(setup_s, report, cycles)
        notes = {"sweep_wall_s": statistics.median(wall for wall, _ in report["untraced"])}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "errors": errors,
        "notes": notes,
        "record": run_record(workload, seed, seconds, trace, report),
        "work": work,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "zenosim" / "__init__.py").is_file():
        print(f"error: no zenosim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # before this process or any worker imports numpy
    os.environ.update(THREAD_ENV)

    runs = [(w, t) for w in workloads.WORKLOADS for t in (0, 1)] if args.workload == "all" \
        else [(args.workload, args.trace)]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in runs:
        result = measure(name, args.seed, args.seconds, trace)
        print(f"== {name} (trace {trace}, seed {args.seed})")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        print(f"  rows_failed_frac = {result['failed'] / result['attempted']:.6g} ratio "
              f"({result['failed']} of {result['attempted']})")
        for key, value in result["notes"].items():
            print(f"  {key}: {value}")
        for error in result["errors"]:
            print(f"  CHECK FAILED: {error}")
        record_path = result["work"] / "record.json"
        record = dict(result["record"], metrics=result["metrics"], errors=result["errors"])
        record_path.write_text(json.dumps(record, indent=2) + "\n")
        print(f"  run record: {record_path.relative_to(ROOT)}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(runs) == 1 else f"{name}.trace{trace}."
        combined["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
