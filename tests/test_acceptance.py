"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every tolerance is pinned here; nothing is calibrated at runtime.
"""
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import zenosim
from zenosim import (
    AUX_DUAL_ALTERNATING,
    ConvergencePoint,
    MODE_STOCHASTIC,
    NoiseSpec,
    StateVector,
    ZenoSchedule,
    decode,
    derive_trial_seed,
    encode,
    evolve_exact,
    expansion_defect,
    fidelity,
    fit_inverse_n,
    new_state,
    project_qubit,
    run_protocol,
    single_qubit_survival,
    zeno_cycle,
    zeno_limit_formula,
)
from conftest import random_state


def _report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number}, {label}: {status}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def _noiseless_round_trip(aux_count: int, states: int = 1000, cycles: int = 100):
    """Shared body for criteria 1 and 9: encode, cycle, decode, check."""
    rng = np.random.default_rng(11 + aux_count)
    worst_fidelity = 1.0
    outcomes_clean = True
    start = time.perf_counter()
    for _ in range(states):
        data = random_state(1, rng)
        state = encode(data, aux_count)
        for k in range(cycles):
            aux_q = 1 if aux_count == 1 else 1 + (k % 2)
            outcome = zeno_cycle(state, 0, aux_q)
            outcomes_clean &= outcome.aux_outcome == 0
            outcomes_clean &= outcome.branch_probability > 1 - 1e-12
            state = outcome.state_after
        worst_fidelity = min(worst_fidelity, fidelity(decode(state, aux_count), data))
    elapsed = time.perf_counter() - start
    return worst_fidelity, outcomes_clean, elapsed


def test_criterion_1_noiseless_round_trip():
    worst, clean, elapsed = _noiseless_round_trip(aux_count=1)
    ok = worst >= 1 - 1e-9 and clean and elapsed < 5.0
    _report(1, "noiseless round trip", ok, f"worst fidelity {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_zeno_convergence():
    start = time.perf_counter()
    data = new_state(1, [0.6, 0.8])
    noise = NoiseSpec.flip(0.1, 2)
    ns = (8, 16, 32, 64)
    points = []
    for n in ns:
        result = run_protocol(data, noise, ZenoSchedule(1.0, n))
        points.append(
            ConvergencePoint(n, result.survival_probability, single_qubit_survival(0.1, 1.0, n))
        )
    losses = [1 - p.survival for p in points]
    decreasing = all(a > b for a, b in zip(losses, losses[1:]))
    ratios = [a / b for a, b in zip(losses, losses[1:])]
    ratios_ok = all(1.6 <= r <= 2.4 for r in ratios)
    slope, quality = fit_inverse_n(points)
    elapsed = time.perf_counter() - start
    ok = decreasing and ratios_ok and -1.2 <= slope <= -0.8 and quality > 0.99 and elapsed < 1.0
    _report(
        2,
        "zeno convergence",
        ok,
        f"ratios {['%.3f' % r for r in ratios]}, slope {slope:.3f}, quality {quality:.5f}, {elapsed:.2f}s",
    )


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for lam in (0.05, 0.1, 0.5):
        spec = NoiseSpec(lam=(lam,), mu=(0.0,))
        for n in range(1, 65):
            state = new_state(1)
            product = 1.0
            for _ in range(n):
                state = evolve_exact(state, spec, 1.0 / n)
                prob, state = project_qubit(state, 0, 0)
                product *= prob
            worst = max(worst, abs(product - single_qubit_survival(lam, 1.0, n)))
    pipeline_ok = worst < 1e-9

    values = [zeno_limit_formula(1.0, n) for n in range(2, 10_001)]
    monotone = all(b > a for a, b in zip(values, values[1:]))
    limit_ok = monotone and values[-1] > 0.999
    elapsed = time.perf_counter() - start
    ok = pipeline_ok and limit_ok and elapsed < 1.0
    _report(
        3,
        "oracle equivalence",
        ok,
        f"max pipeline gap {worst:.2e}, limit at n=1e4 is {values[-1]:.6f}, {elapsed:.2f}s",
    )


def test_criterion_4_first_order_expansion():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    times = np.array([1e-2, 1e-3, 1e-4])
    worst_gap = 0.0
    for _ in range(20):
        signs = rng.choice([-1.0, 1.0], size=4)
        values = rng.uniform(0.3, 1.5, size=4) * signs
        spec = NoiseSpec(lam=tuple(values[:2]), mu=tuple(values[2:]))
        state = random_state(2, rng)
        defects = [expansion_defect(state, spec, t) for t in times]
        slope = np.polyfit(np.log(times), np.log(defects), 1)[0]
        worst_gap = max(worst_gap, abs(slope - 2.0))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 0.1 and elapsed < 1.0
    _report(4, "first-order expansion", ok, f"worst slope gap {worst_gap:.4f}, {elapsed:.2f}s")


def test_criterion_5_leakage_purge():
    rng = np.random.default_rng(505)
    worst = 0.0
    for case in range(200):
        dual = case % 4 == 0  # every fourth case runs the 3-qubit register
        register = 3 if dual else 2
        spec = NoiseSpec(
            lam=tuple(rng.uniform(-1.0, 1.0, register)),
            mu=tuple(rng.uniform(-1.0, 1.0, register)),
        )
        state = encode(random_state(1, rng), register - 1)
        state = evolve_exact(state, spec, rng.uniform(0.0, 0.5))
        aux_q = rng.integers(1, register) if dual else 1
        outcome = zeno_cycle(state, 0, int(aux_q))
        n = outcome.state_after.num_qubits
        leak = 0.0
        for index, amp in enumerate(outcome.state_after.amplitudes):
            bit_d = (index >> (n - 1)) & 1
            bit_a = (index >> (n - 1 - int(aux_q))) & 1
            if bit_d != bit_a:
                leak += abs(amp) ** 2
        worst = max(worst, np.sqrt(leak))
    ok = worst <= 1e-12
    _report(5, "leakage purge", ok, f"worst out-of-code amplitude {worst:.2e}")


def test_criterion_6_error_proliferation():
    from zenosim import evolve_repetition

    lam = 0.1
    t_small = 0.01  # lam * t = 1e-3
    _, report = evolve_repetition(new_state(1), NoiseSpec.flip(lam, 3), t_small)
    amplitudes = report.as_dict()
    nonzero = all(abs(amplitudes[p]) > 0 for p in report.epsilons)
    single_ok = all(
        abs(abs(amplitudes[p]) - lam * t_small) / (lam * t_small) < 0.1
        for p in ("001", "010", "100")
    )
    _, report_large = evolve_repetition(new_state(1), NoiseSpec.flip(lam, 3), t_small * 10)
    exponents = [
        np.log10(abs(report_large.as_dict()[p]) / abs(amplitudes[p]))
        for p in ("011", "101", "110")
    ]
    double_ok = all(abs(e - 2.0) <= 0.2 for e in exponents)
    ok = nonzero and single_ok and double_ok
    _report(
        6,
        "error proliferation",
        ok,
        f"double-flip exponents {['%.3f' % e for e in exponents]}",
    )


def test_criterion_7_stochastic_consistency():
    start = time.perf_counter()
    data = new_state(1, [0.6, 0.8])
    noise = NoiseSpec.flip(0.1, 2)
    n, trials, master_seed = 8, 20_000, 42
    post = run_protocol(data, noise, ZenoSchedule(1.0, n)).survival_probability
    survivors = 0
    for trial in range(trials):
        schedule = ZenoSchedule(
            1.0,
            n,
            measurement_mode=MODE_STOCHASTIC,
            seed=derive_trial_seed(master_seed, n, trial),
        )
        survivors += run_protocol(data, noise, schedule).survival_probability == 1.0
    frequency = survivors / trials
    sigma = np.sqrt(post * (1 - post) / trials)
    elapsed = time.perf_counter() - start
    ok = abs(frequency - post) < 3 * sigma and elapsed < 30.0
    _report(
        7,
        "stochastic/post-selected consistency",
        ok,
        f"frequency {frequency:.5f} vs {post:.5f}, gap {abs(frequency - post) / sigma:.2f} sigma, {elapsed:.1f}s",
    )


def test_criterion_8_sweep_determinism(tmp_path):
    output = tmp_path / "sweep.csv"
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "alpha0_re = 0.6\n"
        "alpha1_re = 0.8\n"
        "lambda = 0.1, 0.1\n"
        "total_time = 1.0\n"
        "n_values = 4, 8\n"
        "mode = stochastic\n"
        "trials = 150\n"
        "seed = 20240811\n"
        f"output = {output}\n"
    )
    # the child runs in tmp_path, so a relative PYTHONPATH would not find
    # the package: point it at the directory zenosim was imported from
    package_root = Path(zenosim.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(package_root)}
    captured = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "zenosim", "sweep", str(config)],
            capture_output=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        captured.append(output.read_bytes())
    ok = captured[0] == captured[1]
    _report(8, "sweep determinism", ok, f"{len(captured[0])} bytes each")


def test_criterion_9_dual_auxiliary():
    worst, clean, elapsed = _noiseless_round_trip(aux_count=2)
    round_trip_ok = worst >= 1 - 1e-9 and clean and elapsed < 5.0

    data = new_state(1, [0.6, 0.8])
    noise = NoiseSpec.flip(0.1, 3)
    survivals = [
        run_protocol(
            data, noise, ZenoSchedule(1.0, n, aux_strategy=AUX_DUAL_ALTERNATING)
        ).survival_probability
        for n in (8, 16, 32, 64)
    ]
    monotone = all(b > a for a, b in zip(survivals, survivals[1:]))
    ok = round_trip_ok and monotone
    _report(
        9,
        "dual-auxiliary sanity",
        ok,
        f"worst fidelity {worst:.2e} in {elapsed:.2f}s, survivals {['%.5f' % s for s in survivals]}",
    )
