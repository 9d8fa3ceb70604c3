"""Tests of the benchmark's own code: tracing, metric names, references."""
import importlib
import json
import math
import re
import sys
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

worker._import_zenosim()

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _originals():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for _, module, attr in spans.WRAP_POINTS
    }


def test_instrument_restores_every_attribute():
    before = _originals()
    with spans.instrument(spans.Tracer()) as missing:
        assert missing == []
        for (module, attr), original in before.items():
            assert getattr(importlib.import_module(module), attr) is not original
    assert _originals() == before
    with pytest.raises(RuntimeError):
        with spans.instrument(spans.Tracer()):
            raise RuntimeError("leave the block early")
    after = _originals()
    assert all(after[key] is before[key] for key in before)


def test_wrapped_calls_are_counted_once_each():
    import zenosim.protocol as protocol
    import zenosim.states as states

    tracer = spans.Tracer()
    with spans.instrument(tracer):
        protocol.encode(states.StateVector(1, [0.6, 0.8]), 1)
    assert tracer.calls["protocol.encode"] == 1
    assert tracer.calls["states.apply_cnot"] == 1


def test_self_time_on_a_synthetic_span_tree():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and B [5, 9]
    ticks = iter([0, 1, 2, 3, 4, 5, 9, 10])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    tracer.enter("A")
    tracer.enter("B")
    tracer.enter("C")
    assert tracer.exit() == 1
    assert tracer.exit() == 3
    tracer.enter("B")
    assert tracer.exit() == 4
    assert tracer.exit() == 10
    assert tracer.self_s["A"] == 10 - 3 - 4
    assert tracer.self_s["B"] == (3 - 1) + 4
    assert tracer.self_s["C"] == 1
    assert (tracer.calls["A"], tracer.calls["B"], tracer.calls["C"]) == (1, 2, 1)


def _fake_report():
    return {
        "untraced": [[1.0, 0.1], [1.2, 0.1]],
        "traced": [[1.5, 0.1]],
        "peak_rss_mib": 40.0,
        "layers": {name: {"calls": 1, "self_s": 0.1} for name in spans.SPAN_NAMES},
        "trial_us": {"p50": 1.0, "p99": 2.0, "samples": 2},
        "cycle_log_len": 8,
    }


def test_metric_names_match_benchmark_json_and_pattern():
    report = _fake_report()
    end_to_end = run.end_to_end_metrics(0.2, report, cycles=100)
    per_layer = run.per_layer_metrics(report, 0.0, cycles=100)
    assert list(end_to_end) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(per_layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for name, (_, unit) in {**end_to_end, **per_layer}.items():
        assert units[name] == unit
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("n", [1024, 65536])
def test_exact_loss_agrees_with_mpmath(n):
    lam, total_time = 0.1, 1.0
    with mpmath.workdps(50):
        expected = 1 - mpmath.cos(mpmath.mpf(lam) * total_time / n) ** (2 * n)
        assert checks.exact_loss(lam, total_time, n) == pytest.approx(float(expected), rel=1e-14)


def test_numpy_reference_matches_the_closed_form():
    (config,) = workloads.build("postsel-large-n", 0)
    for n in (16, 1024):
        survival, fidelity = checks.postselected_reference(config, n)
        assert 1 - survival == pytest.approx(checks.exact_loss(0.1, 1.0, n), rel=1e-9)
        assert fidelity == pytest.approx(1.0, abs=1e-12)


def test_param_scan_configs_follow_the_seed():
    first = workloads.build("postsel-param-scan", 1)
    assert first == workloads.build("postsel-param-scan", 1)
    assert first != workloads.build("postsel-param-scan", 2)
    for config in first:
        assert all(0.05 <= x <= 0.5 for x in config["lam"])
        assert all(0.0 <= x <= 0.5 for x in config["mu"])
        assert math.isclose(sum(abs(a) ** 2 for a in config["alpha"]), 1.0)
