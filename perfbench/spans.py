"""Per-layer tracing from outside the program.

``instrument`` replaces public zenosim functions at the module attributes
their callers resolve (``zenosim.protocol.apply_cnot`` is what
``zeno_cycle`` calls, ``zenosim.sweep.run_protocol`` is what ``run_sweep``
calls) with wrappers that open and close a span, and puts the originals
back on exit. Nothing under ``src/`` changes.

Spans are folded into per-name totals as they close instead of being kept:
a traced ``postsel-large-n`` sweep closes about 800 000 of them, and a list
of that size would inflate the very memory figure the benchmark reports.
"""
from __future__ import annotations

import contextlib
import importlib
import time

#: (metric prefix, module whose attribute the caller resolves, attribute)
WRAP_POINTS = (
    ("cli.main", "zenosim.cli", "main"),
    ("config.parse_config", "zenosim.cli", "parse_config"),
    ("sweep.run_sweep", "zenosim.cli", "run_sweep"),
    ("sweep.write_csv", "zenosim.cli", "write_csv"),
    ("sweep.derive_trial_seed", "zenosim.sweep", "derive_trial_seed"),
    ("analysis.single_qubit_survival", "zenosim.sweep", "single_qubit_survival"),
    ("protocol.ZenoSchedule", "zenosim.sweep", "ZenoSchedule"),
    ("protocol.run_protocol", "zenosim.sweep", "run_protocol"),
    ("protocol.encode", "zenosim.protocol", "encode"),
    ("protocol.zeno_cycle", "zenosim.protocol", "zeno_cycle"),
    # run_protocol builds its generator through np.random.default_rng
    ("protocol.default_rng", "numpy.random", "default_rng"),
    ("noise.build_hamiltonian", "zenosim.protocol", "build_hamiltonian"),
    ("noise.propagator", "zenosim.protocol", "propagator"),
    ("noise.apply_propagator", "zenosim.protocol", "apply_propagator"),
    ("states.apply_cnot", "zenosim.protocol", "apply_cnot"),
    ("states.project_qubit", "zenosim.protocol", "project_qubit"),
    ("states.measure_qubit", "zenosim.protocol", "measure_qubit"),
    ("states.apply_single", "zenosim.protocol", "apply_single"),
    ("states.fidelity", "zenosim.protocol", "fidelity"),
)

SPAN_NAMES = tuple(name for name, _, _ in WRAP_POINTS)


class Tracer:
    """Nested spans folded into call counts and self times as they close.

    A span's self time is its duration minus the durations of the spans
    opened directly inside it.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self._stack = []  # [name, start, duration of direct children]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        """Close the innermost span and return its duration."""
        end = self.clock()
        name, start, children = self._stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - children
        if self._stack:
            self._stack[-1][2] += duration
        return duration


def _wrap(tracer: Tracer, name: str, fn, observe):
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = exit_()
        if observe is not None:
            observe(duration, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, observers=None):
    """Wrap every reachable point of WRAP_POINTS while the block runs.

    ``observers`` maps a span name to ``f(duration_s, result)``, called after
    each call of that function. Yields the names whose attribute does not
    exist, so a report can say which layers it could not see.
    """
    observers = observers or {}
    saved = []
    missing = []
    try:
        for name, module_name, attr in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(name)
                continue
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, observers.get(name)))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
