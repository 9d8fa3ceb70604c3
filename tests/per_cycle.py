"""The per-cycle stochastic engine, kept as the reference the sampler is
checked against: ``zenosim.protocol.sample_trials``, which runs trials 0,
..., trials - 1 with trial t seeded by
``derive_trial_seed(schedule.seed, schedule.cycles, t)``, each only to its
first detection, on the row's no-error path, and returns how many survive
and the one leaf they all end on.

``run_stochastic`` steps one trial cycle by cycle through ``zeno_cycle``,
drawing one scalar uniform per cycle; ``stochastic_point`` runs a sweep
row's trials one by one through it, each with its own schedule and in
full, reset-and-continue tails included, and sums each survivor's own
fidelity. Both are the engine zenosim used before trials shared an outcome
tree, and a sweep row built from the sampler's count and leaf must
reproduce them exactly, float for float.
"""
import math
from dataclasses import replace

import numpy as np

from zenosim import (
    ABORT_ON_DETECT,
    PAULI_X,
    MODE_STOCHASTIC,
    ProtocolResult,
    ZeroProbabilityError,
    apply_cnot,
    apply_propagator,
    apply_single,
    derive_trial_seed,
    encode,
    fidelity,
    propagator,
    zeno_cycle,
)


def run_stochastic(data, noise, schedule) -> ProtocolResult:
    """One stochastic run of ``schedule``, seeded with ``schedule.seed``."""
    aux_count = schedule.aux_count
    register_size = 1 + aux_count
    if noise.num_qubits != register_size:
        raise ValueError(
            f"noise spec covers {noise.num_qubits} qubit(s) but the encoded register has "
            f"{register_size} ({aux_count} auxiliaries)"
        )
    encoded = encode(data, aux_count)
    step = propagator(noise, register_size, schedule.interval)

    rng = np.random.default_rng(schedule.seed)
    state = encoded
    detected = False
    cycle_log = []
    for k in range(schedule.cycles):
        state = apply_propagator(state, step)
        aux_q = 1 if aux_count == 1 else 1 + (k % 2)
        try:
            outcome = zeno_cycle(state, 0, aux_q, MODE_STOCHASTIC, rng)
        except ZeroProbabilityError:
            # the sampled branch carries no probability: detection is certain
            detected = True
            break
        cycle_log.append(outcome)
        state = outcome.state_after
        if outcome.aux_outcome == 1:
            detected = True
            if schedule.abort_policy == ABORT_ON_DETECT:
                break
            # reset-and-continue: re-zero the measured auxiliary, re-entangle
            state = apply_single(state, PAULI_X, aux_q)
            state = apply_cnot(state, 0, aux_q)

    return ProtocolResult(
        survival_probability=0.0 if detected else 1.0,
        loss_probability=1.0 if detected else 0.0,
        final_fidelity=fidelity(state, encoded),
        detected=detected,
        cycle_log=cycle_log,
        final_state=state,
    )


def stochastic_point(config, data, noise, n) -> tuple[float, float, float]:
    """(survival rate, mean survivor fidelity, detection rate) of one sweep row."""
    survivors = 0
    detections = 0
    fidelity_sum = 0.0
    for trial in range(config.trials):
        schedule = replace(
            config.schedule, cycles=n, seed=derive_trial_seed(config.schedule.seed, n, trial)
        )
        result = run_stochastic(data, noise, schedule)
        if result.detected:
            detections += 1
        if result.survival_probability == 1.0:
            survivors += 1
            fidelity_sum += result.final_fidelity
    survival = survivors / config.trials
    fidelity_mean = fidelity_sum / survivors if survivors else math.nan
    return survival, fidelity_mean, detections / config.trials
