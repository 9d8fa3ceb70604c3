"""Encoder, measurement cycle, scheduler, and decoder contracts."""
import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import zenosim.protocol as protocol_module
from zenosim import (
    ABORT_ON_DETECT,
    AUX_DUAL_ALTERNATING,
    AUX_SINGLE,
    ConvergencePoint,
    MODE_POST_SELECTED,
    MODE_STOCHASTIC,
    RESET_AND_CONTINUE,
    CycleOutcome,
    NoiseSpec,
    NormDriftError,
    StateVector,
    SweepResult,
    SweepRow,
    ZenoSchedule,
    ZeroProbabilityError,
    apply_propagator,
    build_hamiltonian,
    decode,
    derive_trial_seed,
    encode,
    evolve_exact,
    fidelity,
    fit_inverse_n,
    new_state,
    parse_config,
    propagator,
    run_protocol,
    run_sweep,
    single_qubit_survival,
    write_csv,
    zeno_cycle,
)
from zenosim.protocol import DRAW_BLOCK, MAX_REPLAY_CYCLES, run_post_selected, sample_trials
import brute_force
import per_cycle
from conftest import random_state


def out_of_pair_amplitude(state, data_q, aux_q):
    """Total amplitude on basis states where the measured pair disagrees."""
    n = state.num_qubits
    total = 0.0
    for index, amp in enumerate(state.amplitudes):
        bit_d = (index >> (n - 1 - data_q)) & 1
        bit_a = (index >> (n - 1 - aux_q)) & 1
        if bit_d != bit_a:
            total += abs(amp) ** 2
    return np.sqrt(total)


class TestEncode:
    def test_basis_input(self):
        out = encode(new_state(1), 1)
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0])

    def test_equal_superposition_single_aux(self):
        s = 1 / np.sqrt(2)
        out = encode(new_state(1, [s, s]), 1)
        np.testing.assert_allclose(out.amplitudes, [s, 0, 0, s], atol=1e-12)

    def test_two_aux_random(self, rng):
        data = random_state(1, rng)
        out = encode(data, 2)
        expected = np.zeros(8, dtype=complex)
        expected[0] = data.amplitudes[0]
        expected[7] = data.amplitudes[1]
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_rejects_multi_qubit_data(self):
        with pytest.raises(ValueError, match="single qubit"):
            encode(new_state(2), 1)

    def test_rejects_bad_aux_count(self):
        with pytest.raises(ValueError, match="aux_count"):
            encode(new_state(1), 3)


class TestZenoCycle:
    def test_clean_state_is_fixed_point(self, rng):
        data = random_state(1, rng)
        state = encode(data, 1)
        outcome = zeno_cycle(state, 0, 1)
        assert outcome.aux_outcome == 0
        assert outcome.branch_probability == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(outcome.state_after.amplitudes, state.amplitudes, atol=1e-12)

    def test_branch_probability_matches_brute_force(self):
        lam, dt = 0.4, 0.35
        alpha0, alpha1 = 0.6, 0.8
        state = encode(new_state(1, [alpha0, alpha1]), 1)
        noisy = evolve_exact(state, build_hamiltonian(NoiseSpec.flip(lam, 2), 2), dt)
        outcome = zeno_cycle(noisy, 0, 1)
        expected = brute_force.single_cycle_branch_probability(alpha0, alpha1, lam, dt)
        assert outcome.branch_probability == pytest.approx(expected, abs=1e-12)

    def test_no_error_branch_purges_leakage(self, rng):
        for _ in range(20):
            state = random_state(2, rng)
            try:
                outcome = zeno_cycle(state, 0, 1)
            except ZeroProbabilityError:
                continue
            assert out_of_pair_amplitude(outcome.state_after, 0, 1) <= 1e-12

    def test_failure_branch_keeps_leakage_amplitudes(self):
        # pre-cycle register N(a0|00> + e01|01> + e10|10> + a1|11>): the aux=1
        # branch is (e01|0> + e10|1>) on the data qubit with the auxiliary at 1
        amps = np.array([0.3, 0.65, 0.65, 0.24])
        state = new_state(2, amps)
        p_fail = (amps[1] ** 2 + amps[2] ** 2) / np.sum(amps**2)
        # seed 0 draws 0.6369... < p_fail, so the sampled outcome is 1
        assert p_fail > 0.64
        outcome = zeno_cycle(state, 0, 1, MODE_STOCHASTIC, np.random.default_rng(0))
        assert outcome.aux_outcome == 1
        assert outcome.branch_probability == pytest.approx(p_fail, abs=1e-12)
        eps = amps[1:3] / np.linalg.norm(amps[1:3])
        np.testing.assert_allclose(
            outcome.state_after.amplitudes, [0, eps[0], 0, eps[1]], atol=1e-12
        )

    def test_certain_detection_raises(self):
        # all amplitude outside the code space: the no-error branch is empty
        anti_code = new_state(2, [0, 1, 1, 0])
        with pytest.raises(ZeroProbabilityError):
            zeno_cycle(anti_code, 0, 1)

    def test_stochastic_requires_rng(self):
        state = encode(new_state(1, [0.6, 0.8]), 1)
        with pytest.raises(ValueError, match="rng"):
            zeno_cycle(state, 0, 1, MODE_STOCHASTIC)


class TestZenoSchedule:
    def test_interval_recomputed(self):
        schedule = ZenoSchedule(total_time=2.0, cycles=4)
        assert schedule.interval == 0.5
        assert dataclasses.replace(schedule, cycles=8).interval == 0.25
        # assigning a field would skip the validation: cycles = -3 never ends
        # the squaring ladder, cycles = 0 divides by zero
        with pytest.raises(dataclasses.FrozenInstanceError):
            schedule.cycles = -3
        with pytest.raises(ValueError, match="cycles"):
            dataclasses.replace(schedule, cycles=-3)

    def test_invalid_cycles(self):
        with pytest.raises(ValueError, match="cycles"):
            ZenoSchedule(total_time=1.0, cycles=0)

    def test_invalid_strategy(self):
        with pytest.raises(ValueError, match="aux_strategy"):
            ZenoSchedule(total_time=1.0, cycles=1, aux_strategy="triple")

    def test_stochastic_needs_seed(self):
        with pytest.raises(ValueError, match="seed"):
            ZenoSchedule(total_time=1.0, cycles=1, measurement_mode=MODE_STOCHASTIC)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.5, np.int64(-1)])
    def test_stochastic_seed_is_unsigned_64_bit(self, seed):
        with pytest.raises(ValueError, match=re.escape("[0, 2**64)")):
            ZenoSchedule(1.0, 1, measurement_mode=MODE_STOCHASTIC, seed=seed)
        assert ZenoSchedule(1.0, 1, measurement_mode=MODE_STOCHASTIC, seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70, 1.5, np.int64(-1)])
    def test_post_selected_seed_is_checked_too(self, seed):
        with pytest.raises(ValueError, match=re.escape("[0, 2**64)")):
            ZenoSchedule(1.0, 1, seed=seed)
        assert ZenoSchedule(1.0, 1).seed is None
        assert ZenoSchedule(1.0, 1, seed=np.uint64(7)).seed == 7


class TestRunProtocol:
    def test_zero_noise_identity(self, rng):
        noise = NoiseSpec.zero(2)
        for n in (1, 13, 100):
            for _ in range(10):
                data = random_state(1, rng)
                result = run_protocol(data, noise, ZenoSchedule(1.0, n))
                assert result.survival_probability == pytest.approx(1.0, abs=1e-9)
                assert result.final_fidelity == pytest.approx(1.0, abs=1e-9)
                assert not result.detected
                assert all(o.aux_outcome == 0 for o in result.cycle_log)

    def test_zero_noise_identity_dual(self, rng):
        noise = NoiseSpec.zero(3)
        for n in (1, 13, 100):
            data = random_state(1, rng)
            result = run_protocol(
                data, noise, ZenoSchedule(1.0, n, aux_strategy=AUX_DUAL_ALTERNATING)
            )
            assert result.final_fidelity == pytest.approx(1.0, abs=1e-9)
            assert result.survival_probability == pytest.approx(1.0, abs=1e-9)

    def test_survival_improves_with_more_cycles(self):
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec.flip(0.1, 2)
        losses = []
        for n in (8, 16, 32):
            result = run_protocol(data, noise, ZenoSchedule(1.0, n))
            losses.append(1.0 - result.survival_probability)
        assert losses[0] > losses[1] > losses[2]

    def test_matches_brute_force_oracle(self):
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec.flip(0.1, 2)
        for n in range(1, 33):
            result = run_protocol(data, noise, ZenoSchedule(1.0, n))
            expected = brute_force.survival_equal_flip(0.6, 0.8, 0.1, 1.0, n)
            assert abs(result.survival_probability - expected) < 1e-9

    def test_single_interval_baseline_fails(self):
        # a quarter flip rotation of the data qubit before the only cycle
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec(lam=(np.pi / 2, 0.0), mu=(0.0, 0.0))
        result = run_protocol(data, noise, ZenoSchedule(1.0, 1))
        assert result.survival_probability < 1e-6

    def test_noise_spec_must_cover_register(self):
        with pytest.raises(ValueError, match="register"):
            run_protocol(new_state(1), NoiseSpec.zero(3), ZenoSchedule(1.0, 2))

    def test_stochastic_abort_on_detect(self):
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec.flip(0.9, 2)
        result = run_protocol(
            data, noise, ZenoSchedule(2.0, 4, measurement_mode=MODE_STOCHASTIC, seed=0)
        )
        assert result.detected
        assert result.survival_probability == 0.0
        assert len(result.cycle_log) < 4
        assert result.cycle_log[-1].aux_outcome == 1

    def test_stochastic_reset_and_continue(self):
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec.flip(0.9, 2)
        result = run_protocol(
            data,
            noise,
            ZenoSchedule(
                 2.0, 4, measurement_mode=MODE_STOCHASTIC, seed=0, abort_policy=RESET_AND_CONTINUE
            ),
        )
        assert result.detected
        assert result.survival_probability == 0.0
        assert len(result.cycle_log) == 4  # the run keeps going after the reset

    def test_stochastic_matches_post_selected_statistics(self):
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec.flip(0.1, 2)
        post = run_protocol(data, noise, ZenoSchedule(1.0, 8)).survival_probability
        trials = 3000
        survivors = 0
        for trial in range(trials):
            result = run_protocol(
                data,
                noise,
                ZenoSchedule(1.0, 8, measurement_mode=MODE_STOCHASTIC, seed=10_000 + trial),
            )
            survivors += result.survival_probability == 1.0
        sigma = np.sqrt(post * (1 - post) / trials)
        assert abs(survivors / trials - post) < 4 * sigma

    def test_diagonal_noise_survives_but_dephases(self):
        # drift inside the code space commutes with the cycle CNOTs: the
        # auxiliary never fires, yet the encoded phase is not protected —
        # measured and reported here without any suppression claim
        mu = (0.5, 0.7)
        data = new_state(1, [0.6, 0.8])
        result = run_protocol(data, NoiseSpec(lam=(0, 0), mu=mu), ZenoSchedule(1.0, 10))
        assert result.survival_probability == pytest.approx(1.0, abs=1e-12)
        phase = sum(mu) * 1.0
        expected = abs(0.36 * np.exp(-1j * phase) + 0.64) ** 2
        assert result.final_fidelity == pytest.approx(expected, abs=1e-12)
        assert result.final_fidelity < 1.0


def per_cycle_reference(data, noise, schedule):
    """The post-selected run stepped cycle by cycle through the public gates.

    Returns (survival, detected, final state, encoded state, cycles completed).
    A survival below the normal floats is the exp of the cycles' summed
    log-probabilities, as run_protocol reports it.
    """
    aux_count = schedule.aux_count
    encoded = encode(data, aux_count)
    step = propagator(build_hamiltonian(noise, 1 + aux_count), schedule.interval)
    state, survival, log_survival = encoded, 1.0, 0.0
    for k in range(schedule.cycles):
        state = apply_propagator(state, step)
        try:
            outcome = zeno_cycle(state, 0, 1 + k % aux_count)
        except ZeroProbabilityError:
            return 0.0, True, state, encoded, k
        survival *= outcome.branch_probability
        log_survival += math.log(outcome.branch_probability)
        state = outcome.state_after
    if survival < sys.float_info.min:
        survival = math.exp(log_survival)
    return survival, False, state, encoded, schedule.cycles


class TestFusedPostSelectedEngine:
    @settings(max_examples=150, deadline=None)
    @given(
        strategy=st.sampled_from([AUX_SINGLE, AUX_DUAL_ALTERNATING]),
        lam=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        mu=st.lists(st.floats(0.0, 0.5), min_size=3, max_size=3),
        amps=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
            lambda a: np.hypot.reduce(a) > 1e-3
        ),
        n=st.integers(1, 64),
    )
    def test_matches_per_cycle_reference(self, strategy, lam, mu, amps, n):
        size = 2 if strategy == AUX_SINGLE else 3
        data = new_state(1, [complex(amps[0], amps[1]), complex(amps[2], amps[3])])
        noise = NoiseSpec(lam=tuple(lam[:size]), mu=tuple(mu[:size]))
        schedule = ZenoSchedule(1.0, n, aux_strategy=strategy)
        survival, detected, state, encoded, _ = per_cycle_reference(data, noise, schedule)
        result = run_protocol(data, noise, schedule)
        assert result.detected == detected
        assert result.survival_probability == pytest.approx(survival, abs=1e-12)
        assert result.loss_probability == pytest.approx(1.0 - survival, abs=1e-12)
        assert result.final_fidelity == pytest.approx(fidelity(state, encoded), abs=1e-12)
        overlap = np.vdot(result.final_state.amplitudes, state.amplitudes)
        aligned = result.final_state.amplitudes * overlap / abs(overlap)
        np.testing.assert_allclose(aligned, state.amplitudes, atol=1e-12)
        assert result.cycle_log == []

    @pytest.mark.parametrize(
        "strategy, lam, total_time, cycles, failing_cycle",
        [
            # a quarter flip rotation of the data qubit before the only cycle
            (AUX_SINGLE, (np.pi / 2, 0.0), 1.0, 1, 0),
            # the second auxiliary's flip angle grows by pi/4 per slice; cycle
            # 1 checks it first, when it has flipped completely
            (AUX_DUAL_ALTERNATING, (0.0, 0.0, np.pi / 4), 4.0, 4, 1),
        ],
    )
    def test_zero_branch_detects_like_the_per_cycle_loop(
        self, strategy, lam, total_time, cycles, failing_cycle
    ):
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec(lam=lam)
        schedule = ZenoSchedule(total_time, cycles, aux_strategy=strategy)
        _, _, state, encoded, completed = per_cycle_reference(data, noise, schedule)
        assert completed == failing_cycle
        result = run_protocol(data, noise, schedule)
        assert result.detected
        assert result.survival_probability == 0.0
        assert result.final_fidelity == pytest.approx(fidelity(state, encoded), abs=1e-15)
        assert fidelity(result.final_state, state) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        strategy=st.sampled_from([AUX_SINGLE, AUX_DUAL_ALTERNATING]),
        lam=st.lists(st.floats(0.0, 40.0), min_size=3, max_size=3),
        mu=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        amps=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
            lambda a: np.hypot.reduce(a) > 1e-3
        ),
        total_time=st.floats(0.5, 20.0),
        n=st.integers(1, 300),
    )
    def test_replayed_rows_equal_the_per_cycle_reference(
        self, strategy, lam, mu, amps, total_time, n
    ):
        size = 2 if strategy == AUX_SINGLE else 3
        data = new_state(1, [complex(amps[0], amps[1]), complex(amps[2], amps[3])])
        noise = NoiseSpec(lam=tuple(lam[:size]), mu=tuple(mu[:size]))
        schedule = ZenoSchedule(total_time, n, aux_strategy=strategy)
        survival, detected, state, encoded, _ = per_cycle_reference(data, noise, schedule)
        # the row keeps less than the 1e-14 zero-branch threshold of its mass
        # and is replayed cycle by cycle; a tenth of it leaves room for the
        # closed form's rounding of the kept mass
        assume(detected or survival < 1e-15)
        result = run_protocol(data, noise, schedule)
        assert result.detected == detected
        assert result.survival_probability == survival
        assert result.loss_probability == 1.0 - survival
        assert result.final_fidelity == fidelity(state, encoded)
        assert np.array_equal(result.final_state.amplitudes, state.amplitudes)

    def test_large_n_loss_and_inverse_n_law(self):
        start = time.perf_counter()
        lam, total_time = 0.1, 1.0
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec(lam=(lam, 0.0))

        def exact_loss(n):
            return -math.expm1(n * math.log1p(-math.sin(lam * total_time / n) ** 2))

        for n in (2**20, 10**6):
            result = run_protocol(data, noise, ZenoSchedule(total_time, n))
            assert result.loss_probability == pytest.approx(exact_loss(n), rel=1e-9)
            # a float survival this close to 1 holds its loss to half an ulp
            assert 1.0 - result.survival_probability == pytest.approx(
                exact_loss(n), abs=2.0**-53
            )
        points = []
        for n in (2**k for k in range(10, 21)):
            survival = run_protocol(data, noise, ZenoSchedule(total_time, n)).survival_probability
            points.append(ConvergencePoint(n, survival, single_qubit_survival(lam, total_time, n)))
        slope, _ = fit_inverse_n(points)
        assert -1.001 <= slope <= -0.999
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        strategy=st.sampled_from([AUX_SINGLE, AUX_DUAL_ALTERNATING]),
        lam=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        mu=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        amps=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
            lambda a: np.hypot.reduce(a) > 1e-3
        ),
        total_time=st.floats(0.0, 3.0),
        n_values=st.lists(st.integers(2, 300), max_size=7, unique=True),
    )
    def test_stacked_rows_equal_one_row_runs(self, strategy, lam, mu, amps, total_time, n_values):
        size = 2 if strategy == AUX_SINGLE else 3
        data = new_state(1, [complex(amps[0], amps[1]), complex(amps[2], amps[3])])
        noise = NoiseSpec(lam=tuple(lam[:size]), mu=tuple(mu[:size]))
        # every stack holds the one-cycle row, which takes no squaring
        schedule, cycles = ZenoSchedule(total_time, 1, aux_strategy=strategy), [*n_values, 1]
        results = run_post_selected(data, noise, schedule, cycles)
        assert len(results) == len(cycles)
        for n, result in zip(cycles, results):
            one_row = dataclasses.replace(schedule, cycles=n)
            assert_row_is_run(result, run_protocol(data, noise, one_row))

    def test_replay_past_the_bound_fails_only_its_row(self):
        # lambda T = 3e5: both rows keep a mass below the zero-branch threshold
        # and replay; at about 4 us a cycle, n = 10**9 would replay for over an hour
        config = parse_config(
            "alpha0_re = 0.6\nalpha1_re = 0.8\nlambda = 30000.0, 0.0\ntotal_time = 10.0\n"
            "n_values = 328, 1000000000\n"
        )
        start = time.perf_counter()
        rows = run_sweep(config).rows
        assert time.perf_counter() - start < 1.0
        assert [row.failed for row in rows] == [False, True]
        assert rows[1].error == (
            "ValueError: 1000000000 cycles need a cycle-by-cycle replay of the no-error branch, "
            f"longer than MAX_REPLAY_CYCLES = {MAX_REPLAY_CYCLES}"
        )
        data, noise = config.data, config.noise
        schedule = ZenoSchedule(10.0, 328)
        with pytest.raises(ValueError, match="MAX_REPLAY_CYCLES"):
            run_protocol(data, noise, ZenoSchedule(10.0, 10**9))
        result, failure = run_post_selected(data, noise, schedule, [328, 10**9])
        assert isinstance(failure, ValueError)
        assert_row_is_run(result, run_protocol(data, noise, schedule))
        assert rows[0].survival_probability == result.survival_probability
        survival, detected, state, encoded, _ = per_cycle_reference(data, noise, schedule)
        assert not result.detected and not detected
        assert 0.0 < result.survival_probability < 1e-14
        assert result.survival_probability == pytest.approx(survival, rel=1e-12)
        assert result.final_fidelity == pytest.approx(fidelity(state, encoded), abs=1e-15)
        final_state = StateVector.unit(state.num_qubits, result.amplitudes)
        assert fidelity(final_state, state) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("strategy, lam", [
        (AUX_SINGLE, (3e4, 0.0)), (AUX_DUAL_ALTERNATING, (3e4, 0.0, 0.0)),
    ])
    def test_replayed_survival_that_underflows_is_zero(self, strategy, lam):
        # the true survival is exp(-9068); a plain product of the cycles'
        # probabilities would end in denormals, near 2.5e-323
        schedule = ZenoSchedule(1.0, 10**5, aux_strategy=strategy)
        result = run_protocol(new_state(1, [0.6, 0.8]), NoiseSpec(lam), schedule)
        assert result.survival_probability == single_qubit_survival(3e4, 1.0, 10**5) == 0.0
        assert result.loss_probability == 1.0
        assert not result.detected

    @pytest.mark.parametrize("schedule, cycles", [
        (ZenoSchedule(1.0, 4), []),
        (ZenoSchedule(1.0, 4), [4, 0]),
        (ZenoSchedule(1.0, 4), [4, 2.0]),
        (ZenoSchedule(1.0, 4, measurement_mode=MODE_STOCHASTIC, seed=0), [4]),
    ])
    def test_bad_cycle_lists_are_rejected(self, schedule, cycles):
        with pytest.raises(ValueError, match="post-selected schedule|positive integers"):
            run_post_selected(new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.1, 2), schedule, cycles)

    def test_overflowing_phase_fails_only_its_row(self):
        # w t = 2.5e308 overflows at n = 1; at n = 2 it is 1.25e308
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((1e154, 0.0))
        one, two = ZenoSchedule(2.5e154, 1), ZenoSchedule(2.5e154, 2)
        failure, result = run_post_selected(data, noise, one, [1, 2])
        assert isinstance(failure, ValueError)
        assert str(failure) == ("noise phase w*t must be finite, got -inf "
                                "(w = -1e+154, t = 2.5e+154)")
        assert_row_is_run(result, run_protocol(data, noise, two))
        with pytest.raises(ValueError, match=r"noise phase w\*t must be finite"):
            run_post_selected(data, noise, one, [1])

    @pytest.mark.parametrize("strategy, lam", [
        (AUX_SINGLE, (30.0, 0.4)), (AUX_DUAL_ALTERNATING, (30.0, 0.0, 0.0)),
    ])
    def test_mixed_stack_rows_equal_one_row_runs(self, monkeypatch, strategy, lam):
        # lambda T = 30: n = 20 keeps less than the zero-branch threshold and
        # is replayed, n = 60 loses more than half, n = 3000 less than half
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec(lam, (0.1,) * len(lam))
        schedule, cycles = ZenoSchedule(1.0, 1, aux_strategy=strategy), [20, 60, 3000]
        replayed = []
        real = protocol_module._row_result
        monkeypatch.setattr(protocol_module, "_row_result",
                            lambda *a: replayed.append(a[-1]) or real(*a))
        rows = run_post_selected(data, noise, schedule, cycles)
        assert replayed == [20]
        replay, lossy, regular = (row.survival_probability for row in rows)
        assert replay < 1e-14 <= lossy < 0.5 < regular
        for n, row in zip(cycles, rows):
            one_row = dataclasses.replace(schedule, cycles=n)
            assert_row_is_run(row, run_protocol(data, noise, one_row))
            survival, detected, state, encoded, _ = per_cycle_reference(data, noise, one_row)
            assert row.detected == detected
            assert row.survival_probability == pytest.approx(survival, rel=1e-12, abs=1e-12)
            assert row.final_fidelity == pytest.approx(fidelity(state, encoded), abs=1e-12)
            assert abs(np.vdot(row.amplitudes, state.amplitudes)) == pytest.approx(1.0, abs=1e-12)

    def test_nan_propagator_row_fails_alone_with_norm_drift(self, monkeypatch):
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((0.3, 0.2, 0.1), (0.1, 0.0, 0.2))
        schedule, cycles = ZenoSchedule(1.0, 1, aux_strategy=AUX_DUAL_ALTERNATING), [1, 2, 3, 8]
        clean = run_post_selected(data, noise, schedule, cycles)
        real = protocol_module.propagator

        def poisoned(h, times):
            stack = real(h, times)
            stack[2] = np.nan  # the row of n = 3
            return stack

        monkeypatch.setattr(protocol_module, "propagator", poisoned)
        rows = run_post_selected(data, noise, schedule, cycles)
        assert isinstance(rows[2], NormDriftError)
        assert str(rows[2]) == "norm drifted by nan (tolerance 1e-10)"
        for i in (0, 1, 3):
            assert rows[i][:4] == clean[i][:4]
            assert np.array_equal(rows[i].amplitudes, clean[i].amplitudes)

    def test_survival_outside_the_unit_interval_fails_only_its_row(self):
        # past n ~ 2**56 the ladder's roundoff runs away: at n = 2**58 + 1
        # this row keeps a mass of about 2e47
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((0.1, 0.1, 0.1))
        schedule = ZenoSchedule(1.0, 2**58 + 1, aux_strategy=AUX_DUAL_ALTERNATING)
        message = r"survival \S+ at n = 288230376151711745 is outside \[0, 1\]"
        with pytest.raises(ValueError, match=message):
            run_protocol(data, noise, schedule)
        regular, failure = run_post_selected(data, noise, schedule, [8, 2**58 + 1])
        assert isinstance(failure, ValueError) and re.fullmatch(message, str(failure))
        eight = dataclasses.replace(schedule, cycles=8)
        assert_row_is_run(regular, run_protocol(data, noise, eight))

    def test_nan_survival_fails_only_its_row(self, monkeypatch):
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.3, 2)
        schedule, cycles = ZenoSchedule(1.0, 1), [1, 2, 3]
        clean = run_post_selected(data, noise, schedule, cycles)
        real = protocol_module._pair_power

        def poisoned(pair, powers):
            m, g = real(pair, powers)
            g[1] = np.nan  # the leak of n = 2; its kept state stays finite
            return m, g

        monkeypatch.setattr(protocol_module, "_pair_power", poisoned)
        rows = run_post_selected(data, noise, schedule, cycles)
        assert isinstance(rows[1], ValueError)
        assert str(rows[1]) == "survival nan at n = 2 is outside [0, 1]"
        for i in (0, 2):
            assert rows[i][:4] == clean[i][:4]
            assert np.array_equal(rows[i].amplitudes, clean[i].amplitudes)


class ScriptedGenerator:
    """Stands in for ``np.random.default_rng(seed)``: hands out fixed
    uniforms in order, one at a time or in blocks."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, size=None):
        if size is None:
            return self.draws.pop(0)
        block, self.draws = self.draws[:size], self.draws[size:]
        return np.array(block)


def script_draws(monkeypatch, draws):
    monkeypatch.setattr(np.random, "default_rng", lambda seed: ScriptedGenerator(draws))


def trial_seeds(schedule, trials):
    """The seed of each of ``trials`` trials that sample_trials derives from ``schedule``."""
    return [derive_trial_seed(schedule.seed, schedule.cycles, t) for t in range(trials)]


def assert_row_is_run(row, reference):
    """Exact equality of a run_post_selected row and a post-selected run."""
    assert reference.cycle_log == []
    assert row[:4] == (reference.survival_probability, reference.loss_probability,
                       reference.final_fidelity, reference.detected)
    assert np.array_equal(row.amplitudes, reference.final_state.amplitudes)


def assert_same_run(result, reference):
    """Exact equality of two protocol results, cycle log included."""
    assert result.detected == reference.detected
    assert result.survival_probability == reference.survival_probability
    assert result.loss_probability == reference.loss_probability
    assert result.final_fidelity == reference.final_fidelity
    assert np.array_equal(result.final_state.amplitudes, reference.final_state.amplitudes)
    assert len(result.cycle_log) == len(reference.cycle_log)
    for got, want in zip(result.cycle_log, reference.cycle_log):
        assert got.aux_outcome == want.aux_outcome
        assert got.branch_probability == want.branch_probability
        assert np.array_equal(got.state_after.amplitudes, want.state_after.amplitudes)


def assert_trial_is_run(trial, result):
    """A trial sample_trials yields, the leaf it survived to or None, against
    run_protocol on the trial's seed."""
    assert (trial is None) == result.detected
    if trial is not None:
        assert trial.final_fidelity == result.final_fidelity
        assert np.array_equal(trial.amps, result.final_state.amplitudes)


def count_path_steps(monkeypatch) -> list:
    """The depth each no-error path step (_OutcomeTree._no_error) reaches from
    now on; a trial stepped on its own, by _OutcomeTree.trial, fails."""
    steps = []
    real = protocol_module._OutcomeTree._no_error

    def spy(tree, x, depth):
        steps.append(depth + 1)
        return real(tree, x, depth)

    def refuse(*args):
        raise AssertionError("a trial was stepped on its own")

    monkeypatch.setattr(protocol_module._OutcomeTree, "_no_error", spy)
    monkeypatch.setattr(protocol_module._OutcomeTree, "trial", refuse)
    return steps


def assert_path_is_the_child_walk(data, noise, schedule):
    """The no-error path a row steps and a post-selected replay of it equal
    a trial whose draws never measure 1, and the per-cycle circuit, bit for
    bit: the Born probabilities of 1, the end and the survival."""
    tree, walk = (protocol_module._OutcomeTree(data, noise, schedule) for _ in range(2))
    while tree._grow():
        pass
    p_one, noisy = [], walk._noisy

    def spy(amps, depth):
        x, prob = noisy(amps, depth)
        p_one.append(prob)
        return x, prob

    walk._noisy = spy
    steps, walked = walk.trial(ScriptedGenerator([math.inf] * schedule.cycles))
    # every cycle measures 0, and one that detects with certainty is no step
    assert [outcome for outcome, _, _ in steps] == [0] * (tree.length - walked.detected)
    survival, log_survival = 1.0, 0.0
    for prob in [prob for _, prob, _ in steps] + [0.0] * walked.detected:
        survival *= prob
        log_survival += math.log(prob) if prob else -math.inf
    if survival < sys.float_info.min:
        survival = math.exp(log_survival)
    assert tree.p_one[:tree.length].tolist() == p_one
    end = tree.end
    assert (end.detected, end.final_fidelity) == (walked.detected, walked.final_fidelity)
    assert end.amps.tobytes() == walked.amps.tobytes()
    post = dataclasses.replace(schedule, measurement_mode=MODE_POST_SELECTED, seed=None)
    row = protocol_module._row_result(data, noise, post, schedule.cycles)
    assert row[:4] == (survival, 1.0 - survival, walked.final_fidelity, walked.detected)
    assert row.amplitudes.tobytes() == walked.amps.tobytes()
    reference, detected, state, _, _ = per_cycle_reference(data, noise, post)
    assert (reference, detected) == (survival, walked.detected)
    assert state.amplitudes.tobytes() == walked.amps.tobytes()


def stochastic_config(strategy, policy, lam, mu, amps, n_values, trials, seed, total_time=1.0):
    size = 2 if strategy == AUX_SINGLE else 3
    return parse_config(
        f"alpha0_re = {amps[0]!r}\nalpha0_im = {amps[1]!r}\n"
        f"alpha1_re = {amps[2]!r}\nalpha1_im = {amps[3]!r}\n"
        "lambda = " + ", ".join(repr(x) for x in lam[:size]) + "\n"
        "mu = " + ", ".join(repr(x) for x in mu[:size]) + "\n"
        f"total_time = {total_time!r}\n"
        "n_values = " + ", ".join(str(n) for n in n_values) + "\n"
        f"aux_strategy = {strategy}\nmode = stochastic\nabort_policy = {policy}\n"
        f"trials = {trials}\nseed = {seed}\n"
    )


def assert_matches_per_cycle_engine(config):
    """The sweep rows, and run_protocol on every trial seed, equal the
    per-cycle engine's float for float."""
    data, noise = config.data, config.noise
    for row, n in zip(run_sweep(config).rows, config.n_values):
        assert not row.failed, row.error
        want = per_cycle.stochastic_point(config, data, noise, n)
        got = (row.survival_probability, row.mean_post_selected_fidelity, row.detection_rate)
        assert np.array_equal(got, want, equal_nan=True)
        for trial in range(config.trials):
            schedule = dataclasses.replace(
                config.schedule, cycles=n, seed=derive_trial_seed(config.schedule.seed, n, trial)
            )
            assert_same_run(
                run_protocol(data, noise, schedule), per_cycle.run_stochastic(data, noise, schedule)
            )


class TestSharedTreeEngine:
    @settings(max_examples=60, deadline=None)
    @given(
        strategy=st.sampled_from([AUX_SINGLE, AUX_DUAL_ALTERNATING]),
        policy=st.sampled_from([ABORT_ON_DETECT, RESET_AND_CONTINUE]),
        lam=st.lists(st.floats(0.0, 1.5), min_size=3, max_size=3),
        mu=st.lists(st.floats(0.0, 0.5), min_size=3, max_size=3),
        amps=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
            lambda a: np.hypot.reduce(a) > 1e-3
        ),
        n=st.integers(1, 32),
        trials=st.integers(1, 50),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_matches_per_cycle_engine(self, strategy, policy, lam, mu, amps, n, trials, seed):
        config = stochastic_config(strategy, policy, lam, mu, amps, (n,), trials, seed)
        assert_matches_per_cycle_engine(config)

    @pytest.mark.parametrize("policy", [ABORT_ON_DETECT, RESET_AND_CONTINUE])
    def test_certain_detection(self, policy):
        # a quarter flip rotation of the data qubit before the only cycle:
        # the auxiliary reads 1 with probability 1 - 4e-16
        config = stochastic_config(
            AUX_SINGLE, policy, (np.pi / 2, 0.0), (0.0, 0.0), (0.6, 0.0, 0.8, 0.0), (1,), 20, 5
        )
        assert run_sweep(config).rows[0].detection_rate == 1.0
        assert_matches_per_cycle_engine(config)

    def test_draws_cross_block_boundaries(self):
        # more cycles than one block of draws holds, with an auxiliary
        # reading 1 in about one cycle of ten throughout
        n = DRAW_BLOCK + 44
        config = stochastic_config(
            AUX_DUAL_ALTERNATING, RESET_AND_CONTINUE, (0.9, 0.6, 0.3), (0.1, 0.2, 0.0),
            (0.6, 0.0, 0.0, 0.8), (n,), 3, 11, total_time=100.0,
        )
        assert_matches_per_cycle_engine(config)
        schedule = ZenoSchedule(100.0, n, aux_strategy=AUX_DUAL_ALTERNATING,
                                measurement_mode=MODE_STOCHASTIC, seed=11,
                                abort_policy=RESET_AND_CONTINUE)
        late = [c.aux_outcome for c in run_protocol(config.data, config.noise,
                                                    schedule).cycle_log[DRAW_BLOCK:]]
        assert 1 in late

    def test_block_draws_equal_scalar_draws(self):
        for seed in (0, 42, 2**64 - 1):
            block, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = block.random(7).tolist() + block.random(DRAW_BLOCK).tolist()
            assert drawn == [scalar.random() for _ in range(7 + DRAW_BLOCK)]

    def test_reset_row_builds_no_tail(self, monkeypatch):
        # reset-and-continue trials that often measure 1: the row builds its
        # no-error path and steps nothing past any trial's first 1
        config = stochastic_config(
            AUX_SINGLE, RESET_AND_CONTINUE, (1.2, 0.4), (0.0, 0.0), (0.6, 0.0, 0.8, 0.0),
            (16,), 20, 3,
        )
        steps = count_path_steps(monkeypatch)
        (row,) = run_sweep(config).rows
        assert 0 < row.detection_rate < 1
        assert steps == list(range(1, len(steps) + 1)) and len(steps) <= 16
        monkeypatch.undo()
        assert_matches_per_cycle_engine(config)

    @pytest.mark.parametrize(
        "lam, draws, failing_cycle",
        [
            # measured 0 although the no-error branch holds ~1e-33
            ((np.pi / 2, 0.0), [1.0 - 2.0**-53], 0),
            # measured 1 although the failure branch holds ~1e-17
            ((1e-8, 0.0), [0.5, 0.0, 0.5], 1),
        ],
    )
    def test_zero_probability_branch_detects(self, monkeypatch, lam, draws, failing_cycle):
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec(lam=lam)
        schedule = ZenoSchedule(1.0, len(draws), measurement_mode=MODE_STOCHASTIC, seed=0)
        script_draws(monkeypatch, draws)
        reference = per_cycle.run_stochastic(data, noise, schedule)
        assert reference.detected and len(reference.cycle_log) == failing_cycle
        script_draws(monkeypatch, draws)
        assert_same_run(run_protocol(data, noise, schedule), reference)

    def test_draw_equal_to_born_probability_measures_zero(self, monkeypatch):
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec.flip(0.3, 2)
        schedule = ZenoSchedule(1.0, 2, measurement_mode=MODE_STOCHASTIC, seed=0)
        script_draws(monkeypatch, [0.0, 0.0])
        p_one = per_cycle.run_stochastic(data, noise, schedule).cycle_log[0].branch_probability
        script_draws(monkeypatch, [p_one, 0.5])
        reference = per_cycle.run_stochastic(data, noise, schedule)
        assert [c.aux_outcome for c in reference.cycle_log] == [0, 0]
        script_draws(monkeypatch, [p_one, 0.5])
        assert_same_run(run_protocol(data, noise, schedule), reference)

    def test_criterion_8_csv_is_byte_identical(self, tmp_path):
        # the configuration of acceptance criterion 8
        config = stochastic_config(
            AUX_SINGLE, ABORT_ON_DETECT, (0.1, 0.1), (0.0, 0.0), (0.6, 0.0, 0.8, 0.0),
            (4, 8), 150, 20240811,
        )
        data, noise = config.data, config.noise
        reference = SweepResult(
            rows=[
                SweepRow(n, *per_cycle.stochastic_point(config, data, noise, n),
                         single_qubit_survival(0.1, 1.0, n), 0.0)
                for n in config.n_values
            ]
        )
        paths = [tmp_path / name for name in ("engine-a.csv", "engine-b.csv", "reference.csv")]
        write_csv(run_sweep(config), paths[0])
        write_csv(run_sweep(config), paths[1])
        write_csv(reference, paths[2])
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    def test_engine_builds_the_propagator_once(self, monkeypatch):
        calls = []
        real = protocol_module.propagator
        monkeypatch.setattr(
            protocol_module, "propagator", lambda *a: calls.append(a) or real(*a)
        )
        schedule = ZenoSchedule(1.0, 8, measurement_mode=MODE_STOCHASTIC, seed=0)
        trials = list(sample_trials(new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.3, 2), schedule,
                                    100))
        assert len(trials) == 100 and len(calls) == 1

    def test_batch_boundaries_do_not_move_a_row(self, monkeypatch):
        # ten trials a row in batches of 3, 3, 3 and 1, each derived and
        # seeded on arrays
        monkeypatch.setattr(protocol_module, "SEED_BATCH", 3)
        config = stochastic_config(
            AUX_DUAL_ALTERNATING, RESET_AND_CONTINUE, (0.9, 0.6, 0.3), (0.1, 0.2, 0.0),
            (0.6, 0.0, 0.0, 0.8), (3, 6), 10, 2**64 - 1,
        )
        assert_matches_per_cycle_engine(config)

    def test_seeds_are_read_lazily(self, monkeypatch):
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.6, 2)
        schedule = ZenoSchedule(1.0, 8, measurement_mode=MODE_STOCHASTIC, seed=0)
        calls = []

        def derive(master, n, t):
            calls.append(t)
            return t

        monkeypatch.setattr(protocol_module, "derive_trial_seed", derive)
        trials = itertools.islice(sample_trials(data, noise, schedule, 10**12), 5)
        for seed, trial in enumerate(trials):
            assert_trial_is_run(trial, run_protocol(data, noise,
                                                    dataclasses.replace(schedule, seed=seed)))
        assert seed == 4
        (indices,) = calls
        assert indices.dtype == np.uint64
        assert np.array_equal(indices, np.arange(protocol_module.SEED_BATCH))

    @pytest.mark.parametrize("route", ["array", "generator"])
    def test_run_protocol_takes_the_seeds_sample_trials_takes(self, monkeypatch, route):
        # the eight edge seeds, derived for trials 0 to 7, seeded by
        # _seed_words and walked on either route of _batch_trials
        if route == "array":
            monkeypatch.setattr(protocol_module, "ARRAY_TRIALS_PER_CYCLE", 0)
            monkeypatch.setattr(protocol_module, "ARRAY_MIN_TRIALS", 0)
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.9, 2)
        schedule = ZenoSchedule(1.0, 8, measurement_mode=MODE_STOCHASTIC, seed=0)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, np.uint64(2**64 - 1), True]
        monkeypatch.setattr(protocol_module, "derive_trial_seed",
                            lambda master, n, t: np.array(seeds, dtype=np.uint64)[t])
        trials = sample_trials(data, noise, schedule, len(seeds))
        for seed, trial in zip(seeds, trials, strict=True):
            assert_trial_is_run(trial, run_protocol(data, noise,
                                                    dataclasses.replace(schedule, seed=seed)))

    @pytest.mark.parametrize("trials", [1, 2, 5])
    def test_few_trials_take_seed_words(self, monkeypatch, trials):
        # a row of a few trials derives and hashes its seeds on arrays like
        # any other; no trial is seeded through default_rng
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.6, 2)
        schedule = ZenoSchedule(1.0, 8, measurement_mode=MODE_STOCHASTIC, seed=5)
        want = [run_protocol(data, noise, dataclasses.replace(schedule, seed=seed))
                for seed in trial_seeds(schedule, trials)]
        hashed = []
        real = protocol_module._seed_words

        def spy(seeds):
            hashed.append(seeds.copy())
            return real(seeds)

        def refuse(*args):
            raise AssertionError("a few-trial row went through default_rng")

        monkeypatch.setattr(protocol_module, "_seed_words", spy)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        got = list(sample_trials(data, noise, schedule, trials))
        (seeds,) = hashed
        assert seeds.tolist() == trial_seeds(schedule, trials)
        for trial, result in zip(got, want, strict=True):
            assert_trial_is_run(trial, result)

    def test_rejects_post_selected_schedule(self):
        with pytest.raises(ValueError, match="stochastic"):
            sample_trials(new_state(1), NoiseSpec.zero(2), ZenoSchedule(1.0, 2), 1)

    @pytest.mark.parametrize("trials", [-3, 2.5])
    def test_bad_trial_count_is_named(self, trials):
        schedule = ZenoSchedule(1.0, 2, measurement_mode=MODE_STOCHASTIC, seed=0)
        with pytest.raises(ValueError, match=re.escape(f"trials must be a non-negative integer, "
                                                       f"got {trials!r}")):
            sample_trials(new_state(1), NoiseSpec.zero(2), schedule, trials)

    @settings(max_examples=40, deadline=None)
    @given(
        strategy=st.sampled_from([AUX_SINGLE, AUX_DUAL_ALTERNATING]),
        policy=st.sampled_from([ABORT_ON_DETECT, RESET_AND_CONTINUE]),
        trials=st.integers(1, 40),
        batch=st.sampled_from([3, 5, 16]),
        master=st.integers(0, 2**64 - 1),
    )
    def test_every_trial_is_run_protocol_on_its_seed(self, strategy, policy, trials, batch,
                                                     master):
        # every cut of the trials into batches; hypothesis rejects
        # function-scoped monkeypatch, so the constant is patched here
        size = 2 if strategy == AUX_SINGLE else 3
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec((0.9, 0.6, 0.3)[:size], (0.1, 0.2, 0.0)[:size])
        schedule = ZenoSchedule(2.0, 6, aux_strategy=strategy, measurement_mode=MODE_STOCHASTIC,
                                seed=master, abort_policy=policy)
        with mock.patch.object(protocol_module, "SEED_BATCH", batch):
            sampled = list(sample_trials(data, noise, schedule, trials))
        assert len(sampled) == trials
        for trial, seed in zip(sampled, trial_seeds(schedule, trials), strict=True):
            assert_trial_is_run(trial, run_protocol(data, noise,
                                                    dataclasses.replace(schedule, seed=seed)))

    def test_many_short_trials_build_no_generator(self, monkeypatch):
        # the fewest trials per cycle that the array route takes
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.6, 2)
        schedule = ZenoSchedule(1.0, 8, measurement_mode=MODE_STOCHASTIC, seed=7)
        trials = (protocol_module.ARRAY_TRIALS_PER_CYCLE * schedule.cycles
                  + protocol_module.ARRAY_MIN_TRIALS)
        want = [run_protocol(data, noise, dataclasses.replace(schedule, seed=seed))
                for seed in trial_seeds(schedule, trials)]

        def refuse(*args, **kwargs):
            raise AssertionError("a many-trial row built a generator")

        for name in ("PCG64", "Generator", "default_rng"):
            monkeypatch.setattr(np.random, name, refuse)
        got = list(sample_trials(data, noise, schedule, trials))
        assert None in got and any(trial is not None for trial in got)
        for trial, result in zip(got, want, strict=True):
            assert_trial_is_run(trial, result)

    @pytest.mark.parametrize("trials, cycles", [
        (100, 64), (100, 256), (protocol_module.SEED_BATCH, protocol_module.ARRAY_MAX_CYCLES + 1),
        (protocol_module.ARRAY_TRIALS_PER_CYCLE * 4 + protocol_module.ARRAY_MIN_TRIALS - 1, 4),
    ])
    def test_long_trials_keep_their_generators(self, monkeypatch, trials, cycles):
        # the stochastic-reset rows, a full batch of trials one cycle past
        # ARRAY_MAX_CYCLES, and a batch one trial short of the array route
        def refuse(*args):
            raise AssertionError("a long-trial row drew on arrays")

        monkeypatch.setattr(protocol_module, "_pcg64_random", refuse)
        schedule = ZenoSchedule(4.0, cycles, aux_strategy=AUX_DUAL_ALTERNATING,
                                measurement_mode=MODE_STOCHASTIC, seed=0,
                                abort_policy=RESET_AND_CONTINUE)
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((0.4, 0.3, 0.2), (0.2, 0.1, 0.0))
        sampled = list(sample_trials(data, noise, schedule, trials))
        assert len(sampled) == trials
        seeds = trial_seeds(schedule, trials)
        for t in (0, trials - 1):
            assert_trial_is_run(sampled[t], run_protocol(
                data, noise, dataclasses.replace(schedule, seed=seeds[t])))

    @pytest.mark.parametrize("trials, cycles", [
        (protocol_module.ARRAY_TRIALS_PER_CYCLE * 8 + protocol_module.ARRAY_MIN_TRIALS, 8),
        (protocol_module.SEED_BATCH + 100, 8),
        (protocol_module.SEED_BATCH, protocol_module.ARRAY_MAX_CYCLES),
    ])
    def test_an_array_batch_draws_in_one_call(self, monkeypatch, trials, cycles):
        # the smallest array batch, a full batch and the 100 trials after it,
        # and the longest trials the array route takes
        calls = []
        real = protocol_module._pcg64_random

        def spy(state, k):
            calls.append((state.shape[1], k))
            return real(state, k)

        monkeypatch.setattr(protocol_module, "_pcg64_random", spy)
        schedule = ZenoSchedule(1.0, cycles, measurement_mode=MODE_STOCHASTIC, seed=7)
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.6, 2)
        sampled = list(sample_trials(data, noise, schedule, trials))
        assert len(sampled) == trials and None in sampled
        batches = [min(protocol_module.SEED_BATCH, trials - start)
                   for start in range(0, trials, protocol_module.SEED_BATCH)]
        assert calls == [(batch, cycles) for batch in batches]

    def test_an_array_batch_holds_a_bounded_draw(self):
        # a full batch of the longest trials the array route takes draws
        # SEED_BATCH * ARRAY_MAX_CYCLES uniforms; stepping and rotating them
        # in place holds about three such uint64 arrays at once
        batch, cycles = protocol_module.SEED_BATCH, protocol_module.ARRAY_MAX_CYCLES
        schedule = ZenoSchedule(1.0, cycles, measurement_mode=MODE_STOCHASTIC, seed=0)
        tree = protocol_module._OutcomeTree(new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.6, 2),
                                            schedule)
        tracemalloc.start()
        try:
            sampled = list(protocol_module._batch_trials(tree, 7, 0, batch))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sampled) == batch and None in sampled
        assert peak <= 5 * batch * cycles * 8

    def test_an_array_batch_compares_its_trials_at_once(self, monkeypatch):
        # no trial is walked on its own, and the batch steps its no-error
        # path once a cycle
        batch, cycles = protocol_module.SEED_BATCH, 8
        schedule = ZenoSchedule(1.0, cycles, measurement_mode=MODE_STOCHASTIC, seed=0)
        tree = protocol_module._OutcomeTree(new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.6, 2),
                                            schedule)
        steps = count_path_steps(monkeypatch)

        def refuse(*args, **kwargs):
            raise AssertionError("an array batch walked a trial on its own")

        monkeypatch.setattr(protocol_module._OutcomeTree, "survives", refuse)
        monkeypatch.setattr(protocol_module._OutcomeTree, "trial", refuse)
        sampled = list(protocol_module._batch_trials(tree, 7, 0, batch))
        assert len(sampled) == batch and None in sampled
        assert all(trial is None or trial is tree.end for trial in sampled)
        assert steps == list(range(1, cycles + 1))

    @settings(max_examples=60, deadline=None)
    @given(
        strategy=st.sampled_from([AUX_SINGLE, AUX_DUAL_ALTERNATING]),
        policy=st.sampled_from([ABORT_ON_DETECT, RESET_AND_CONTINUE]),
        cycles=st.integers(1, 32),
        offset=st.integers(-2, 2),
        master=st.integers(0, 2**64 - 1),
    )
    def test_path_walk_is_the_per_trial_walk(self, strategy, policy, cycles, offset, master):
        # trials on both sides of the array rule's edge, each on its seed's
        # uniforms, one more trial whose every draw is the first cycle's Born
        # probability of 1, which measures 0 there, and one whose every draw
        # is its depth's; each compared with the whole path at once, block
        # by block on a generator, and cycle by cycle down the tree
        size = 2 if strategy == AUX_SINGLE else 3
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec((0.9, 0.6, 0.3)[:size], (0.1, 0.2, 0.0)[:size])
        schedule = ZenoSchedule(2.0, cycles, aux_strategy=strategy,
                                measurement_mode=MODE_STOCHASTIC, seed=master, abort_policy=policy)
        trials = (protocol_module.ARRAY_TRIALS_PER_CYCLE * cycles
                  + protocol_module.ARRAY_MIN_TRIALS + offset)
        array_tree, generator_tree, tree, full = (
            protocol_module._OutcomeTree(data, noise, schedule) for _ in range(4))
        while full._grow():
            pass
        edge = full.p_one[:full.length].tolist() + [0.5] * (cycles - full.length)
        draws = np.array([np.random.default_rng(seed).random(cycles)
                          for seed in trial_seeds(schedule, trials)]
                         + [[tree.p_one[0]] * cycles, edge])
        survived = array_tree.survivors(draws)
        lone = [tree.trial(ScriptedGenerator(row))[1] for row in draws]
        assert survived.tolist() == [generator_tree.survives(ScriptedGenerator(row))
                                     for row in draws]
        for alive, want in zip(survived.tolist(), lone, strict=True):
            assert alive != want.detected
            if alive:
                assert array_tree.end.final_fidelity == want.final_fidelity
                assert np.array_equal(array_tree.end.amps, want.amps)
        # a warm path hands every survivor its one leaf, on either route
        routed = protocol_module._batch_trials(array_tree, master, 0, trials)
        assert all(trial is array_tree.end if alive else trial is None
                   for trial, alive in zip(routed, survived[:trials].tolist(), strict=True))
        # the edge trial alone steps a cold path through every depth it reaches
        cold = [protocol_module._OutcomeTree(data, noise, schedule) for _ in range(2)]
        assert cold[0].survives(ScriptedGenerator(edge)) == (not full.end.detected)
        assert cold[1].survivors(np.array([edge])).tolist() == [not full.end.detected]
        assert survived[-1] == (not full.end.detected)

    @pytest.mark.parametrize("policy", [ABORT_ON_DETECT, RESET_AND_CONTINUE])
    @pytest.mark.parametrize("lam, rows", [
        # the no-error branch holds ~1e-33 in the first cycle
        ((np.pi / 2, 0.0), [[1.0 - 2.0**-53], [0.0], [0.5]]),
        # the failure branch holds ~1e-17 in the second cycle
        ((1e-8, 0.0), [[0.5, 0.0, 0.5], [0.5, 0.5, 0.5], [0.0, 0.5, 0.5], [0.5, 0.0, 0.0]]),
        # the no-error branch holds ~1e-33 in the first of two cycles, so the
        # path ends inside a trial's block of draws
        ((np.pi, 0.0), [[0.5, 0.5], [0.0, 0.5]]),
    ])
    def test_path_walk_of_zero_branches(self, policy, lam, rows):
        schedule = ZenoSchedule(1.0, len(rows[0]), measurement_mode=MODE_STOCHASTIC, seed=0,
                                abort_policy=policy)
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec(lam=lam)
        tree = protocol_module._OutcomeTree(data, noise, schedule)
        # and a trial whose draws equal the first cycle's Born probability of 1
        draws = np.array(rows + [[tree.p_one[0]] * len(rows[0])])
        survived = protocol_module._OutcomeTree(data, noise, schedule).survivors(draws)
        generator_tree = protocol_module._OutcomeTree(data, noise, schedule)
        lone = [tree.trial(ScriptedGenerator(row)) for row in draws]
        # a trial that detects with no 1 on record detected with certainty
        assert any(end.detected and all(outcome == 0 for outcome, _, _ in steps)
                   for steps, end in lone)
        assert survived.tolist() == [not end.detected for _, end in lone]
        assert [generator_tree.survives(ScriptedGenerator(row))
                for row in draws] == survived.tolist()

    @pytest.mark.parametrize("strategy", [AUX_SINGLE, AUX_DUAL_ALTERNATING])
    @pytest.mark.parametrize("policy", [ABORT_ON_DETECT, RESET_AND_CONTINUE])
    def test_a_trial_starts_from_the_encoded_register(self, strategy, policy):
        # a row's path moves the tree's x to its deepest register; a trial on
        # that tree still starts from the encoded register, and gives the
        # steps and end of a trial on a fresh tree, bit for bit
        size = 2 if strategy == AUX_SINGLE else 3
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec((0.9, 0.6, 0.3)[:size], (0.1, 0.2, 0.0)[:size])
        schedule = ZenoSchedule(2.0, 12, aux_strategy=strategy, measurement_mode=MODE_STOCHASTIC,
                                seed=0, abort_policy=policy)
        fresh, grown, surveyed = (protocol_module._OutcomeTree(data, noise, schedule)
                                  for _ in range(3))
        while grown._grow():
            pass
        assert grown.length == 12 and not grown.end.detected
        # each draw of the first row equals its depth's Born probability of 1
        # on the path, and measures 0; the second row measures 1 at depth 1
        path = grown.p_one.tolist()
        draws = np.array([path, path[:1] + [0.0] + [0.5] * 10, [0.0] * 12]
                         + [np.random.default_rng(seed).random(12) for seed in range(5)])
        surveyed.survivors(draws)
        assert surveyed.length == 12

        def run(tree, row):
            steps, end = tree.trial(ScriptedGenerator(row))
            return ([(outcome, prob, amps.tobytes()) for outcome, prob, amps in steps],
                    end.detected, end.final_fidelity, end.amps.tobytes())

        want = [run(fresh, row) for row in draws]
        assert [outcome for outcome, _, _ in want[0][0]] == [0] * 12
        assert [outcome for outcome, _, _ in want[1][0]][:2] == [0, 1]
        assert [run(grown, row) for row in draws] == want
        assert [run(surveyed, row) for row in draws] == want

    @settings(max_examples=60, deadline=None)
    @given(
        strategy=st.sampled_from([AUX_SINGLE, AUX_DUAL_ALTERNATING]),
        lam=st.lists(st.floats(0.0, 40.0), min_size=3, max_size=3),
        mu=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        amps=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
            lambda a: np.hypot.reduce(a) > 1e-3
        ),
        n=st.integers(1, 64),
    )
    def test_path_steps_are_the_child_walk(self, strategy, lam, mu, amps, n):
        # lambda up to 40 over T = 1: most paths hold a depth whose Born
        # probability of 1 passes 1/2; certain detection is the next test's
        size = 2 if strategy == AUX_SINGLE else 3
        data = new_state(1, [complex(amps[0], amps[1]), complex(amps[2], amps[3])])
        noise = NoiseSpec(lam=tuple(lam[:size]), mu=tuple(mu[:size]))
        schedule = ZenoSchedule(1.0, n, aux_strategy=strategy, measurement_mode=MODE_STOCHASTIC,
                                seed=0)
        assert_path_is_the_child_walk(data, noise, schedule)

    @pytest.mark.parametrize("strategy", [AUX_SINGLE, AUX_DUAL_ALTERNATING])
    @pytest.mark.parametrize("lam, cycles", [
        # test_path_walk_of_zero_branches' paths: the no-error branch holds
        # ~1e-33 in the first cycle, the failure branch ~1e-17 in the second,
        # the no-error branch ~1e-33 in the first of two cycles
        (np.pi / 2, 1), (1e-8, 3), (np.pi, 2),
    ])
    def test_zero_branch_path_steps_are_the_child_walk(self, strategy, lam, cycles):
        size = 2 if strategy == AUX_SINGLE else 3
        schedule = ZenoSchedule(1.0, cycles, aux_strategy=strategy,
                                measurement_mode=MODE_STOCHASTIC, seed=0)
        noise = NoiseSpec(lam=(lam,) + (0.0,) * (size - 1))
        assert_path_is_the_child_walk(new_state(1, [0.6, 0.8]), noise, schedule)

    def test_a_whole_path_is_compared_without_stepping_it(self, monkeypatch):
        # once the path has its end, a generator trial compares its blocks
        # with p_one and steps nothing; a path that ends in certain
        # detection leaves every trial detecting without a draw
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((0.9, 0.6, 0.3))
        schedule = ZenoSchedule(4.0, DRAW_BLOCK + 44, aux_strategy=AUX_DUAL_ALTERNATING,
                                measurement_mode=MODE_STOCHASTIC, seed=0)
        whole, lazy = (protocol_module._OutcomeTree(data, noise, schedule) for _ in range(2))
        while whole._grow():
            pass
        want = [lazy.survives(np.random.default_rng(seed)) for seed in range(40)]
        assert True in want and False in want
        # a quarter flip rotation a slice: the first cycle detects with certainty
        certain = protocol_module._OutcomeTree(
            data, NoiseSpec((1.5 * np.pi, 0.0)),
            ZenoSchedule(1.0, 3, measurement_mode=MODE_STOCHASTIC, seed=0))
        assert not certain._grow() and certain.end.detected and certain.length == 1

        def refuse(*args):
            raise AssertionError("a trial on a whole path stepped it or drew")

        monkeypatch.setattr(protocol_module._OutcomeTree, "_grow", refuse)
        assert [whole.survives(np.random.default_rng(seed)) for seed in range(40)] == want
        assert not certain.survives(mock.Mock(random=refuse))

    @settings(max_examples=50, deadline=None)
    @given(
        strategy=st.sampled_from([AUX_SINGLE, AUX_DUAL_ALTERNATING]),
        policy=st.sampled_from([ABORT_ON_DETECT, RESET_AND_CONTINUE]),
        trials=st.integers(1, 40),
        cycles=st.integers(1, 12),
        per_cycle=st.sampled_from([0, 1, 3, 8]),
        batch=st.sampled_from([3, 7, 16, 4096]),
        master=st.integers(0, 2**64 - 1),
    )
    def test_every_route_gives_run_protocol_on_its_seed(self, strategy, policy, trials, cycles,
                                                        per_cycle, batch, master):
        # 0 trials per cycle sends every batch to the array route, 8 only
        # batches of short trials
        size = 2 if strategy == AUX_SINGLE else 3
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec((0.9, 0.6, 0.3)[:size], (0.1, 0.2, 0.0)[:size])
        schedule = ZenoSchedule(2.0, cycles, aux_strategy=strategy,
                                measurement_mode=MODE_STOCHASTIC, seed=master, abort_policy=policy)
        with mock.patch.multiple(protocol_module, ARRAY_TRIALS_PER_CYCLE=per_cycle,
                                 ARRAY_MIN_TRIALS=0, SEED_BATCH=batch):
            sampled = list(sample_trials(data, noise, schedule, trials))
        assert len(sampled) == trials
        for trial, seed in zip(sampled, trial_seeds(schedule, trials), strict=True):
            assert_trial_is_run(trial, run_protocol(data, noise,
                                                    dataclasses.replace(schedule, seed=seed)))

    def test_non_unitary_propagator_raises_norm_drift(self, monkeypatch):
        real = protocol_module.propagator
        monkeypatch.setattr(protocol_module, "propagator", lambda *a: 1.01 * real(*a))
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.3, 2)
        schedule = ZenoSchedule(1.0, 8, measurement_mode=MODE_STOCHASTIC, seed=0)
        with pytest.raises(NormDriftError):
            list(sample_trials(data, noise, schedule, 10))
        with pytest.raises(NormDriftError):
            run_protocol(data, noise, schedule)

    def test_nodes_are_built_without_state_objects(self, monkeypatch):
        schedule = ZenoSchedule(4.0, 64, aux_strategy=AUX_DUAL_ALTERNATING,
                                measurement_mode=MODE_STOCHASTIC, seed=0,
                                abort_policy=RESET_AND_CONTINUE)
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((0.9, 0.6, 0.3))
        tree = protocol_module._OutcomeTree(data, noise, schedule)

        def refuse(*args, **kwargs):
            raise AssertionError("a trial or a row built a state object")

        monkeypatch.setattr(StateVector, "__init__", refuse)
        monkeypatch.setattr(StateVector, "_wrap", classmethod(refuse))
        monkeypatch.setattr(CycleOutcome, "__init__", refuse)
        trials = [tree.trial(np.random.default_rng(seed)) for seed in range(50)]
        assert all(len(steps) == 64 for steps, _ in trials)
        assert any(end.detected for _, end in trials)
        sampled = list(protocol_module._batch_trials(tree, 0, 0, 50))
        assert None in sampled and any(trial is not None for trial in sampled)

    @settings(max_examples=25, deadline=None)
    @given(
        strategy=st.sampled_from([AUX_SINGLE, AUX_DUAL_ALTERNATING]),
        lam=st.lists(st.floats(0.0, 1.5), min_size=3, max_size=3),
        mu=st.lists(st.floats(0.0, 0.5), min_size=3, max_size=3),
        amps=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
            lambda a: np.hypot.reduce(a) > 1e-3
        ),
        n=st.integers(1, 64),
        trials=st.integers(1, 200),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_policy_does_not_move_a_row(self, strategy, lam, mu, amps, n, trials, seed):
        # a row reads each trial's detection and the one no-error leaf, so
        # the two policies give the same bits, and those of the per-cycle
        # engine, which walks every reset trial's tail
        rows = {}
        for policy in (ABORT_ON_DETECT, RESET_AND_CONTINUE):
            config = stochastic_config(strategy, policy, lam, mu, amps, (n,), trials, seed)
            (row,) = run_sweep(config).rows
            assert not row.failed, row.error
            rows[policy] = (row.survival_probability, row.mean_post_selected_fidelity,
                            row.detection_rate)
        assert np.array_equal(rows[ABORT_ON_DETECT], rows[RESET_AND_CONTINUE], equal_nan=True)
        want = per_cycle.stochastic_point(config, config.data, config.noise, n)
        assert np.array_equal(rows[RESET_AND_CONTINUE], want, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(
        strategy=st.sampled_from([AUX_SINGLE, AUX_DUAL_ALTERNATING]),
        policy=st.sampled_from([ABORT_ON_DETECT, RESET_AND_CONTINUE]),
        lam=st.lists(st.floats(0.0, 1.5), min_size=3, max_size=3),
        mu=st.lists(st.floats(0.0, 0.5), min_size=3, max_size=3),
        amps=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
            lambda a: np.hypot.reduce(a) > 1e-3
        ),
        n=st.integers(1, 64),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_survivors_have_the_post_selected_fidelity(self, strategy, policy, lam, mu, amps, n,
                                                       seed):
        # every survivor ends on the no-error leaf, which the post-selected
        # run reaches on another float path
        config = stochastic_config(strategy, policy, lam, mu, amps, (n,), 20, seed)
        (row,) = run_sweep(config).rows
        assume(row.survival_probability > 0)
        post = dataclasses.replace(config.schedule, cycles=n, measurement_mode=MODE_POST_SELECTED,
                                   seed=None)
        (reference,) = run_post_selected(config.data, config.noise, post, [n])
        assert row.mean_post_selected_fidelity == pytest.approx(reference.final_fidelity,
                                                                rel=1e-12, abs=0)

    @pytest.mark.parametrize("policy", [ABORT_ON_DETECT, RESET_AND_CONTINUE])
    def test_stochastic_reset_rows_build_their_paths_alone(self, monkeypatch, policy):
        # the stochastic-reset benchmark's configuration: each of its two rows
        # steps its no-error path once through every depth, n steps a row
        config = stochastic_config(
            AUX_DUAL_ALTERNATING, policy, (0.4, 0.3, 0.2), (0.2, 0.1, 0.0), (0.6, 0.0, 0.8, 0.0),
            (64, 256), 100, 42, total_time=4.0,
        )
        steps = count_path_steps(monkeypatch)
        rows = run_sweep(config).rows
        assert [row.detection_rate for row in rows] == [0.09, 0.03]
        assert steps == [*range(1, 64 + 1), *range(1, 256 + 1)]

    @pytest.mark.parametrize("trials", [5, 300])
    @pytest.mark.parametrize("policy", [ABORT_ON_DETECT, RESET_AND_CONTINUE])
    def test_early_detection_builds_no_deeper_than_its_trials(self, monkeypatch, policy, trials):
        # every trial measures 1 within a few of 32 cycles, on the
        # generator route and on the array route
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((1.5, 0.0))
        schedule = ZenoSchedule(20.0, 32, measurement_mode=MODE_STOCHASTIC, seed=9,
                                abort_policy=policy)
        aborting = dataclasses.replace(schedule, abort_policy=ABORT_ON_DETECT)
        # the depth of each trial's first 1: the last cycle of its aborted run
        reach = [len(run_protocol(data, noise, dataclasses.replace(aborting, seed=seed)).cycle_log)
                 - 1 for seed in trial_seeds(schedule, trials)]
        assert max(reach) < schedule.cycles - 1
        steps = count_path_steps(monkeypatch)
        sampled = list(sample_trials(data, noise, schedule, trials))
        assert sampled == [None] * trials
        assert steps == list(range(1, max(reach) + 1))

    def test_long_generator_row_holds_floats_not_nodes(self, monkeypatch):
        # two trials that survive 20 000 cycles: the path keeps 8 bytes a
        # depth, 16 while its array doubles, and no register behind its
        # deepest, where a register and its step take about 1 KiB
        n = 20_000
        schedule = ZenoSchedule(1.0, n, aux_strategy=AUX_DUAL_ALTERNATING,
                                measurement_mode=MODE_STOCHASTIC, seed=1)
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((0.1, 0.1, 0.1))
        # a short row first, so the caches and lazy imports it fills are not counted
        list(sample_trials(data, noise, dataclasses.replace(schedule, cycles=4), 2))
        tracemalloc.start()
        try:
            sampled = list(sample_trials(data, noise, schedule, 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(trial is not None and not trial.detected for trial in sampled)
        assert peak < 24 * n
        # the row steps its path through every depth
        steps = count_path_steps(monkeypatch)
        list(sample_trials(data, noise, schedule, 2))
        assert steps == list(range(1, n + 1))


class TestSeedWords:
    """Batched generator seeding reproduces numpy's SeedSequence word for
    word, and only stochastic runs load numpy.random for it."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_edge_seeds(self, seed):
        (words,) = protocol_module._seed_words(np.array([seed], dtype=np.uint64))
        assert words.dtype == np.uint64
        assert np.array_equal(words, np.random.SeedSequence(seed).generate_state(4, np.uint64))

    @settings(max_examples=100, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_random_seeds(self, seeds):
        words = protocol_module._seed_words(np.array(seeds, dtype=np.uint64))
        want = [np.random.SeedSequence(seed).generate_state(4, np.uint64) for seed in seeds]
        assert np.array_equal(words, want)

    def test_generators_are_in_the_default_rng_state(self):
        seeds = [0, 2**32, 2**64 - 1]
        for seed, words in zip(seeds, protocol_module._seed_words(np.array(seeds, dtype=np.uint64))):
            bit_generator = np.random.PCG64(protocol_module._seed_words_class()(words))
            assert bit_generator.state == np.random.PCG64(seed).state
            rng = np.random.Generator(bit_generator)
            assert rng.random(9).tolist() == np.random.default_rng(seed).random(9).tolist()

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64)])
    def test_seed_words_give_nothing_else(self, n_words, dtype):
        (words,) = protocol_module._seed_words(np.array([7], dtype=np.uint64))
        with pytest.raises(ValueError, match="4 uint64"):
            protocol_module._seed_words_class()(words).generate_state(n_words, dtype)

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="NumPy 1 imports numpy.random with numpy")
    def test_post_selected_runs_do_not_load_numpy_random(self):
        # only stochastic trials draw; numpy.random adds about 5 MiB of peak RSS
        code = (
            "import sys, zenosim as z\n"
            "z.run_protocol(z.new_state(1, [0.6, 0.8]), z.NoiseSpec.flip(0.1, 2), z.ZenoSchedule(1.0, 8))\n"
            "assert 'numpy.random' not in sys.modules\n"
            "z.run_protocol(z.new_state(1, [0.6, 0.8]), z.NoiseSpec.flip(0.1, 2),\n"
            "               z.ZenoSchedule(1.0, 8, measurement_mode='stochastic', seed=0))\n"
            "assert 'numpy.random' in sys.modules\n"
        )
        package_root = Path(protocol_module.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(package_root)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def array_draws(seeds, k):
    """The first ``k`` uniforms _pcg64_random draws for each of ``seeds``, in
    one call; the state it draws from is left as it was."""
    state = protocol_module._pcg64_state(
        protocol_module._seed_words(np.array(seeds, dtype=np.uint64)))
    before = state.copy()
    drawn = protocol_module._pcg64_random(state, k)
    assert np.array_equal(state, before)
    return drawn


class TestArrayDraws:
    """Uniforms drawn on uint64 arrays equal default_rng(seed).random bit for
    bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_edge_seeds(self, seed):
        # past the walk's DRAW_BLOCK, in one call
        (drawn,) = array_draws([seed], DRAW_BLOCK + 44)
        assert drawn.tolist() == np.random.default_rng(seed).random(DRAW_BLOCK + 44).tolist()

    @settings(max_examples=100, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20),
           k=st.integers(1, 2 * DRAW_BLOCK))
    def test_random_seeds(self, seeds, k):
        drawn = array_draws(seeds, k)
        want = [np.random.default_rng(seed).random(k) for seed in seeds]
        assert drawn.dtype == np.float64 and drawn.shape == (len(seeds), k)
        assert np.array_equal(drawn.view(np.uint64), np.array(want).view(np.uint64))

    def test_no_shift_reaches_the_word_width(self, monkeypatch):
        # an output rotated by 0 shifts left by (64 - 0) & 63 = 0: a shift by
        # 64 is undefined in C, and the draws must not rest on how NumPy
        # defines it. 200 seeds x 64 draws rotate by 0 about 200 times
        real = np.left_shift

        def checked(x, shift, **kwargs):
            assert int(np.max(shift)) < 64
            return real(x, shift, **kwargs)

        monkeypatch.setattr(np, "left_shift", checked)
        seeds = list(range(200))
        drawn = array_draws(seeds, 64)
        want = [np.random.default_rng(seed).random(64) for seed in seeds]
        assert np.array_equal(drawn.view(np.uint64), np.array(want).view(np.uint64))

    def test_state_is_pcg64s(self):
        seeds = [0, 2**32, 2**64 - 1]
        state = protocol_module._pcg64_state(
            protocol_module._seed_words(np.array(seeds, dtype=np.uint64)))
        for seed, (hi, lo, inc_hi, inc_lo) in zip(seeds, state.T.tolist()):
            want = np.random.PCG64(seed).state["state"]
            assert (hi << 64 | lo, inc_hi << 64 | inc_lo) == (want["state"], want["inc"])


class TestInvariantsComputedOnce:
    def test_cycle_masks_are_cached_and_read_only(self):
        for num_qubits in (2, 3):
            masks = protocol_module._cycle_masks(num_qubits)
            assert protocol_module._cycle_masks(num_qubits) is masks
            assert len(masks) == num_qubits - 1
            for keep, leak, keep_at, leak_at in masks:
                assert np.array_equal(keep + leak, np.ones(1 << num_qubits))
                # the gathers read the entries each mask keeps, in some order
                assert sorted(keep_at.tolist()) == np.flatnonzero(keep).tolist()
                assert sorted(leak_at.tolist()) == np.flatnonzero(leak).tolist()
                for mask in (keep, leak, keep_at, leak_at):
                    with pytest.raises(ValueError):
                        mask[0] = 0

    @pytest.mark.parametrize(
        "strategy, mode, n",
        [
            (AUX_SINGLE, MODE_POST_SELECTED, 1),
            (AUX_SINGLE, MODE_POST_SELECTED, 37),
            (AUX_DUAL_ALTERNATING, MODE_POST_SELECTED, 1),
            (AUX_DUAL_ALTERNATING, MODE_POST_SELECTED, 64),
            (AUX_DUAL_ALTERNATING, MODE_POST_SELECTED, 65),
            (AUX_DUAL_ALTERNATING, MODE_STOCHASTIC, 40),
        ],
    )
    def test_warm_cache_matches_cold(self, strategy, mode, n):
        size = 2 if strategy == AUX_SINGLE else 3
        noise = NoiseSpec((0.7, 0.5, 0.3)[:size], (0.2, 0.0, 0.1)[:size])
        schedule = ZenoSchedule(2.0, n, aux_strategy=strategy, measurement_mode=mode, seed=9,
                                abort_policy=RESET_AND_CONTINUE)
        data = new_state(1, [0.6, 0.8j])
        build_hamiltonian.cache_clear()
        cold = run_protocol(data, noise, schedule)
        warm = run_protocol(data, noise, schedule)
        build_hamiltonian.cache_clear()
        assert_same_run(warm, cold)
        assert_same_run(run_protocol(data, noise, schedule), cold)


class TestDecode:
    def test_round_trip_random(self, rng):
        for aux_count in (1, 2):
            for _ in range(20):
                data = random_state(1, rng)
                out = decode(encode(data, aux_count), aux_count)
                assert fidelity(out, data) > 1 - 1e-12

    def test_explicit_code_state(self):
        out = decode(new_state(2, [0.6, 0, 0, 0.8]), 1)
        np.testing.assert_allclose(out.amplitudes, [0.6, 0.8], atol=1e-12)

    def test_residual_auxiliary_amplitude_rejected(self):
        # 0.1 amplitude parked on the auxiliary survives the inverse CNOTs
        amps = np.array([0.6, 0.1, 0.0, 0.8])
        state = new_state(2, amps)
        with pytest.raises(ValueError, match="residual auxiliary amplitude"):
            decode(state, 1)

    def test_wrong_register_size(self):
        with pytest.raises(ValueError, match="register"):
            decode(new_state(2), 2)
