"""Encoder, measurement cycle, scheduler, and decoder contracts."""
import dataclasses
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
from zenosim import streams
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
    decode,
    derive_trial_seed,
    encode,
    evolve_exact,
    evolve_first_order,
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
        noisy = evolve_exact(state, NoiseSpec.flip(lam, 2), dt)
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


def per_cycle_reference(data, noise, schedule):
    """The post-selected run stepped cycle by cycle through the public gates.

    Returns (survival, detected, final state, encoded state, cycles completed).
    A survival below the normal floats is the exp of the cycles' summed
    log-probabilities, as run_protocol reports it.
    """
    aux_count = schedule.aux_count
    encoded = encode(data, aux_count)
    step = propagator(noise, 1 + aux_count, schedule.interval)
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

    def test_a_replay_steps_a_noise_slice_a_cycle(self, monkeypatch):
        # a whole replay of n cycles steps the slices before cycles 1 to n;
        # one that detects with certainty in cycle d + 1 stops at its slice
        depths = []
        real = protocol_module._OutcomeTree._noisy

        def spy(tree, amps, depth):
            depths.append(depth)
            return real(tree, amps, depth)

        monkeypatch.setattr(protocol_module._OutcomeTree, "_noisy", spy)
        data, schedule = new_state(1, [0.6, 0.8]), ZenoSchedule(1.0, 5)
        whole = protocol_module._row_result(data, NoiseSpec.flip(0.3, 2), schedule, 5)
        assert not whole.detected and depths == [0, 1, 2, 3, 4]
        # an eighth flip rotation of auxiliary 2 a slice: cycle 1 reads
        # auxiliary 1, which it leaves alone, and cycle 2 reads auxiliary 2
        # after a quarter rotation, which it detects for certain
        depths.clear()
        dual = dataclasses.replace(schedule, aux_strategy=AUX_DUAL_ALTERNATING)
        certain = protocol_module._row_result(data, NoiseSpec((0.0, 0.0, 1.25 * np.pi)), dual, 5)
        assert certain.detected and certain.survival_probability == 0.0 and depths == [0, 1]

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
        # r t = 2.5e308 overflows at n = 1; at n = 2 it is 1.25e308
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((1e154, 0.0))
        one, two = ZenoSchedule(2.5e154, 1), ZenoSchedule(2.5e154, 2)
        failure, result = run_post_selected(data, noise, one, [1, 2])
        assert isinstance(failure, ValueError)
        assert str(failure) == ("noise phase r*t must be finite, got inf "
                                "(qubit 0, r = 1e+154, t = 2.5e+154)")
        assert_row_is_run(result, run_protocol(data, noise, two))
        (alone,) = run_post_selected(data, noise, one, [1])
        assert isinstance(alone, ValueError) and str(alone) == str(failure)
        with pytest.raises(ValueError, match=re.escape(str(failure))):
            run_protocol(data, noise, one)

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

        def poisoned(spec, num_qubits, times):
            stack = real(spec, num_qubits, times)
            stack[2] = np.nan  # the row of n = 3
            return stack

        monkeypatch.setattr(protocol_module, "propagator", poisoned)
        rows = run_post_selected(data, noise, schedule, cycles)
        assert isinstance(rows[2], NormDriftError)
        assert str(rows[2]) == "norm drifted by nan (tolerance 1e-10)"
        for i in (0, 1, 3):
            assert rows[i][:4] == clean[i][:4]
            assert np.array_equal(rows[i].amplitudes, clean[i].amplitudes)

    def test_survival_outside_the_unit_interval_fails_only_its_row(self, monkeypatch):
        # a ladder whose roundoff runs away, as the eigh slice's did past
        # n ~ 2**56 (a row at n = 2**58 + 1 kept a mass of about 2e47); with
        # the closed-form slice no row up to n = 2**62 + 1 leaves [0, 1], so
        # the ladder's result is injected: the last row keeps 1e6 times its
        # mass, and leaks all of it
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((0.1, 0.1, 0.1))
        schedule = ZenoSchedule(1.0, 2**58 + 1, aux_strategy=AUX_DUAL_ALTERNATING)
        eight = dataclasses.replace(schedule, cycles=8)
        clean = run_protocol(data, noise, eight)
        real = protocol_module._pair_power

        def runaway(pair, powers):
            m, g = real(pair, powers)
            m[-1] *= 1e3
            g[-1] = np.eye(len(g[-1]))
            return m, g

        monkeypatch.setattr(protocol_module, "_pair_power", runaway)
        message = r"survival \S+ at n = 288230376151711745 is outside \[0, 1\]"
        with pytest.raises(ValueError, match=message):
            run_protocol(data, noise, schedule)
        regular, failure = run_post_selected(data, noise, schedule, [8, 2**58 + 1])
        assert isinstance(failure, ValueError) and re.fullmatch(message, str(failure))
        assert_row_is_run(regular, clean)

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
    uniforms in order, one at a time, in blocks, or into ``out``."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, size=None, out=None):
        if out is not None:
            out[:] = self.random(len(out))
            return out
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


def clear_engine_caches():
    """Empty the index caches a post-selected pass and the outcome tree read."""
    protocol_module._cycle_masks.cache_clear()
    protocol_module._kept_blocks.cache_clear()


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


def sample_masks(data, noise, schedule, trials) -> tuple[list, object]:
    """sample_trials' row of ``trials`` trials: whether each survived, from
    the mask each batch's _batch_trials returned, and the leaf. The batches
    cover the trials in order, at most SEED_BATCH each, the count is the
    masks' and the leaf is the tree's end, None where no trial survived."""
    masks, trees = [], []
    real = protocol_module._batch_trials

    def spy(tree, master_seed, start, stop):
        mask = real(tree, master_seed, start, stop)
        assert mask.dtype == bool and mask.shape == (stop - start,)
        assert start == sum(len(m) for m in masks) and stop - start <= protocol_module.SEED_BATCH
        masks.append(mask.copy())
        trees.append(tree)
        return mask

    with mock.patch.object(protocol_module, "_batch_trials", spy):
        survivors, leaf = sample_trials(data, noise, schedule, trials)
    survived = [alive for mask in masks for alive in mask.tolist()]
    assert type(survivors) is int and survivors == survived.count(True)
    assert len(survived) == trials
    assert leaf is (trees[0].end if survivors else None)
    return survived, leaf


def assert_trial_is_run(survived, leaf, result):
    """Whether a trial survived, and the leaf the row's survivors stand on,
    against run_protocol on the trial's seed."""
    assert survived != result.detected
    if survived:
        assert leaf.final_fidelity == result.final_fidelity
        assert np.array_equal(leaf.amps, result.final_state.amplitudes)


def walk_trials_alone(data, noise, schedule, trials) -> list:
    """The steps and end of each of ``trials`` trials of ``schedule``'s row,
    each walked on its own (_OutcomeTree.trial) on its seed's generator."""
    tree = protocol_module._OutcomeTree(data, noise, schedule)
    return [tree.trial(np.random.default_rng(seed)) for seed in trial_seeds(schedule, trials)]


def assert_trials_are_walked_alone(survived, leaf, walked):
    """Whether each sampled trial survived, and the leaf the survivors stand
    on, against the end of the same trial walked on its own, bit for bit."""
    for alive, (_, end) in zip(survived, walked, strict=True):
        assert alive != end.detected
        if alive:
            assert leaf.final_fidelity == end.final_fidelity
            assert leaf.amps.tobytes() == end.amps.tobytes()


def count_path_steps(monkeypatch) -> list:
    """The depth each no-error path step (_OutcomeTree._no_error) reaches from
    now on; a trial stepped on its own, by _OutcomeTree.trial, fails."""
    steps = []
    real = protocol_module._OutcomeTree._no_error

    def spy(tree, x, gathered, depth):
        steps.append(depth + 1)
        return real(tree, x, gathered, depth)

    def refuse(*args):
        raise AssertionError("a trial was stepped on its own")

    monkeypatch.setattr(protocol_module._OutcomeTree, "_no_error", spy)
    monkeypatch.setattr(protocol_module._OutcomeTree, "trial", refuse)
    return steps


def compare_in_blocks(tree, draws, width) -> list:
    """Which rows of the ``(trials, cycles)`` uniforms ``draws`` survive on
    ``tree``, handed to _OutcomeTree.survivors ``width`` columns at a time,
    as a generator batch hands it its blocks."""
    running = np.ones(len(draws), dtype=bool)
    for depth in range(0, draws.shape[1], width):
        running = tree.survivors(draws[:, depth:depth + width], running, depth)
    return running.tolist()


def assert_path_is_an_all_zero_trial(data, noise, schedule):
    """The no-error path a row steps and a post-selected replay of it equal
    a trial whose draws never measure 1, and the per-cycle circuit, bit for
    bit: the Born probabilities of 1, the end and the survival."""
    tree = protocol_module._OutcomeTree(data, noise, schedule)
    while tree._grow():
        pass
    # the tree steps the first noise slice; the trial, on the grown tree,
    # steps the others from it
    p_one, noisy = [tree.first[2]], tree._noisy

    def spy(amps, depth):
        x, gathered, prob = noisy(amps, depth)
        p_one.append(prob)
        return x, gathered, prob

    tree._noisy = spy
    steps, walked = tree.trial(ScriptedGenerator([math.inf] * schedule.cycles))
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
        # a flip rotation of the data qubit 2e-8 short of a quarter before
        # the only cycle: the auxiliary reads 1 with probability 1 - 4e-16
        config = stochastic_config(
            AUX_SINGLE, policy, (np.pi / 2 - 2e-8, 0.0), (0.0, 0.0), (0.6, 0.0, 0.8, 0.0), (1,),
            20, 5,
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
            # measured 0 although the no-error branch holds ~4e-16
            ((np.pi / 2 - 2e-8, 0.0), [1.0 - 2.0**-53], 0),
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
        survived, _ = sample_masks(new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.3, 2), schedule, 100)
        assert len(survived) == 100 and len(calls) == 1

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
        # a row derives its seeds a batch at a time, in order, and counts the
        # survivors run_protocol finds on them
        monkeypatch.setattr(protocol_module, "SEED_BATCH", 3)
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.6, 2)
        schedule = ZenoSchedule(1.0, 8, measurement_mode=MODE_STOCHASTIC, seed=0)
        calls = []

        def derive(master, n, t):
            calls.append(t)
            return t

        monkeypatch.setattr(streams, "derive_trial_seed", derive)
        survivors, _ = sample_trials(data, noise, schedule, 10)
        assert [indices.dtype for indices in calls] == [np.uint64] * 4
        assert [indices.tolist() for indices in calls] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]
        assert survivors == sum(
            not run_protocol(data, noise, dataclasses.replace(schedule, seed=seed)).detected
            for seed in range(10))
        assert 0 < survivors < 10

    @pytest.mark.parametrize("route", ["array", "generator"])
    def test_run_protocol_takes_the_seeds_sample_trials_takes(self, monkeypatch, route):
        # the eight edge seeds, derived for trials 0 to 7, seeded by
        # streams.trial_words and walked on either route of _batch_trials; an
        # ARRAY_MAX_CYCLES of 0 sends every batch to generators
        if route == "generator":
            monkeypatch.setattr(protocol_module, "ARRAY_MAX_CYCLES", 0)
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.9, 2)
        schedule = ZenoSchedule(1.0, 8, measurement_mode=MODE_STOCHASTIC, seed=0)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, np.uint64(2**64 - 1), True]
        monkeypatch.setattr(streams, "derive_trial_seed",
                            lambda master, n, t: np.array(seeds, dtype=np.uint64)[t])
        survived, leaf = sample_masks(data, noise, schedule, len(seeds))
        for seed, alive in zip(seeds, survived, strict=True):
            assert_trial_is_run(alive, leaf, run_protocol(data, noise,
                                                          dataclasses.replace(schedule, seed=seed)))

    @pytest.mark.parametrize("trials", [1, 2, 5])
    def test_few_trials_take_seed_words(self, monkeypatch, trials):
        # a row of a few short trials, one trial too, derives and hashes its
        # seeds on arrays like any other and draws on arrays, each trial the
        # uniforms of default_rng(seed).random: no trial is seeded through
        # default_rng, and no generator is built
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.6, 2)
        schedule = ZenoSchedule(1.0, 8, measurement_mode=MODE_STOCHASTIC, seed=5)
        want = [run_protocol(data, noise, dataclasses.replace(schedule, seed=seed))
                for seed in trial_seeds(schedule, trials)]
        uniforms = [np.random.default_rng(seed).random(8) for seed in trial_seeds(schedule, trials)]
        hashed, drawn = [], []
        real, real_random = streams.derive_trial_seed, streams.uniforms

        def spy(master, n, t):
            seeds = real(master, n, t)
            hashed.append(seeds.copy())
            return seeds

        def spy_random(words, k):
            drawn.append(real_random(words, k))
            return drawn[-1]

        def refuse(*args):
            raise AssertionError("a few-trial row went through numpy.random")

        monkeypatch.setattr(streams, "derive_trial_seed", spy)
        monkeypatch.setattr(streams, "uniforms", spy_random)
        for name in ("PCG64", "Generator", "default_rng"):
            monkeypatch.setattr(np.random, name, refuse)
        survived, leaf = sample_masks(data, noise, schedule, trials)
        (seeds,) = hashed
        assert seeds.tolist() == trial_seeds(schedule, trials)
        (draws,) = drawn
        assert np.array_equal(draws.view(np.uint64), np.array(uniforms).view(np.uint64))
        for alive, result in zip(survived, want, strict=True):
            assert_trial_is_run(alive, leaf, result)

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
            survived, leaf = sample_masks(data, noise, schedule, trials)
        assert len(survived) == trials
        for alive, seed in zip(survived, trial_seeds(schedule, trials), strict=True):
            assert_trial_is_run(alive, leaf, run_protocol(data, noise,
                                                          dataclasses.replace(schedule, seed=seed)))

    def test_many_short_trials_build_no_generator(self, monkeypatch):
        # 80 trials of 8 cycles, some detecting and some surviving
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.6, 2)
        schedule = ZenoSchedule(1.0, 8, measurement_mode=MODE_STOCHASTIC, seed=7)
        trials = 80
        want = [run_protocol(data, noise, dataclasses.replace(schedule, seed=seed))
                for seed in trial_seeds(schedule, trials)]

        def refuse(*args, **kwargs):
            raise AssertionError("a many-trial row built a generator")

        for name in ("PCG64", "Generator", "default_rng"):
            monkeypatch.setattr(np.random, name, refuse)
        survived, leaf = sample_masks(data, noise, schedule, trials)
        assert False in survived and True in survived
        for alive, result in zip(survived, want, strict=True):
            assert_trial_is_run(alive, leaf, result)

    @pytest.mark.parametrize("trials, cycles", [
        (100, 64), (100, 256), (protocol_module.SEED_BATCH, protocol_module.ARRAY_MAX_CYCLES + 1),
        (1, protocol_module.ARRAY_MAX_CYCLES + 1),
    ])
    def test_long_trials_keep_their_generators(self, monkeypatch, trials, cycles):
        # the stochastic-reset rows, and a full batch and a single trial one
        # cycle past ARRAY_MAX_CYCLES
        def refuse(*args):
            raise AssertionError("a long-trial row drew on arrays")

        monkeypatch.setattr(streams, "uniforms", refuse)
        schedule = ZenoSchedule(4.0, cycles, aux_strategy=AUX_DUAL_ALTERNATING,
                                measurement_mode=MODE_STOCHASTIC, seed=0,
                                abort_policy=RESET_AND_CONTINUE)
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((0.4, 0.3, 0.2), (0.2, 0.1, 0.0))
        survived, leaf = sample_masks(data, noise, schedule, trials)
        assert len(survived) == trials
        seeds = trial_seeds(schedule, trials)
        for t in (0, trials - 1):
            assert_trial_is_run(survived[t], leaf, run_protocol(
                data, noise, dataclasses.replace(schedule, seed=seeds[t])))

    @pytest.mark.parametrize("trials, cycles", [
        (47, 4), (80, 8), (protocol_module.SEED_BATCH + 100, 8),
        (protocol_module.SEED_BATCH, protocol_module.ARRAY_MAX_CYCLES),
    ])
    def test_an_array_batch_draws_in_one_call(self, monkeypatch, trials, cycles):
        # batches of about 10 trials per cycle, a full batch and the 100
        # trials after it, and the longest trials the array route takes
        calls = []
        real = streams.uniforms

        def spy(words, k):
            calls.append((len(words), k))
            return real(words, k)

        monkeypatch.setattr(streams, "uniforms", spy)
        schedule = ZenoSchedule(1.0, cycles, measurement_mode=MODE_STOCHASTIC, seed=7)
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.6, 2)
        survived, _ = sample_masks(data, noise, schedule, trials)
        assert len(survived) == trials and False in survived
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
            survived = protocol_module._batch_trials(tree, 7, 0, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert survived.shape == (batch,) and not survived.all()
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

        monkeypatch.setattr(protocol_module._OutcomeTree, "trial", refuse)
        survived = protocol_module._batch_trials(tree, 7, 0, batch)
        assert survived.dtype == bool and survived.shape == (batch,)
        assert survived.any() and not survived.all() and not tree.end.detected
        assert steps == list(range(1, cycles + 1))

    @settings(max_examples=60, deadline=None)
    @given(
        strategy=st.sampled_from([AUX_SINGLE, AUX_DUAL_ALTERNATING]),
        policy=st.sampled_from([ABORT_ON_DETECT, RESET_AND_CONTINUE]),
        cycles=st.integers(1, 32),
        trials=st.integers(1, 272),
        offset=st.integers(-2, 2),
        master=st.integers(0, 2**64 - 1),
    )
    def test_path_walk_is_the_per_trial_walk(self, strategy, policy, cycles, trials, offset,
                                             master):
        # trials of any count, each on its seed's uniforms, one more trial
        # whose every draw is the first cycle's Born probability of 1, which
        # measures 0 there, and one whose every draw is its depth's; each
        # compared with the whole path at once, five columns at a time as a
        # generator batch compares its blocks, and walked alone cycle by
        # cycle down the tree; the row is routed on both sides of the array
        # rule's edge, an ARRAY_MAX_CYCLES of cycles + offset, so a negative
        # offset takes generators
        size = 2 if strategy == AUX_SINGLE else 3
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec((0.9, 0.6, 0.3)[:size], (0.1, 0.2, 0.0)[:size])
        schedule = ZenoSchedule(2.0, cycles, aux_strategy=strategy,
                                measurement_mode=MODE_STOCHASTIC, seed=master, abort_policy=policy)
        array_tree, block_tree, tree, full = (
            protocol_module._OutcomeTree(data, noise, schedule) for _ in range(4))
        while full._grow():
            pass
        edge = full.p_one[:full.length].tolist() + [0.5] * (cycles - full.length)
        draws = np.array([np.random.default_rng(seed).random(cycles)
                          for seed in trial_seeds(schedule, trials)]
                         + [[tree.p_one[0]] * cycles, edge])
        survived = array_tree.survivors(draws, np.ones(len(draws), dtype=bool))
        lone = [tree.trial(ScriptedGenerator(row))[1] for row in draws]
        assert survived.tolist() == compare_in_blocks(block_tree, draws, 5)
        for alive, want in zip(survived.tolist(), lone, strict=True):
            assert alive != want.detected
            if alive:
                assert array_tree.end.final_fidelity == want.final_fidelity
                assert np.array_equal(array_tree.end.amps, want.amps)
        # a warm path gives the same survivors, on either route
        with mock.patch.object(protocol_module, "ARRAY_MAX_CYCLES", cycles + offset):
            routed = protocol_module._batch_trials(array_tree, master, 0, trials)
        assert routed.tolist() == survived[:trials].tolist()
        # the edge trial alone steps a cold path through every depth it reaches
        cold = [protocol_module._OutcomeTree(data, noise, schedule) for _ in range(2)]
        assert compare_in_blocks(cold[0], np.array([edge]), 1) == [not full.end.detected]
        assert cold[1].survivors(np.array([edge]), np.ones(1, dtype=bool)).tolist() == [
            not full.end.detected]
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
        survived = protocol_module._OutcomeTree(data, noise, schedule).survivors(
            draws, np.ones(len(draws), dtype=bool))
        block_tree = protocol_module._OutcomeTree(data, noise, schedule)
        lone = [tree.trial(ScriptedGenerator(row)) for row in draws]
        # a trial that detects with no 1 on record detected with certainty
        assert any(end.detected and all(outcome == 0 for outcome, _, _ in steps)
                   for steps, end in lone)
        assert survived.tolist() == [not end.detected for _, end in lone]
        # and a column at a time, as blocks one draw wide
        assert compare_in_blocks(block_tree, draws, 1) == survived.tolist()

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
        surveyed.survivors(draws, np.ones(len(draws), dtype=bool))
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
    def test_path_is_an_all_zero_trial(self, strategy, lam, mu, amps, n):
        # lambda up to 40 over T = 1: most paths hold a depth whose Born
        # probability of 1 passes 1/2; certain detection is the next test's
        size = 2 if strategy == AUX_SINGLE else 3
        data = new_state(1, [complex(amps[0], amps[1]), complex(amps[2], amps[3])])
        noise = NoiseSpec(lam=tuple(lam[:size]), mu=tuple(mu[:size]))
        schedule = ZenoSchedule(1.0, n, aux_strategy=strategy, measurement_mode=MODE_STOCHASTIC,
                                seed=0)
        assert_path_is_an_all_zero_trial(data, noise, schedule)

    @pytest.mark.parametrize("strategy", [AUX_SINGLE, AUX_DUAL_ALTERNATING])
    @pytest.mark.parametrize("lam, cycles", [
        # test_path_walk_of_zero_branches' paths: the no-error branch holds
        # ~1e-33 in the first cycle, the failure branch ~1e-17 in the second,
        # the no-error branch ~1e-33 in the first of two cycles
        (np.pi / 2, 1), (1e-8, 3), (np.pi, 2),
    ])
    def test_zero_branch_path_is_an_all_zero_trial(self, strategy, lam, cycles):
        size = 2 if strategy == AUX_SINGLE else 3
        schedule = ZenoSchedule(1.0, cycles, aux_strategy=strategy,
                                measurement_mode=MODE_STOCHASTIC, seed=0)
        noise = NoiseSpec(lam=(lam,) + (0.0,) * (size - 1))
        assert_path_is_an_all_zero_trial(new_state(1, [0.6, 0.8]), noise, schedule)

    def test_a_whole_path_is_compared_without_stepping_it(self, monkeypatch):
        # once the path has its end, a generator batch compares its trials'
        # blocks with p_one, walks no trial on its own and steps nothing; a
        # path that ends in certain detection leaves every trial detecting
        # without a generator or a draw
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((0.9, 0.6, 0.3))
        schedule = ZenoSchedule(4.0, DRAW_BLOCK + 44, aux_strategy=AUX_DUAL_ALTERNATING,
                                measurement_mode=MODE_STOCHASTIC, seed=0)
        whole = protocol_module._OutcomeTree(data, noise, schedule)
        while whole._grow():
            pass
        want = [not end.detected for _, end in walk_trials_alone(data, noise, schedule, 40)]
        assert True in want and False in want
        # a quarter flip rotation a slice: the first cycle detects with certainty
        certain = protocol_module._OutcomeTree(
            data, NoiseSpec((1.5 * np.pi, 0.0)),
            ZenoSchedule(1.0, 3, measurement_mode=MODE_STOCHASTIC, seed=0))
        assert not certain._grow() and certain.end.detected and certain.length == 1

        def refuse(*args):
            raise AssertionError("a trial on a whole path stepped it, walked alone or drew")

        for name in ("_grow", "trial"):
            monkeypatch.setattr(protocol_module._OutcomeTree, name, refuse)
        assert protocol_module._batch_trials(whole, schedule.seed, 0, 40).tolist() == want
        for name in ("PCG64", "Generator"):
            monkeypatch.setattr(np.random, name, refuse)
        assert protocol_module._batch_trials(certain, 0, 0, 20).tolist() == [False] * 20

    @pytest.mark.parametrize("cycles, total_time, batch", [
        (64, 8.0, protocol_module.SEED_BATCH),
        (DRAW_BLOCK + 44, 16.0, protocol_module.SEED_BATCH),
        (DRAW_BLOCK + 44, 16.0, 16),
    ])
    def test_a_batch_compares_in_blocks_and_steps_its_path_once(self, monkeypatch, cycles,
                                                                total_time, batch):
        # generator batches compare their trials a block of at most
        # DRAW_BLOCK draws each at a time, the first batch stepping the path
        # once through every depth and the next ones not at all; the longer
        # trials detect in their second block too
        monkeypatch.setattr(protocol_module, "SEED_BATCH", batch)
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((0.4, 0.3, 0.2), (0.2, 0.1, 0.0))
        schedule = ZenoSchedule(total_time, cycles, aux_strategy=AUX_DUAL_ALTERNATING,
                                measurement_mode=MODE_STOCHASTIC, seed=3)
        want = walk_trials_alone(data, noise, schedule, 60)
        assert any(end.detected and len(steps) > DRAW_BLOCK for steps, end in want) == (
            cycles > DRAW_BLOCK)
        assert not all(end.detected for _, end in want)
        steps = count_path_steps(monkeypatch)
        survived, leaf = sample_masks(data, noise, schedule, 60)
        assert steps == list(range(1, cycles + 1))
        assert_trials_are_walked_alone(survived, leaf, want)

    def test_a_block_compares_each_depth_with_its_own(self, monkeypatch):
        # scripted trials on a whole path two blocks long: each draw of the
        # first equals its depth's Born probability of 1 and measures 0; each
        # other trial measures 1 only at one depth of the second block, where
        # its draw is the float just below that depth's Born probability. A
        # block compared with another stretch of the path turns one of them
        # over unless that stretch equals its own float for float
        schedule = ZenoSchedule(16.0, DRAW_BLOCK + 44, aux_strategy=AUX_DUAL_ALTERNATING,
                                measurement_mode=MODE_STOCHASTIC, seed=3)
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((0.4, 0.3, 0.2), (0.2, 0.1, 0.0))
        tree = protocol_module._OutcomeTree(data, noise, schedule)
        while tree._grow():
            pass
        path = tree.p_one.tolist()
        assert len(path) == schedule.cycles and max(path) < 0.5 and not tree.end.detected
        rows = [path] + [[0.5] * depth + [np.nextafter(path[depth], 0.0)]
                         + [0.5] * (schedule.cycles - depth - 1)
                         for depth in range(DRAW_BLOCK, schedule.cycles)]
        want = [tree.trial(ScriptedGenerator(row))[1] for row in rows]
        assert [end.detected for end in want] == [False] + [True] * 44
        scripted = iter(rows)
        monkeypatch.setattr(np.random, "Generator", lambda bits: ScriptedGenerator(next(scripted)))
        got = protocol_module._batch_trials(tree, schedule.seed, 0, len(rows))
        assert got.tolist() == [True] + [False] * 44

    def test_a_cold_path_is_stepped_to_the_deepest_first_1(self, monkeypatch):
        # scripted trials two blocks long, each measuring 1 at one depth
        # alone, where its draw is 0.0: a generator batch steps the cold
        # path to the deepest of those depths and no further. A trial that
        # detects in the first block draws no second one, and its row there
        # keeps the first block's draws; the one detecting at depth 100 keeps
        # 0.5s alone, no 1 in the second block, and stays detected
        schedule = ZenoSchedule(16.0, DRAW_BLOCK + 44, aux_strategy=AUX_DUAL_ALTERNATING,
                                measurement_mode=MODE_STOCHASTIC, seed=3)
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((0.4, 0.3, 0.2), (0.2, 0.1, 0.0))
        full = protocol_module._OutcomeTree(data, noise, schedule)
        while full._grow():
            pass
        assert 0.0 < min(full.p_one) and max(full.p_one) < 0.5
        firsts = [10, 100, DRAW_BLOCK + 14, 5]
        rows = [[0.5] * depth + [0.0] + [0.5] * (schedule.cycles - depth - 1) for depth in firsts]
        want = [full.trial(ScriptedGenerator(row)) for row in rows]
        assert [[outcome for outcome, _, _ in steps] for steps, _ in want] == [
            [0] * depth + [1] for depth in firsts]
        generators = [ScriptedGenerator(row) for row in rows]
        scripted = iter(generators)
        monkeypatch.setattr(np.random, "Generator", lambda bits: next(scripted))
        steps = count_path_steps(monkeypatch)
        tree = protocol_module._OutcomeTree(data, noise, schedule)
        survived = protocol_module._batch_trials(tree, schedule.seed, 0, len(rows))
        assert survived.tolist() == [False] * 4
        assert steps == list(range(1, max(firsts) + 1))
        assert [len(generator.draws) for generator in generators] == [44, 44, 0, 44]

    def test_the_first_running_trial_steps_the_path_in_one_walk(self):
        # each draw of the first trial equals its depth's Born probability of
        # 1 and measures 0: leading on a cold path, it steps the whole path
        # in one walk, so one trial is picked to lead
        leads = []

        class Running(np.ndarray):
            def argmax(self, *args, **kwargs):
                leads.append(super().argmax(*args, **kwargs))
                return leads[-1]

        schedule = ZenoSchedule(2.0, 12, aux_strategy=AUX_DUAL_ALTERNATING,
                                measurement_mode=MODE_STOCHASTIC, seed=0)
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((0.9, 0.6, 0.3), (0.1, 0.2, 0.0))
        full, cold = (protocol_module._OutcomeTree(data, noise, schedule) for _ in range(2))
        while full._grow():
            pass
        assert max(full.p_one) < 0.5 and not full.end.detected
        draws = np.array([full.p_one.tolist(), [0.5] * 12])
        running = np.ones(2, dtype=bool).view(Running)
        assert cold.survivors(draws, running).tolist() == [True, True]
        assert leads == [0] and cold.length == 12 and cold.end is not None

    def test_a_certain_first_1_is_seen_in_one_comparison(self, monkeypatch):
        # a flip 2e-8 short of a quarter a slice: the first cycle measures 1
        # with probability 1 - 4e-16, so a full generator batch of 1 000-cycle
        # trials all detect there, seen when their first block is compared,
        # with no path step and no trial walked alone
        n = 1000
        schedule = ZenoSchedule(n / 3, n, measurement_mode=MODE_STOCHASTIC, seed=0)
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((1.5 * np.pi - 6e-8, 0.0))
        assert 0.0 < 1.0 - protocol_module._OutcomeTree(data, noise, schedule).p_one[0] < 1e-15

        def refuse(*args):
            raise AssertionError("the path was stepped or a trial walked alone")

        for name in ("_grow", "trial"):
            monkeypatch.setattr(protocol_module._OutcomeTree, name, refuse)
        batch = protocol_module.SEED_BATCH
        assert sample_masks(data, noise, schedule, batch) == ([False] * batch, None)

    def test_a_row_with_no_survivor_has_no_leaf(self, monkeypatch):
        # a flip 2e-8 short of a quarter a slice, and a draw above the Born
        # probability of 1: the one trial measures 0 where the no-error branch
        # holds ~4e-16, so it takes the path to its end, which detects, and
        # the row has neither a survivor nor a leaf
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((np.pi / 2 - 2e-8, 0.0))
        schedule = ZenoSchedule(1.0, 1, measurement_mode=MODE_STOCHASTIC, seed=0)
        trees = []
        real = protocol_module._batch_trials
        monkeypatch.setattr(protocol_module, "_batch_trials",
                            lambda tree, *args: trees.append(tree) or real(tree, *args))
        # the draw is scripted on a generator, so the batch takes that route
        monkeypatch.setattr(protocol_module, "ARRAY_MAX_CYCLES", 0)
        monkeypatch.setattr(np.random, "Generator",
                            lambda bits: ScriptedGenerator([1.0 - 2.0**-53]))
        assert sample_trials(data, noise, schedule, 1) == (0, None)
        (tree,) = trees
        assert tree.end.detected

    def test_a_whole_path_batch_holds_a_bounded_block(self):
        # a full batch of trials two blocks long on a whole path fills one
        # SEED_BATCH x DRAW_BLOCK block of floats a time; its comparison holds
        # a bool an entry, and each trial's generator about 750 bytes, under
        # half its row: so the batch holds under twice the block
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((0.4, 0.3, 0.2), (0.2, 0.1, 0.0))
        schedule = ZenoSchedule(4.0, DRAW_BLOCK + 44, aux_strategy=AUX_DUAL_ALTERNATING,
                                measurement_mode=MODE_STOCHASTIC, seed=0)
        tree = protocol_module._OutcomeTree(data, noise, schedule)
        while tree._grow():
            pass
        protocol_module._batch_trials(tree, 0, 0, 2)  # fills numpy.random's lazy imports
        tracemalloc.start()
        try:
            survived = protocol_module._batch_trials(tree, 7, 0, protocol_module.SEED_BATCH)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert survived.any() and not survived.all()
        assert peak <= 2 * protocol_module.SEED_BATCH * DRAW_BLOCK * 8

    @settings(max_examples=50, deadline=None)
    @given(
        strategy=st.sampled_from([AUX_SINGLE, AUX_DUAL_ALTERNATING]),
        policy=st.sampled_from([ABORT_ON_DETECT, RESET_AND_CONTINUE]),
        trials=st.integers(1, 40),
        cycles=st.integers(1, 12),
        max_cycles=st.sampled_from([0, 4, 12]),
        batch=st.sampled_from([3, 7, 16, 4096]),
        master=st.integers(0, 2**64 - 1),
    )
    def test_every_route_gives_run_protocol_on_its_seed(self, strategy, policy, trials, cycles,
                                                        max_cycles, batch, master):
        # an ARRAY_MAX_CYCLES of 0 sends every batch to generators, 12 every
        # batch to arrays, 4 only batches of short trials
        size = 2 if strategy == AUX_SINGLE else 3
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec((0.9, 0.6, 0.3)[:size], (0.1, 0.2, 0.0)[:size])
        schedule = ZenoSchedule(2.0, cycles, aux_strategy=strategy,
                                measurement_mode=MODE_STOCHASTIC, seed=master, abort_policy=policy)
        with mock.patch.multiple(protocol_module, ARRAY_MAX_CYCLES=max_cycles, SEED_BATCH=batch):
            survived, leaf = sample_masks(data, noise, schedule, trials)
        assert len(survived) == trials
        for alive, seed in zip(survived, trial_seeds(schedule, trials), strict=True):
            assert_trial_is_run(alive, leaf, run_protocol(data, noise,
                                                          dataclasses.replace(schedule, seed=seed)))

    def test_non_unitary_propagator_raises_norm_drift(self, monkeypatch):
        real = protocol_module.propagator
        monkeypatch.setattr(protocol_module, "propagator", lambda *a: 1.01 * real(*a))
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.3, 2)
        schedule = ZenoSchedule(1.0, 8, measurement_mode=MODE_STOCHASTIC, seed=0)
        with pytest.raises(NormDriftError):
            sample_trials(data, noise, schedule, 10)
        with pytest.raises(NormDriftError):
            run_protocol(data, noise, schedule)

    def test_trials_and_rows_build_no_state_objects(self, monkeypatch):
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
        survived = protocol_module._batch_trials(tree, 0, 0, 50)
        assert survived.any() and not survived.all()

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

    def test_a_row_sums_its_survivors_fidelities(self):
        # criterion 7's configuration: a row's mean fidelity is a plain loop
        # over its trials run alone, adding each survivor's fidelity, whose
        # roundoff moves it off the leaf's own; 12 digits show neither
        config = stochastic_config(AUX_SINGLE, ABORT_ON_DETECT, (0.1, 0.1), (0.0, 0.0),
                                   (0.6, 0.0, 0.8, 0.0), (8,), 200, 42)
        data, noise, schedule = config.data, config.noise, config.schedule
        (row,) = run_sweep(config).rows
        assert {type(x) for x in (row.survival_probability, row.mean_post_selected_fidelity,
                                  row.detection_rate)} == {float}
        survivors, fidelity_sum = 0, 0.0
        for seed in trial_seeds(schedule, config.trials):
            result = run_protocol(data, noise, dataclasses.replace(schedule, seed=seed))
            if not result.detected:
                survivors += 1
                fidelity_sum += result.final_fidelity
        assert survivors == 199
        assert row.mean_post_selected_fidelity == fidelity_sum / survivors
        _, leaf = sample_trials(data, noise, schedule, config.trials)
        assert row.mean_post_selected_fidelity != leaf.final_fidelity
        assert f"{row.mean_post_selected_fidelity:.12g}" == f"{leaf.final_fidelity:.12g}"

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
        assert sample_masks(data, noise, schedule, trials) == ([False] * trials, None)
        assert steps == list(range(1, max(reach) + 1))

    def test_long_generator_row_holds_a_float_a_depth(self, monkeypatch):
        # two trials that survive 20 000 cycles: the path keeps 8 bytes a
        # depth, 16 while its array doubles, and no register behind its
        # deepest, where a register and its step take about 1 KiB
        n = 20_000
        schedule = ZenoSchedule(1.0, n, aux_strategy=AUX_DUAL_ALTERNATING,
                                measurement_mode=MODE_STOCHASTIC, seed=1)
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec((0.1, 0.1, 0.1))
        # a short row first, so the caches and lazy imports it fills are not counted
        sample_masks(data, noise, dataclasses.replace(schedule, cycles=4), 2)
        tracemalloc.start()
        try:
            survived, leaf = sample_masks(data, noise, schedule, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert survived == [True, True] and not leaf.detected
        assert peak < 24 * n
        # the row steps its path through every depth
        steps = count_path_steps(monkeypatch)
        sample_trials(data, noise, schedule, 2)
        assert steps == list(range(1, n + 1))


class TestInvariantsComputedOnce:
    def test_cycle_masks_are_cached_and_read_only(self):
        for num_qubits in (2, 3):
            masks = protocol_module._cycle_masks(num_qubits)
            assert protocol_module._cycle_masks(num_qubits) is masks
            assert len(masks) == num_qubits - 1
            for aux_q, (order, keep_at) in enumerate(masks, start=1):
                # the gather reads the entries the cycle leaks, whose data bit
                # differs from the auxiliary's, then those it keeps, each in
                # some order; keep_at is its second half
                half = 1 << (num_qubits - 1)
                bits = [((b >> (num_qubits - 1)) & 1, (b >> (num_qubits - 1 - aux_q)) & 1)
                        for b in range(1 << num_qubits)]
                assert sorted(order[:half].tolist()) == [b for b, (d, a) in enumerate(bits) if d != a]
                assert sorted(order[half:].tolist()) == [b for b, (d, a) in enumerate(bits) if d == a]
                assert keep_at.tolist() == order[half:].tolist()
                for mask in (order, keep_at):
                    with pytest.raises(ValueError):
                        mask[0] = 0

    @pytest.mark.parametrize("num_qubits", [2, 3])
    def test_kept_blocks_are_cached_read_only_and_reduce_the_pair(self, rng, num_qubits):
        tables = protocol_module._kept_blocks(num_qubits)
        assert protocol_module._kept_blocks(num_qubits) is tables
        masks = protocol_module._cycle_masks(num_qubits)
        dim, half = 1 << num_qubits, 1 << (num_qubits - 1)
        u = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        real = protocol_module._real_blocks(u[None])[0]
        for i, (rows, cols, at) in enumerate(tables):
            # the cycle on auxiliary i + 1 maps the previous auxiliary's kept
            # entries (the last auxiliary's, before the first) to its own
            (order, keep_at), before = masks[i], masks[i - 1][1]
            leak_at = order[:half]
            block = real[rows, cols]
            for got, want in ((block[:2 * half], u[np.ix_(keep_at, before)]),
                              (block[2 * half:], u[np.ix_(leak_at, before)])):
                assert np.array_equal(got, np.block([[want.real, -want.imag],
                                                     [want.imag, want.real]]))
            assert np.array_equal(psi.view(np.float64)[at],
                                  np.concatenate([psi[keep_at].real, psi[keep_at].imag]))
            for table in (rows, cols, at):
                with pytest.raises(ValueError):
                    table[0] = 0

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
        clear_engine_caches()
        cold = run_protocol(data, noise, schedule)
        warm = run_protocol(data, noise, schedule)
        clear_engine_caches()
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


def _unnormalized():
    return evolve_first_order(new_state(1, [0.6, 0.8]), NoiseSpec((0.1,)), 0.5)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: encode(_unnormalized(), 1), "data state must be normalized",
                 id="encode-unnormalized"),
    pytest.param(lambda: run_post_selected(_unnormalized(), NoiseSpec.flip(0.1, 2),
                                           ZenoSchedule(1.0, 1), [1, 2]),
                 "data state must be normalized", id="run_post_selected-unnormalized"),
    pytest.param(lambda: zeno_cycle(encode(new_state(1), 1), 0, 0),
                 "data_q and aux_q must differ", id="zeno_cycle-same-qubit"),
    pytest.param(lambda: zeno_cycle(encode(new_state(1), 1), 0, 1, mode="sometimes"),
                 "mode must be one of ('post-selected', 'stochastic'), got 'sometimes'",
                 id="zeno_cycle-mode"),
])
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
