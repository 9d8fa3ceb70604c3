"""Encoder, measurement cycle, scheduler, and decoder contracts."""
import dataclasses
import math
import time

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
    """
    aux_count = schedule.aux_count
    encoded = encode(data, aux_count)
    step = propagator(build_hamiltonian(noise, 1 + aux_count), schedule.interval)
    state, survival = encoded, 1.0
    for k in range(schedule.cycles):
        state = apply_propagator(state, step)
        try:
            outcome = zeno_cycle(state, 0, 1 + k % aux_count)
        except ZeroProbabilityError:
            return 0.0, True, state, encoded, k
        survival *= outcome.branch_probability
        state = outcome.state_after
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
        schedules = [ZenoSchedule(total_time, n, aux_strategy=strategy) for n in [*n_values, 1]]
        for schedule, result in zip(schedules, run_post_selected(data, noise, schedules)):
            assert_same_run(result, run_protocol(data, noise, schedule))

    def test_replay_past_the_bound_fails_only_its_row(self):
        # lambda T = 3e5: both rows keep a mass below the zero-branch threshold
        # and replay; at about 10 us a cycle, n = 10**9 would replay for about 3 hours
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
        result, failure = run_post_selected(data, noise, [schedule, ZenoSchedule(10.0, 10**9)])
        assert isinstance(failure, ValueError)
        assert_same_run(result, run_protocol(data, noise, schedule))
        assert rows[0].survival_probability == result.survival_probability
        survival, detected, state, encoded, _ = per_cycle_reference(data, noise, schedule)
        assert not result.detected and not detected
        assert 0.0 < result.survival_probability < 1e-14
        assert result.survival_probability == pytest.approx(survival, rel=1e-12)
        assert result.final_fidelity == pytest.approx(fidelity(state, encoded), abs=1e-15)
        assert fidelity(result.final_state, state) == pytest.approx(1.0, abs=1e-12)


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
            schedule = ZenoSchedule(
                config.total_time,
                n,
                aux_strategy=config.aux_strategy,
                measurement_mode=MODE_STOCHASTIC,
                seed=derive_trial_seed(config.seed, n, trial),
                abort_policy=config.abort_policy,
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

    def test_full_tree_drops_nodes_but_not_results(self, monkeypatch):
        monkeypatch.setattr(protocol_module, "MAX_TREE_NODES", 3)
        config = stochastic_config(
            AUX_SINGLE, RESET_AND_CONTINUE, (1.2, 0.4), (0.0, 0.0), (0.6, 0.0, 0.8, 0.0),
            (16,), 20, 3,
        )
        assert_matches_per_cycle_engine(config)
        schedule = ZenoSchedule(1.0, 16, measurement_mode=MODE_STOCHASTIC, seed=0,
                                abort_policy=RESET_AND_CONTINUE)
        tree = protocol_module._OutcomeTree(config.data, config.noise, schedule)
        for seed in range(20):
            tree.sample(seed)
        assert tree.size == 3

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
                                    range(100)))
        assert len(trials) == 100 and len(calls) == 1

    def test_rejects_post_selected_schedule(self):
        with pytest.raises(ValueError, match="stochastic"):
            sample_trials(new_state(1), NoiseSpec.zero(2), ZenoSchedule(1.0, 2), [0])

    def test_single_trial_links_no_nodes(self, monkeypatch):
        trees = []

        class RecordingTree(protocol_module._OutcomeTree):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                trees.append(self)

        monkeypatch.setattr(protocol_module, "_OutcomeTree", RecordingTree)
        schedule = ZenoSchedule(4.0, 500, aux_strategy=AUX_DUAL_ALTERNATING,
                                measurement_mode=MODE_STOCHASTIC, seed=3,
                                abort_policy=RESET_AND_CONTINUE)
        noise = NoiseSpec((0.4, 0.3, 0.2), (0.2, 0.1, 0.0))
        result = run_protocol(new_state(1, [0.6, 0.8]), noise, schedule)
        assert len(result.cycle_log) == 500
        (tree,) = trees
        assert tree.size == 0 and tree.root.children == [None, None]


    def test_non_unitary_propagator_raises_norm_drift(self, monkeypatch):
        real = protocol_module.propagator
        monkeypatch.setattr(protocol_module, "propagator", lambda *a: 1.01 * real(*a))
        data, noise = new_state(1, [0.6, 0.8]), NoiseSpec.flip(0.3, 2)
        schedule = ZenoSchedule(1.0, 8, measurement_mode=MODE_STOCHASTIC, seed=0)
        with pytest.raises(NormDriftError):
            list(sample_trials(data, noise, schedule, range(10)))
        with pytest.raises(NormDriftError):
            run_protocol(data, noise, schedule)

    def test_nodes_are_built_without_state_objects(self, monkeypatch):
        schedule = ZenoSchedule(4.0, 64, aux_strategy=AUX_DUAL_ALTERNATING,
                                measurement_mode=MODE_STOCHASTIC, seed=0,
                                abort_policy=RESET_AND_CONTINUE)
        tree = protocol_module._OutcomeTree(new_state(1, [0.6, 0.8]),
                                            NoiseSpec((0.9, 0.6, 0.3)), schedule)

        def refuse(*args, **kwargs):
            raise AssertionError("a tree node built a state object")

        monkeypatch.setattr(StateVector, "__init__", refuse)
        monkeypatch.setattr(StateVector, "_wrap", classmethod(refuse))
        monkeypatch.setattr(CycleOutcome, "__init__", refuse)
        trials = [tree.sample(seed) for seed in range(50)]
        assert tree.size > 64 and any(trial.detected for trial in trials)


class TestInvariantsComputedOnce:
    def test_cycle_masks_are_cached_and_read_only(self):
        for num_qubits in (2, 3):
            masks = protocol_module._cycle_masks(num_qubits)
            assert protocol_module._cycle_masks(num_qubits) is masks
            assert len(masks) == num_qubits - 1
            for keep, leak in masks:
                assert np.array_equal(keep + leak, np.ones(1 << num_qubits))
                for mask in (keep, leak):
                    with pytest.raises(ValueError):
                        mask[0] = 0.5

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
