"""Repetition-register leakage and the majority-vote baseline."""
import re

import numpy as np
import pytest

from zenosim import (
    AUX_DUAL_ALTERNATING,
    MODE_POST_SELECTED,
    EpsilonReport,
    NoiseSpec,
    StateVector,
    ZenoSchedule,
    ZeroProbabilityError,
    encode,
    evolve_repetition,
    fidelity,
    majority_vote_round,
    new_state,
    run_protocol,
    syndrome_branches,
)
from conftest import random_state

SINGLE_FLIP = ("001", "010", "100")
DOUBLE_FLIP = ("011", "101", "110")


class TestEvolveRepetition:
    def test_no_time_no_leakage(self, rng):
        data = random_state(1, rng)
        state, report = evolve_repetition(data, NoiseSpec.flip(0.3, 3), 0.0)
        assert all(abs(e) == 0.0 for e in report.epsilons.values())
        assert report.alpha_000 == pytest.approx(complex(data.amplitudes[0]), abs=1e-12)
        assert report.alpha_111 == pytest.approx(complex(data.amplitudes[1]), abs=1e-12)
        np.testing.assert_allclose(state.amplitudes, encode(data, 2).amplitudes)

    def test_single_flip_amplitudes_first_order(self):
        # |0> data: the one-bit patterns pick up about lam*t each
        lam, t = 0.1, 0.01  # lam*t = 1e-3
        _, report = evolve_repetition(new_state(1), NoiseSpec.flip(lam, 3), t)
        for pattern in SINGLE_FLIP:
            magnitude = abs(report.as_dict()[pattern])
            assert abs(magnitude - lam * t) / (lam * t) < 0.1

    def test_double_flip_amplitudes_second_order(self):
        lam = 0.1
        _, small = evolve_repetition(new_state(1), NoiseSpec.flip(lam, 3), 0.01)
        _, large = evolve_repetition(new_state(1), NoiseSpec.flip(lam, 3), 0.1)
        for pattern in DOUBLE_FLIP:
            ratio = abs(large.as_dict()[pattern]) / abs(small.as_dict()[pattern])
            exponent = np.log10(ratio)  # one decade of t
            assert abs(exponent - 2.0) < 0.2

    def test_every_bit_leaks_for_generic_noise(self):
        # distinct couplings, generic data: all six patterns populated
        data = new_state(1, [0.6, 0.8])
        noise = NoiseSpec(lam=(0.08, 0.1, 0.12), mu=(0.0, 0.0, 0.0))
        _, report = evolve_repetition(data, noise, 0.1)  # lam*t around 1e-2
        for pattern, amplitude in report.epsilons.items():
            assert abs(amplitude) > 1e-15, pattern

    def test_flip_drift_keeps_the_exact_phases(self):
        # |000> goes to (-i sin(lam t))^k cos(lam t)^(3 - k) on a weight-k
        # pattern: odd weights are imaginary and even weights real, with no
        # roundoff left in the part that is zero
        for lam, t in ((0.1, 0.5), (0.7, 0.3), (2.5, 1.7), (-0.4, 0.9)):
            _, report = evolve_repetition(StateVector(1), NoiseSpec.flip(lam, 3), t)
            for pattern, amplitude in report.as_dict().items():
                if pattern.count("1") % 2:
                    assert amplitude.real == 0.0, (lam, t, pattern)
                else:
                    assert amplitude.imag == 0.0, (lam, t, pattern)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            evolve_repetition(new_state(1), NoiseSpec.zero(3), -0.1)

    def test_report_invariant(self):
        with pytest.raises(ValueError, match="sum"):
            EpsilonReport(
                alpha_000=1.0,
                alpha_111=1.0,
                eps_001=0,
                eps_010=0,
                eps_011=0,
                eps_100=0,
                eps_101=0,
                eps_110=0,
            )


class TestMajorityVote:
    def test_code_state_untouched(self, rng):
        state = encode(random_state(1, rng), 2)
        corrected, syndrome, prob = majority_vote_round(state, rng=rng)
        assert syndrome == (0, 0)
        assert prob == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(corrected.amplitudes, state.amplitudes, atol=1e-12)

    def test_single_flip_repaired(self, rng):
        # a0|001> + a1|110>: the syndrome points at qubit 2
        state = new_state(3, [0, 0.6, 0, 0, 0, 0, 0.8, 0])
        corrected, syndrome, prob = majority_vote_round(state, rng=rng)
        assert syndrome == (0, 1)
        assert prob == pytest.approx(1.0, abs=1e-12)
        expected = np.zeros(8)
        expected[0], expected[7] = 0.6, 0.8
        np.testing.assert_allclose(corrected.amplitudes, expected, atol=1e-12)

    def test_post_selected_conditions_on_clean_syndrome(self):
        lam_t = 0.3
        state, _ = evolve_repetition(new_state(1, [0.6, 0.8]), NoiseSpec.flip(1.0, 3), lam_t)
        corrected, syndrome, prob = majority_vote_round(state, MODE_POST_SELECTED)
        assert syndrome == (0, 0)
        assert 0 < prob < 1
        # conditioning on (0,0) lands in the code space
        np.testing.assert_allclose(corrected.amplitudes[1:7], np.zeros(6), atol=1e-12)

    def test_post_selected_impossible_branch(self):
        state = new_state(3, [0, 0.6, 0, 0, 0, 0, 0.8, 0])  # no (0,0) component
        with pytest.raises(ZeroProbabilityError):
            majority_vote_round(state, MODE_POST_SELECTED)

    def test_branch_probabilities_sum_to_one(self, rng):
        for _ in range(20):
            state = random_state(3, rng)
            total = sum(prob for _, prob, _ in syndrome_branches(state))
            assert abs(total - 1.0) < 1e-10

    def test_idempotent_without_fresh_noise(self, rng):
        state, _ = evolve_repetition(random_state(1, rng), NoiseSpec.flip(0.7, 3), 0.4)
        corrected, _, _ = majority_vote_round(state, rng=rng)
        again, syndrome, prob = majority_vote_round(corrected, rng=rng)
        assert syndrome == (0, 0)
        assert prob == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(again.amplitudes, corrected.amplitudes, atol=1e-12)

    def test_coherent_noise_defeats_the_decoder(self):
        # one correction round after a lam*t = 0.3 drift versus the avoidance
        # protocol spending the same noise budget across ten cycles; the
        # numbers are reported side by side, no winner is asserted
        data = new_state(1, [0.6, 0.8])
        lam, t = 1.0, 0.3
        ideal = encode(data, 2)
        noisy, _ = evolve_repetition(data, NoiseSpec.flip(lam, 3), t)
        corrected_fidelity = sum(
            prob * fidelity(corrected, ideal)
            for _, prob, corrected in syndrome_branches(noisy)
            if corrected is not None
        )
        zeno = run_protocol(
            data,
            NoiseSpec.flip(lam, 3),
            ZenoSchedule(t, 10, aux_strategy=AUX_DUAL_ALTERNATING),
        )
        print(
            f"majority-vote mean corrected fidelity: {corrected_fidelity:.6f}; "
            f"avoidance post-selected fidelity: {zeno.final_fidelity:.6f} "
            f"(survival {zeno.survival_probability:.6f})"
        )
        assert corrected_fidelity < 1.0

    def test_wrong_register_size(self, rng):
        with pytest.raises(ValueError, match="3-qubit"):
            majority_vote_round(new_state(2), rng=rng)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: EpsilonReport.from_state(new_state(2)),
                 "expected a 3-qubit state, got 2", id="EpsilonReport-size"),
    pytest.param(lambda: syndrome_branches(new_state(2)),
                 "majority vote needs a 3-qubit register, got 2", id="syndrome_branches-size"),
    pytest.param(lambda: majority_vote_round(new_state(3), mode="sometimes"),
                 "mode must be one of ('post-selected', 'stochastic'), got 'sometimes'",
                 id="majority_vote_round-mode"),
    pytest.param(lambda: majority_vote_round(new_state(3)), "stochastic mode requires an rng",
                 id="majority_vote_round-no-rng"),
])
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
