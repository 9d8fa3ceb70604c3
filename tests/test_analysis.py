"""Closed-form references and the convergence-rate fit."""
import re

import numpy as np
import pytest

from zenosim import (
    ConvergencePoint,
    NoiseSpec,
    OutOfRegimeWarning,
    evolve_exact,
    fit_inverse_n,
    new_state,
    project_qubit,
    single_qubit_survival,
    zeno_limit_formula,
)


class TestZenoLimitFormula:
    def test_no_loss(self):
        for n in (1, 10, 1000):
            assert zeno_limit_formula(0.0, n) == 1.0

    def test_boundary_is_zero(self):
        with pytest.warns(OutOfRegimeWarning):
            assert zeno_limit_formula(1.0, 1) == 0.0

    def test_approaches_one(self):
        values = [zeno_limit_formula(1.0, n) for n in (10, 100, 1000)]
        assert values[0] < values[1] < values[2] < 1.0
        assert values == pytest.approx(
            [(1 - 1 / n**2) ** n for n in (10, 100, 1000)], rel=1e-12
        )

    def test_out_of_regime_clamped_and_flagged(self):
        with pytest.warns(OutOfRegimeWarning):
            assert zeno_limit_formula(50.0, 2) == 0.0

    def test_monotone_once_past_turnover(self):
        c = 3.0
        previous = 0.0
        for n in range(3, 200):  # n^2 > 2c from the start of this range
            value = zeno_limit_formula(c, n)
            assert value >= previous
            previous = value

    def test_bernoulli_lower_bound(self):
        for c in (0.2, 1.0, 5.0):
            for n in range(3, 100):
                if c / n**2 >= 1:
                    continue
                assert zeno_limit_formula(c, n) >= 1 - c / n - 1e-12

    def test_negative_c_rejected(self):
        for c in (-0.1, np.inf):
            with pytest.raises(ValueError, match="c must be"):
                zeno_limit_formula(c, 5)


class TestSingleQubitSurvival:
    @pytest.mark.parametrize("lam, total_time, name", [
        (np.nan, 1.0, "lam"), (np.inf, 1.0, "lam"), (0.1, np.nan, "total_time"),
        (0.1, -np.inf, "total_time"),
    ])
    def test_non_finite_input_rejected(self, lam, total_time, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            single_qubit_survival(lam, total_time, 4)

    @pytest.mark.parametrize("lam, total_time", [(1e160, 1e160), (-1e200, 1e200)])
    def test_overflowing_angle_rejected(self, lam, total_time):
        # finite inputs whose product is not: math.cos(inf) raised a bare
        # "math domain error"
        with pytest.raises(ValueError, match=r"^lam\*total_time/n must be finite, got -?inf"):
            single_qubit_survival(lam, total_time, 2)

    def test_no_coupling(self):
        for n in (1, 7, 64):
            assert single_qubit_survival(0.0, 3.0, n) == 1.0

    def test_quarter_rotation_is_lost(self):
        assert single_qubit_survival(np.pi / 2, 1.0, 1) == pytest.approx(0.0, abs=1e-30)

    def test_closed_form_value(self):
        assert single_qubit_survival(1.0, 1.0, 10) == pytest.approx(
            np.cos(0.1) ** 20, rel=1e-15
        )

    def test_monotone_in_n(self):
        for lam_t in (0.3, 1.0, 1.5):  # inside (0, pi/2)
            values = [single_qubit_survival(lam_t, 1.0, n) for n in range(1, 80)]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_simulator_pipeline(self):
        # evolve_exact + projection per interval is the simulated twin
        lam, total_time = 1.0, 1.0
        spec = NoiseSpec(lam=(lam,), mu=(0.0,))
        for n in (1, 4, 10, 33):
            state = new_state(1)
            product = 1.0
            for _ in range(n):
                state = evolve_exact(state, spec, total_time / n)
                prob, state = project_qubit(state, 0, 0)
                product *= prob
            assert abs(product - single_qubit_survival(lam, total_time, n)) < 1e-9


class TestFitInverseN:
    def test_exact_inverse_law(self):
        points = [ConvergencePoint(n, 1 - 1 / n, 1.0) for n in (4, 8, 16, 32, 64)]
        slope, quality = fit_inverse_n(points)
        assert slope == pytest.approx(-1.0, abs=1e-9)
        assert quality > 1 - 1e-12

    def test_oracle_generated_points(self):
        points = [
            ConvergencePoint(n, single_qubit_survival(0.1, 1.0, n), 1.0)
            for n in (8, 16, 32, 64, 128)
        ]
        slope, quality = fit_inverse_n(points)
        assert -1.2 < slope < -0.8
        assert quality > 0.99

    def test_two_points_rejected(self):
        points = [ConvergencePoint(n, 1 - 1 / n, 1.0) for n in (4, 8)]
        with pytest.raises(ValueError, match="3 points"):
            fit_inverse_n(points)

    def test_all_converged_reported(self):
        points = [ConvergencePoint(n, 1.0, 1.0) for n in (4, 8, 16)]
        with pytest.raises(ValueError, match="already converged"):
            fit_inverse_n(points)

    def test_converged_points_dropped_from_fit(self):
        points = [ConvergencePoint(n, 1 - 1 / n, 1.0) for n in (4, 8, 16, 32)]
        points.append(ConvergencePoint(1000000, 1.0, 1.0))
        slope, _ = fit_inverse_n(points)
        assert slope == pytest.approx(-1.0, abs=1e-9)


class TestConvergencePoint:
    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            ConvergencePoint(0, 0.5, 0.5)
        with pytest.raises(ValueError, match="finite"):
            ConvergencePoint(1, float("nan"), 0.5)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: zeno_limit_formula(1.0, 0), "n must be a positive integer, got 0",
                 id="zeno_limit_formula-n"),
    pytest.param(lambda: single_qubit_survival(0.1, 1.0, 0),
                 "n must be a positive integer, got 0", id="single_qubit_survival-n"),
])
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
