"""Noise generator and time-evolution contracts."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim import (
    NoiseSpec,
    StateVector,
    apply_propagator,
    build_hamiltonian,
    evolve_exact,
    evolve_first_order,
    expansion_defect,
    new_state,
    propagator,
)
from conftest import random_state
from series import series_propagator


def random_spec(num_qubits, rng, low=0.3, high=1.5):
    signs = rng.choice([-1.0, 1.0], size=2 * num_qubits)
    values = rng.uniform(low, high, size=2 * num_qubits) * signs
    return NoiseSpec(lam=tuple(values[:num_qubits]), mu=tuple(values[num_qubits:]))


class TestNoiseSpec:
    def test_zero_spec(self):
        spec = NoiseSpec.zero(2)
        assert spec.lam == (0.0, 0.0) and spec.mu == (0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mu has"):
            NoiseSpec(lam=(0.1, 0.1), mu=(0.0,))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(lam=(np.inf,), mu=(0.0,))


class TestBuildHamiltonian:
    def test_zero_spec_gives_zero_matrix(self):
        h = build_hamiltonian(NoiseSpec.zero(1), 1)
        np.testing.assert_allclose(h, np.zeros((2, 2)))

    def test_pure_flip_is_x(self):
        h = build_hamiltonian(NoiseSpec(lam=(1.0,), mu=(0.0,)), 1)
        np.testing.assert_allclose(h, [[0, 1], [1, 0]])

    def test_diagonal_energies(self):
        # energy attaches to the 0 value of each qubit, so |00> carries both
        e1, e2 = 0.4, 0.9
        h = build_hamiltonian(NoiseSpec(lam=(0.0, 0.0), mu=(e1, e2)), 2)
        np.testing.assert_allclose(np.diag(h), [e1 + e2, e1, e2, 0.0])
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0

    def test_spec_length_mismatch(self):
        with pytest.raises(ValueError, match="register has"):
            build_hamiltonian(NoiseSpec.zero(2), 3)

    def test_hermiticity_random(self, rng):
        for num_qubits in (1, 2, 3):
            for _ in range(5):
                h = build_hamiltonian(random_spec(num_qubits, rng), num_qubits)
                assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_matches_the_kronecker_sum(self, rng):
        # qubit 0 is the leftmost factor, as in the engine's basis order
        x, p0 = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 0.0])
        for num_qubits in (1, 2, 3):
            spec = random_spec(num_qubits, rng)
            want = np.zeros((1 << num_qubits,) * 2)
            for q in range(num_qubits):
                before, after = np.eye(1 << q), np.eye(1 << (num_qubits - 1 - q))
                want += np.kron(np.kron(before, spec.lam[q] * x + spec.mu[q] * p0), after)
            np.testing.assert_allclose(build_hamiltonian(spec, num_qubits), want,
                                       rtol=0, atol=1e-15)


class TestEachBuild:
    def test_each_call_builds_a_fresh_read_only_matrix(self, rng):
        # each call builds its own matrix, and no caller can write into it
        spec = random_spec(3, rng)
        h = build_hamiltonian(spec, 3)
        assert h is not build_hamiltonian(spec, 3)
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0] = 0.0

    def test_signed_zero_specs_build_the_same_matrix(self):
        # +0.0 == -0.0, so the two specs are equal: every entry is
        # accumulated onto a +0.0, and they build one matrix
        plus, minus = NoiseSpec((0.0, 0.3), (0.2, 0.0)), NoiseSpec((-0.0, 0.3), (0.2, -0.0))
        assert plus == minus
        built = [build_hamiltonian(spec, 2).tobytes() for spec in (plus, minus)]
        assert built[0] == built[1]


class TestEvolveExact:
    def test_flip_generator_closed_form(self):
        # exp(-i lam t X)|0> = cos(lam t)|0> - i sin(lam t)|1>
        lam, t = 0.8, 0.6
        out = evolve_exact(new_state(1), NoiseSpec(lam=(lam,), mu=(0.0,)), t)
        np.testing.assert_allclose(
            out.amplitudes, [np.cos(lam * t), -1j * np.sin(lam * t)], atol=1e-12
        )

    def test_zero_time_is_identity(self, rng):
        state = random_state(2, rng)
        out = evolve_exact(state, random_spec(2, rng), 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_eigenstate_of_diagonal_generator(self):
        e = 1.3
        out = evolve_exact(new_state(1), NoiseSpec(lam=(0.0,), mu=(e,)), 0.7)
        assert abs(out.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)
        assert out.amplitudes[0] == pytest.approx(np.exp(-1j * e * 0.7), abs=1e-12)

    def test_norm_preserved(self, rng):
        for _ in range(10):
            state = random_state(2, rng)
            spec = random_spec(2, rng)
            assert abs(evolve_exact(state, spec, rng.uniform(-2, 2)).norm - 1) < 1e-10

    def test_composition(self, rng):
        state = random_state(2, rng)
        spec = random_spec(2, rng)
        t1, t2 = 0.37, 0.91
        chained = evolve_exact(evolve_exact(state, spec, t1), spec, t2)
        direct = evolve_exact(state, spec, t1 + t2)
        assert np.linalg.norm(chained.amplitudes - direct.amplitudes) < 1e-9

    def test_negative_time_reverses(self, rng):
        state = random_state(2, rng)
        spec = random_spec(2, rng)
        back = evolve_exact(evolve_exact(state, spec, 0.8), spec, -0.8)
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-10)

    def test_closed_form_matches_the_series(self, rng):
        for t in (0.05, 0.9, 4.7, -2.3):
            spec = random_spec(2, rng)
            series = series_propagator(build_hamiltonian(spec, 2), t)
            assert np.max(np.abs(propagator(spec, 2, t) - series)) < 1e-11

    def test_diagonal_spec_keeps_every_basis_state(self, rng):
        # phases only: the survival of each basis state is exactly 1
        spec = NoiseSpec(lam=(0.0, 0.0), mu=(0.9, 1.7))
        for index in range(4):
            amps = np.zeros(4)
            amps[index] = 1.0
            out = evolve_exact(StateVector(2, amps), spec, 1.3)
            assert abs(out.amplitudes[index]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match=re.escape(
                "noise spec covers 2 qubit(s) but the register has 1")):
            evolve_exact(new_state(1), random_spec(2, rng), 0.1)

    @pytest.mark.parametrize("t", [1e200])
    def test_overflowing_phase_is_named(self, t):
        # r t = 1e400 is no float: it is rejected before numpy warns
        # (pytest turns a RuntimeWarning into a failure)
        with pytest.raises(ValueError, match=re.escape(
                "noise phase r*t must be finite, got inf (qubit 0, r = 1e+200, t = 1e+200)")):
            evolve_exact(new_state(2), NoiseSpec((1e200, 0.0)), t)

    def test_largest_finite_phase_is_kept(self):
        out = evolve_exact(new_state(2), NoiseSpec((1e154, 0.0)), 1.25e154)
        assert np.isfinite(out.amplitudes).all()
        assert abs(out.norm - 1.0) < 1e-12

    def test_is_the_engine_slice(self, rng):
        # one exp(-iHt): the state is moved by the very matrix the engine uses
        for num_qubits in (1, 2, 3):
            state, spec = random_state(num_qubits, rng), random_spec(num_qubits, rng)
            for t in (0.0, 0.35, -1.9):
                out = evolve_exact(state, spec, t)
                u = propagator(spec, num_qubits, t)
                assert np.array_equal(out.amplitudes, u @ state.amplitudes)


def _eigh_propagator(h, t):
    """exp(-i h t) from numpy's eigendecomposition of ``h``; the identity at t = 0."""
    if t == 0.0:
        return np.eye(len(h), dtype=complex)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


class TestPropagator:
    @settings(max_examples=200, deadline=None)
    @given(
        num_qubits=st.integers(1, 3),
        lam=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
        mu=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
        t=st.one_of(st.floats(0.0, 1.0), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)),
    )
    def test_matches_the_eigendecomposition(self, num_qubits, lam, mu, t):
        # on these ranges the eigh route itself is off by up to 2.2e-15 from a
        # 30-digit mpmath expm (150 random draws), and the two routes differed
        # by up to 3.2e-15 in 20 000 draws: the bound is about twice eigh's error
        spec = NoiseSpec(tuple(lam[:num_qubits]), tuple(mu[:num_qubits]))
        u = propagator(spec, num_qubits, t)
        h = build_hamiltonian(spec, num_qubits)
        want = (_eigh_propagator(h, t) if np.ndim(t) == 0
                else np.array([_eigh_propagator(h, x) for x in t]))
        assert u.shape == want.shape
        np.testing.assert_allclose(u, want, rtol=0, atol=5e-15)

    @pytest.mark.parametrize("spec", [
        NoiseSpec((0.3, -1.2, 0.7), (0.4, 0.0, -0.9)),
        NoiseSpec((1.7e308, 0.0, 0.0), (1.7e308, 0.0, 0.0)),  # r overflows to inf
    ])
    def test_zero_time_is_the_exact_identity(self, spec):
        for u in (propagator(spec, 3, 0.0), *propagator(spec, 3, [0.0, -0.0])):
            assert np.array_equal(u, np.eye(8))
            assert not np.signbit(u.real).any() and not np.signbit(u.imag).any()

    def test_largest_finite_phase_is_kept(self):
        u = propagator(NoiseSpec((1e154, 0.0)), 2, 1.25e154)
        assert np.isfinite(u).all()
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12

    @pytest.mark.parametrize("spec, num_qubits, t, message", [
        (NoiseSpec((0.1, 0.2)), 3, 0.1, "noise spec covers 2 qubit(s) but the register has 3"),
        (NoiseSpec((0.1,)), 1, np.zeros((2, 2)), "time must be finite, a number or a 1-D array"),
        (NoiseSpec((0.1,)), 1, [0.5, np.nan], "time must be finite, a number or a 1-D array"),
        (NoiseSpec((0.0, 1e200)), 2, [0.5, 1e200],
         "noise phase r*t must be finite, got inf (qubit 1, r = 1e+200, t = 1e+200)"),
        # mu alone: its phase mu t/2 would overflow, and so does r t = |mu| t/2
        (NoiseSpec((0.0,), (1e308,)), 1, -10.0,
         "noise phase r*t must be finite, got -inf (qubit 0, r = 5e+307, t = -10.0)"),
        (NoiseSpec((0.1,)), 1, np.nan, "time must be finite, a number or a 1-D array, got nan"),
    ])
    def test_bad_input_is_named(self, spec, num_qubits, t, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            propagator(spec, num_qubits, t)


class TestFirstOrder:
    def test_zero_time_unchanged(self, rng):
        state = random_state(2, rng)
        out = evolve_first_order(state, random_spec(2, rng), 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes)
        assert not out.is_normalized

    def test_flip_generator_expansion(self):
        lam, t = 0.5, 0.2
        out = evolve_first_order(new_state(1), NoiseSpec(lam=(lam,), mu=(0.0,)), t)
        np.testing.assert_allclose(out.amplitudes, [1.0, -1j * lam * t], atol=1e-14)
        # the truncation leaves the norm above 1 by O(t^2)
        assert out.norm == pytest.approx(np.sqrt(1 + (lam * t) ** 2), abs=1e-14)


class TestExpansionDefect:
    def test_zero_time(self, rng):
        state = random_state(2, rng)
        assert expansion_defect(state, random_spec(2, rng), 0.0) == 0.0

    def test_zero_generator(self):
        state = new_state(2, [0.5, 0.5, 0.5, 0.5])
        for t in (0.1, 1.0, 10.0):
            assert expansion_defect(state, NoiseSpec.zero(2), t) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_ratio(self):
        # halving t four-folds the defect (Richardson check at t -> 0)
        spec = NoiseSpec(lam=(0.7, 1.1), mu=(0.4, 0.9))
        state = new_state(2, [0.5, 0.5, 0.5, 0.5])
        ratio = expansion_defect(state, spec, 2e-3) / expansion_defect(state, spec, 1e-3)
        assert abs(ratio - 4.0) / 4.0 < 0.05

    def test_log_log_slope_is_two(self, rng):
        times = np.array([1e-2, 1e-3, 1e-4])
        for _ in range(5):
            state = random_state(2, rng)
            spec = random_spec(2, rng)
            defects = [expansion_defect(state, spec, t) for t in times]
            slope = np.polyfit(np.log(times), np.log(defects), 1)[0]
            assert abs(slope - 2.0) < 0.1


def _z():
    # H = 2 P0, which is Pauli Z up to the energy origin
    return NoiseSpec((0.0,), (2.0,))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: NoiseSpec(()), "noise spec needs at least one qubit entry",
                 id="NoiseSpec-empty"),
    pytest.param(lambda: propagator(_z(), 1, np.zeros((2, 2))),
                 "time must be finite, a number or a 1-D array, got array([[0., 0.]",
                 id="propagator-2d-time"),
    pytest.param(lambda: apply_propagator(new_state(1), np.eye(4)),
                 "propagator shape (4, 4) does not match state dimension 2",
                 id="apply_propagator-dim"),
    pytest.param(lambda: evolve_exact(new_state(2), _z(), 0.1),
                 "noise spec covers 1 qubit(s) but the register has 2", id="evolve_exact-dim"),
    pytest.param(lambda: evolve_first_order(new_state(2), _z(), 0.1),
                 "noise spec covers 1 qubit(s) but the register has 2",
                 id="evolve_first_order-dim"),
    pytest.param(lambda: expansion_defect(new_state(2), _z(), 0.1),
                 "noise spec covers 1 qubit(s) but the register has 2", id="expansion_defect-dim"),
    pytest.param(lambda: evolve_exact(new_state(1), _z(), np.inf),
                 "time must be finite, got inf", id="evolve_exact-inf"),
    pytest.param(lambda: evolve_first_order(new_state(1), _z(), np.inf),
                 "time must be finite, got inf", id="evolve_first_order-inf"),
    pytest.param(lambda: evolve_exact(new_state(1), _z(), [0.5, 1.0]),
                 "time must be finite, got [0.5, 1.0]", id="evolve_exact-array-time"),
    pytest.param(lambda: evolve_first_order(new_state(1), _z(), np.array([0.5])),
                 "time must be finite, got array([0.5])", id="evolve_first_order-array-time"),
])
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
