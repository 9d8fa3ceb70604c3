"""Noise generator and time-evolution contracts."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zenosim.noise as noise_module

from zenosim import (
    HermitianOperator,
    NoiseSpec,
    StateVector,
    apply_propagator,
    build_hamiltonian,
    evolve_exact,
    evolve_first_order,
    expansion_defect,
    new_state,
    propagator,
    slice_propagator,
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
        np.testing.assert_allclose(h.matrix, np.zeros((2, 2)))

    def test_pure_flip_is_x(self):
        h = build_hamiltonian(NoiseSpec(lam=(1.0,), mu=(0.0,)), 1)
        np.testing.assert_allclose(h.matrix, [[0, 1], [1, 0]])

    def test_diagonal_energies(self):
        # energy attaches to the 0 value of each qubit, so |00> carries both
        e1, e2 = 0.4, 0.9
        h = build_hamiltonian(NoiseSpec(lam=(0.0, 0.0), mu=(e1, e2)), 2)
        np.testing.assert_allclose(np.diag(h.matrix), [e1 + e2, e1, e2, 0.0])
        assert np.count_nonzero(h.matrix - np.diag(np.diag(h.matrix))) == 0

    def test_spec_length_mismatch(self):
        with pytest.raises(ValueError, match="register has"):
            build_hamiltonian(NoiseSpec.zero(2), 3)

    def test_hermiticity_random(self, rng):
        for num_qubits in (1, 2, 3):
            for _ in range(5):
                h = build_hamiltonian(random_spec(num_qubits, rng), num_qubits)
                assert np.max(np.abs(h.matrix - h.matrix.conj().T)) <= 1e-12

    def test_operator_validates_hermiticity(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator([[0, 1], [0, 0]])

    def test_nan_operator_rejected(self):
        # a NaN Hermiticity defect compares False against any tolerance
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator([[np.nan, 0], [0, 1]])


class TestComputedOnce:
    def test_spectrum_is_computed_once_and_read_only(self, monkeypatch, rng):
        calls = []
        real = noise_module.np.linalg.eigh
        monkeypatch.setattr(
            noise_module.np.linalg, "eigh", lambda m: calls.append(m) or real(m)
        )
        h = build_hamiltonian.__wrapped__(random_spec(3, rng), 3)  # a fresh operator
        first = propagator(h, 0.25)
        second = propagator(h, 0.5)
        assert len(calls) == 1
        w, v = real(h.matrix)
        assert np.array_equal(first, (v * np.exp(-0.25j * w)) @ v.conj().T)
        assert np.array_equal(second, (v * np.exp(-0.5j * w)) @ v.conj().T)
        for array in (h.matrix, *h.spectrum):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        with pytest.raises(AttributeError):
            h.matrix = np.zeros((8, 8))

    def test_equal_specs_share_one_operator(self, rng):
        spec = random_spec(2, rng)
        h = build_hamiltonian(spec, 2)
        assert build_hamiltonian(NoiseSpec(lam=spec.lam, mu=spec.mu), 2) is h
        for k in range(2 * build_hamiltonian.cache_info().maxsize):
            build_hamiltonian(NoiseSpec.flip(0.01 * k, 2), 2)
        info = build_hamiltonian.cache_info()
        assert info.currsize == info.maxsize == noise_module.HAMILTONIAN_CACHE_SIZE

    def test_signed_zero_specs_build_the_same_matrix(self):
        # +0.0 == -0.0, so the cache hands either spec the other's operator
        plus, minus = NoiseSpec((0.0, 0.3), (0.2, 0.0)), NoiseSpec((-0.0, 0.3), (0.2, -0.0))
        assert plus == minus
        built = [build_hamiltonian.__wrapped__(spec, 2).matrix.tobytes() for spec in (plus, minus)]
        assert built[0] == built[1]


class TestEvolveExact:
    def test_flip_generator_closed_form(self):
        # exp(-i lam t X)|0> = cos(lam t)|0> - i sin(lam t)|1>
        lam, t = 0.8, 0.6
        h = build_hamiltonian(NoiseSpec(lam=(lam,), mu=(0.0,)), 1)
        out = evolve_exact(new_state(1), h, t)
        np.testing.assert_allclose(
            out.amplitudes, [np.cos(lam * t), -1j * np.sin(lam * t)], atol=1e-12
        )

    def test_zero_time_is_identity(self, rng):
        state = random_state(2, rng)
        h = build_hamiltonian(random_spec(2, rng), 2)
        out = evolve_exact(state, h, 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)

    def test_eigenstate_of_diagonal_generator(self):
        e = 1.3
        h = build_hamiltonian(NoiseSpec(lam=(0.0,), mu=(e,)), 1)
        out = evolve_exact(new_state(1), h, 0.7)
        assert abs(out.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)
        assert out.amplitudes[0] == pytest.approx(np.exp(-1j * e * 0.7), abs=1e-12)

    def test_norm_preserved(self, rng):
        for _ in range(10):
            state = random_state(2, rng)
            h = build_hamiltonian(random_spec(2, rng), 2)
            assert abs(evolve_exact(state, h, rng.uniform(-2, 2)).norm - 1) < 1e-10

    def test_composition(self, rng):
        state = random_state(2, rng)
        h = build_hamiltonian(random_spec(2, rng), 2)
        t1, t2 = 0.37, 0.91
        chained = evolve_exact(evolve_exact(state, h, t1), h, t2)
        direct = evolve_exact(state, h, t1 + t2)
        assert np.linalg.norm(chained.amplitudes - direct.amplitudes) < 1e-9

    def test_negative_time_reverses(self, rng):
        state = random_state(2, rng)
        h = build_hamiltonian(random_spec(2, rng), 2)
        back = evolve_exact(evolve_exact(state, h, 0.8), h, -0.8)
        np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-10)

    def test_series_route_matches_eigendecomposition(self, rng):
        for t in (0.05, 0.9, 4.7, -2.3):
            h = build_hamiltonian(random_spec(2, rng), 2)
            assert np.max(np.abs(propagator(h, t) - series_propagator(h.matrix, t))) < 1e-11

    def test_diagonal_spec_keeps_every_basis_state(self, rng):
        # phases only: the survival of each basis state is exactly 1
        h = build_hamiltonian(NoiseSpec(lam=(0.0, 0.0), mu=(0.9, 1.7)), 2)
        for index in range(4):
            amps = np.zeros(4)
            amps[index] = 1.0
            out = evolve_exact(StateVector(2, amps), h, 1.3)
            assert abs(out.amplitudes[index]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        h = build_hamiltonian(random_spec(2, rng), 2)
        with pytest.raises(ValueError, match="dim"):
            evolve_exact(new_state(1), h, 0.1)

    @pytest.mark.parametrize("t", [1e200, [0.5, 1e200]])
    def test_overflowing_phase_is_named(self, t):
        # w t = 1e400 is no float: it is rejected before numpy warns
        # (pytest turns a RuntimeWarning into a failure)
        h = build_hamiltonian(NoiseSpec((1e200, 0.0)), 2)
        with pytest.raises(ValueError, match=r"noise phase w\*t must be finite, got -?inf "
                                             r"\(w = -?1e\+200, t = 1e\+200\)"):
            propagator(h, t)

    def test_largest_finite_phase_is_kept(self):
        h = build_hamiltonian(NoiseSpec((1e154, 0.0)), 2)
        u = propagator(h, 1.25e154)
        assert np.isfinite(u).all()
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-12


class TestSlicePropagator:
    @settings(max_examples=200, deadline=None)
    @given(
        num_qubits=st.integers(1, 3),
        lam=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
        mu=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
        t=st.one_of(st.floats(0.0, 1.0), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4)),
    )
    def test_matches_the_eigendecomposition(self, num_qubits, lam, mu, t):
        # on these ranges the eigh path itself is off by up to 2.2e-15 from a
        # 30-digit mpmath expm (150 random draws), and the two paths differed
        # by up to 3.2e-15 in 20 000 draws: the bound is about twice eigh's error
        spec = NoiseSpec(tuple(lam[:num_qubits]), tuple(mu[:num_qubits]))
        u = slice_propagator(spec, num_qubits, t)
        want = propagator(build_hamiltonian(spec, num_qubits), t)
        assert u.shape == want.shape
        np.testing.assert_allclose(u, want, rtol=0, atol=5e-15)

    @pytest.mark.parametrize("spec", [
        NoiseSpec((0.3, -1.2, 0.7), (0.4, 0.0, -0.9)),
        NoiseSpec((1.7e308, 0.0, 0.0), (1.7e308, 0.0, 0.0)),  # r overflows to inf
    ])
    def test_zero_time_is_the_exact_identity(self, spec):
        for u in (slice_propagator(spec, 3, 0.0), *slice_propagator(spec, 3, [0.0, -0.0])):
            assert np.array_equal(u, np.eye(8))
            assert not np.signbit(u.real).any() and not np.signbit(u.imag).any()

    def test_largest_finite_phase_is_kept(self):
        u = slice_propagator(NoiseSpec((1e154, 0.0)), 2, 1.25e154)
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
    ])
    def test_bad_input_is_named(self, spec, num_qubits, t, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            slice_propagator(spec, num_qubits, t)


class TestFirstOrder:
    def test_zero_time_unchanged(self, rng):
        state = random_state(2, rng)
        h = build_hamiltonian(random_spec(2, rng), 2)
        out = evolve_first_order(state, h, 0.0)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes)
        assert not out.is_normalized

    def test_flip_generator_expansion(self):
        lam, t = 0.5, 0.2
        h = build_hamiltonian(NoiseSpec(lam=(lam,), mu=(0.0,)), 1)
        out = evolve_first_order(new_state(1), h, t)
        np.testing.assert_allclose(out.amplitudes, [1.0, -1j * lam * t], atol=1e-14)
        # the truncation leaves the norm above 1 by O(t^2)
        assert out.norm == pytest.approx(np.sqrt(1 + (lam * t) ** 2), abs=1e-14)


class TestExpansionDefect:
    def test_zero_time(self, rng):
        state = random_state(2, rng)
        h = build_hamiltonian(random_spec(2, rng), 2)
        assert expansion_defect(state, h, 0.0) == 0.0

    def test_zero_generator(self):
        h = HermitianOperator(np.zeros((4, 4)))
        state = new_state(2, [0.5, 0.5, 0.5, 0.5])
        for t in (0.1, 1.0, 10.0):
            assert expansion_defect(state, h, t) == pytest.approx(0.0, abs=1e-15)

    def test_quadratic_ratio(self):
        # halving t four-folds the defect (Richardson check at t -> 0)
        spec = NoiseSpec(lam=(0.7, 1.1), mu=(0.4, 0.9))
        h = build_hamiltonian(spec, 2)
        state = new_state(2, [0.5, 0.5, 0.5, 0.5])
        ratio = expansion_defect(state, h, 2e-3) / expansion_defect(state, h, 1e-3)
        assert abs(ratio - 4.0) / 4.0 < 0.05

    def test_log_log_slope_is_two(self, rng):
        times = np.array([1e-2, 1e-3, 1e-4])
        for _ in range(5):
            state = random_state(2, rng)
            h = build_hamiltonian(random_spec(2, rng), 2)
            defects = [expansion_defect(state, h, t) for t in times]
            slope = np.polyfit(np.log(times), np.log(defects), 1)[0]
            assert abs(slope - 2.0) < 0.1


def _z():
    return HermitianOperator(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: NoiseSpec(()), "noise spec needs at least one qubit entry",
                 id="NoiseSpec-empty"),
    pytest.param(lambda: HermitianOperator(np.zeros((2, 3))),
                 "operator must be square, got shape (2, 3)", id="HermitianOperator-shape"),
    pytest.param(lambda: HermitianOperator(np.eye(3)),
                 "dimension must be a power of two >= 2, got 3", id="HermitianOperator-dim"),
    pytest.param(lambda: propagator(_z(), np.zeros((2, 2))),
                 "time must be finite, a number or a 1-D array", id="propagator-2d-time"),
    pytest.param(lambda: apply_propagator(new_state(1), np.eye(4)),
                 "propagator shape (4, 4) does not match state dimension 2",
                 id="apply_propagator-dim"),
    pytest.param(lambda: evolve_exact(new_state(2), _z(), 0.1),
                 "operator dim 2 does not match state dim 4", id="evolve_exact-dim"),
    pytest.param(lambda: evolve_first_order(new_state(2), _z(), 0.1),
                 "operator dim 2 does not match state dim 4", id="evolve_first_order-dim"),
    pytest.param(lambda: evolve_first_order(new_state(1), _z(), np.inf),
                 "time must be finite, got inf", id="evolve_first_order-inf"),
])
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_hermitian_operator_repr_and_qubits():
    h = HermitianOperator(np.eye(4))
    assert repr(h) == "HermitianOperator(dim=4)" and h.num_qubits == 2
