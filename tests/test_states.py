"""Quantum-core contracts: construction, gates, CNOT, projection, measurement."""
import re

import numpy as np
import pytest

from zenosim import (
    HADAMARD,
    PAULI_X,
    Gate2x2,
    NormDriftError,
    StateVector,
    ZeroProbabilityError,
    append_aux,
    apply_cnot,
    apply_propagator,
    apply_single,
    fidelity,
    ket_string,
    measure_qubit,
    new_state,
    project_qubit,
)
from conftest import random_state

INV_SQRT2 = 1 / np.sqrt(2)


class TestNewState:
    def test_basis_state(self):
        state = new_state(1, [1, 0])
        np.testing.assert_allclose(state.amplitudes, [1, 0])

    def test_normalization_forced(self):
        # norm of (3, 4i) is 5
        state = new_state(1, [3, 4j])
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8j])

    def test_default_is_all_zero_ket(self):
        state = new_state(2)
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected 4 amplitudes"):
            new_state(2, [1, 0])

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            new_state(1, [0, 0])

    def test_capacity(self):
        with pytest.raises(ValueError, match="num_qubits"):
            new_state(5)

    def test_non_finite_amplitudes_rejected(self):
        for bad in ([np.nan, 1], [np.inf, 0], [1, complex(0, np.nan)]):
            with pytest.raises(ValueError, match="finite"):
                StateVector(1, bad)
            with pytest.raises(ValueError, match="finite"):
                StateVector.unit(1, bad)

    def test_overflowing_norm_is_rescaled(self):
        # the squares overflow to inf; without rescaling the state reads 0
        state = StateVector(1, [1e308, 1e308])
        assert np.array_equal(state.amplitudes, StateVector(1, [1, 1]).amplitudes)
        extreme = StateVector(2, [1.7e308 + 1.7e308j, -1.7e308, 0, 1e-300])
        assert extreme.norm == pytest.approx(1.0, abs=1e-15)
        assert abs(extreme.amplitudes[0]) == pytest.approx(np.sqrt(2 / 3))
        # the squares underflow: a tiny vector is no zero vector
        for tiny in (1e-13, 5e-324):
            state = StateVector(1, [tiny, tiny])
            assert np.array_equal(state.amplitudes, StateVector(1, [1, 1]).amplitudes)
        assert np.array_equal(StateVector(2, [0, 5e-324j, 0, 0]).amplitudes, [0, 1j, 0, 0])

    def test_nan_norm_is_drift(self):
        # a NaN norm fails the drift check instead of passing it
        with pytest.raises(NormDriftError, match="nan"):
            apply_propagator(new_state(1), np.full((2, 2), np.nan))

    def test_amplitudes_are_read_only(self):
        state = new_state(1, [1, 0])
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestGates:
    def test_x_flips(self):
        state = apply_single(new_state(1), PAULI_X, 0)
        np.testing.assert_allclose(state.amplitudes, [0, 1])

    def test_hadamard_on_zero(self):
        state = apply_single(new_state(1), HADAMARD, 0)
        np.testing.assert_allclose(state.amplitudes, [INV_SQRT2, INV_SQRT2])

    def test_x_on_qubit_1_of_00(self):
        # |00> -> |01> under the leftmost-symbol-is-qubit-0 convention
        state = apply_single(new_state(2), PAULI_X, 1)
        np.testing.assert_allclose(state.amplitudes, [0, 1, 0, 0])

    def test_non_unitary_gate_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            Gate2x2([[1, 0], [0, 2]])

    def test_nan_gate_rejected(self):
        # a NaN unitarity defect compares False against any tolerance
        with pytest.raises(ValueError, match="not unitary"):
            Gate2x2([[np.nan, 0], [0, 1]])

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_single(new_state(1), PAULI_X, 1)

    def test_hadamard_involution_random(self, rng):
        for _ in range(20):
            state = random_state(2, rng)
            back = apply_single(apply_single(state, HADAMARD, 1), HADAMARD, 1)
            np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)

    def test_disjoint_targets_commute(self, rng):
        for _ in range(20):
            state = random_state(3, rng)
            ab = apply_single(apply_single(state, HADAMARD, 0), PAULI_X, 2)
            ba = apply_single(apply_single(state, PAULI_X, 2), HADAMARD, 0)
            np.testing.assert_allclose(ab.amplitudes, ba.amplitudes, atol=1e-12)

    def test_norm_preserved_by_gate_sequences(self, rng):
        state = random_state(3, rng)
        for q in (0, 1, 2, 1, 0):
            state = apply_single(state, HADAMARD, q)
            state = apply_cnot(state, q, (q + 1) % 3)
        assert abs(state.norm - 1.0) < 1e-10


class TestCnot:
    def test_definition(self):
        state = new_state(2, [0, 0, 1, 0])  # |10>
        np.testing.assert_allclose(apply_cnot(state, 0, 1).amplitudes, [0, 0, 0, 1])

    def test_disentangles_code_state(self):
        # a0|00> + a1|11>  ->  a0|00> + a1|10>: the auxiliary factors into |0>
        state = new_state(2, [0.6, 0, 0, 0.8])
        out = apply_cnot(state, 0, 1)
        np.testing.assert_allclose(out.amplitudes, [0.6, 0, 0.8, 0], atol=1e-12)

    def test_involution_random(self, rng):
        for _ in range(20):
            state = random_state(3, rng)
            back = apply_cnot(apply_cnot(state, 0, 2), 0, 2)
            np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)

    def test_index_clash(self):
        with pytest.raises(ValueError, match="distinct"):
            apply_cnot(new_state(2), 1, 1)


class TestProjection:
    def test_certain_branch(self):
        state = new_state(2, [0.6, 0, 0.8, 0])  # a0|00> + a1|10>, qubit 1 reads 0
        prob, collapsed = project_qubit(state, 1, 0)
        assert prob == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(collapsed.amplitudes, state.amplitudes, atol=1e-12)

    def test_equal_superposition(self):
        state = new_state(1, [INV_SQRT2, INV_SQRT2])
        prob, collapsed = project_qubit(state, 0, 1)
        assert prob == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(collapsed.amplitudes, [0, 1], atol=1e-12)

    def test_impossible_branch(self):
        with pytest.raises(ZeroProbabilityError):
            project_qubit(new_state(1), 0, 1)

    def test_completeness(self, rng):
        for _ in range(30):
            state = random_state(3, rng)
            for target in range(3):
                p0, _ = project_qubit(state, target, 0)
                p1, _ = project_qubit(state, target, 1)
                assert abs(p0 + p1 - 1.0) < 1e-10


class TestMeasurement:
    def test_eigenstate(self, rng):
        record, collapsed = measure_qubit(new_state(1, [0, 1]), 0, rng)
        assert record.outcome == 1
        assert record.probability == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(collapsed.amplitudes, [0, 1])

    def test_reproducible_for_fixed_seed(self):
        state = new_state(1, [INV_SQRT2, INV_SQRT2])
        record, _ = measure_qubit(state, 0, np.random.default_rng(7))
        repeat, _ = measure_qubit(state, 0, np.random.default_rng(7))
        assert record == repeat
        assert record.probability == pytest.approx(0.5, abs=1e-12)

    def test_seed_determinism_byte_identical_sequences(self, rng):
        states = [random_state(2, rng) for _ in range(50)]

        def record_run(seed):
            gen = np.random.default_rng(seed)
            out = []
            for state in states:
                record, _ = measure_qubit(state, 0, gen)
                out.append((record.qubit_index, record.outcome, record.probability))
            return out

        first, second = record_run(99), record_run(99)
        # exact float equality: identical seeds must give identical bytes
        assert first == second

    def test_binomial_concentration(self):
        # 10000 seeded samples of sqrt(0.25)|0> + sqrt(0.75)|1>
        state = new_state(1, [np.sqrt(0.25), np.sqrt(0.75)])
        gen = np.random.default_rng(2024)
        ones = sum(measure_qubit(state, 0, gen)[0].outcome for _ in range(10000))
        assert abs(ones / 10000 - 0.75) < 0.02


class TestFidelity:
    def test_self(self, rng):
        state = random_state(2, rng)
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity(new_state(1, [1, 0]), new_state(1, [0, 1])) == 0.0

    def test_half_overlap(self):
        plus = new_state(1, [INV_SQRT2, INV_SQRT2])
        assert fidelity(new_state(1), plus) == pytest.approx(0.5, abs=1e-12)

    def test_global_phase_invisible(self, rng):
        state = random_state(2, rng)
        rotated = StateVector.unit(2, state.amplitudes * np.exp(1j * 0.3))
        assert fidelity(state, rotated) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="cannot compare"):
            fidelity(new_state(1), new_state(2))


class TestAppendAux:
    def test_single_aux(self):
        state = new_state(1, [0.6, 0.8])
        out = append_aux(state, 1)
        np.testing.assert_allclose(out.amplitudes, [0.6, 0, 0.8, 0])

    def test_two_aux_on_zero(self):
        out = append_aux(new_state(1), 2)
        assert out.num_qubits == 3
        np.testing.assert_allclose(out.amplitudes, [1, 0, 0, 0, 0, 0, 0, 0])

    def test_norm_preserved(self, rng):
        for _ in range(10):
            out = append_aux(random_state(2, rng), 2)
            assert abs(out.norm - 1.0) < 1e-12

    def test_capacity_exceeded(self):
        with pytest.raises(ValueError, match="capacity"):
            append_aux(new_state(3), 2)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: project_qubit(new_state(1), 0, 2), "outcome must be 0 or 1, got 2",
                 id="project_qubit-outcome"),
    pytest.param(lambda: append_aux(new_state(1), -1),
                 "count must be a non-negative integer, got -1", id="append_aux-count"),
    pytest.param(lambda: StateVector.unit(2, [1, 0]),
                 "expected 4 amplitudes for 2 qubit(s), got 2", id="unit-size"),
    pytest.param(lambda: Gate2x2([[1]]), "gate must be a 2x2 matrix, got shape (1, 1)",
                 id="gate-shape"),
    pytest.param(lambda: measure_qubit(new_state(1), 0, None),
                 "measure_qubit requires an rng, got None", id="measure_qubit-rng"),
    # an int past 4300 digits has no str: its bit length is printed
    pytest.param(lambda: append_aux(new_state(1), -10**5000),
                 "count must be a non-negative integer, got a negative integer of 16610 bits",
                 id="append_aux-count-past-str"),
    pytest.param(lambda: new_state(10**5000),
                 "num_qubits must be an integer in 1..4, got an integer of 16610 bits",
                 id="new_state-num_qubits-past-str"),
    pytest.param(lambda: project_qubit(new_state(1), -2**70, 0),
                 "target qubit a negative integer of 71 bits out of range for 1 qubit(s)",
                 id="project_qubit-target-past-64-bits"),
    pytest.param(lambda: project_qubit(new_state(1), 0, 10**5000),
                 "outcome must be 0 or 1, got an integer of 16610 bits",
                 id="project_qubit-outcome-past-str"),
])
def test_bad_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_apply_single_takes_a_raw_matrix():
    out = apply_single(new_state(1), [[0, 1], [1, 0]], 0)
    np.testing.assert_array_equal(out.amplitudes, apply_single(new_state(1), PAULI_X, 0).amplitudes)


def test_no_auxiliary_copies_the_register():
    state = new_state(1, [0.6, 0.8])
    out = append_aux(state, 0)
    assert out.num_qubits == 1 and out.amplitudes is not state.amplitudes
    np.testing.assert_array_equal(out.amplitudes, state.amplitudes)


@pytest.mark.parametrize("amplitudes, text", [
    ([0.6, 0.8j], "0.6|0> + 0.8i|1>"),
    ([0.36 + 0.48j, 0.8], "(0.36+0.48i)|0> + 0.8|1>"),
    ([0.36 - 0.48j, -0.8j], "(0.36-0.48i)|0> + -0.8i|1>"),
])
def test_ket_string_of_complex_amplitudes(amplitudes, text):
    assert ket_string(new_state(1, amplitudes)) == text


def test_reprs():
    assert repr(new_state(2, [0.6, 0, 0, 0.8])) == "<StateVector 0.6|00> + 0.8|11>>"
    assert repr(PAULI_X) == "Gate2x2([[0j, (1+0j)], [(1+0j), 0j]])"
