"""Properties over generated inputs: gates and exact evolution keep the norm,
and every constructor at the boundary rejects non-finite input."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenosim import (
    ConfigError,
    Gate2x2,
    HermitianOperator,
    NoiseSpec,
    StateVector,
    ZenoSchedule,
    apply_cnot,
    apply_single,
    build_hamiltonian,
    evolve_exact,
    parse_config,
)
from zenosim.states import NORM_TOL

FEW = settings(max_examples=60, deadline=None)

_REAL = st.floats(-1e3, 1e3)
_ANGLE = st.floats(-2 * math.pi, 2 * math.pi)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_NON_FINITE_COMPLEX = st.builds(
    lambda x, imaginary: complex(0.0, x) if imaginary else complex(x, 0.0), _NON_FINITE, st.booleans()
)


@st.composite
def amplitude_lists(draw, num_qubits):
    dim = 1 << num_qubits
    parts = draw(st.lists(_REAL, min_size=2 * dim, max_size=2 * dim).filter(any))
    return [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]


@st.composite
def states(draw):
    num_qubits = draw(st.integers(1, 4))
    return StateVector(num_qubits, draw(amplitude_lists(num_qubits)))


def unitary(theta, phi, lam, gamma):
    """The general 2x2 unitary, from four angles."""
    c, s = math.cos(theta), math.sin(theta)
    return np.exp(1j * gamma) * np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
    )


_UNITARIES = st.builds(unitary, _ANGLE, _ANGLE, _ANGLE, _ANGLE)


def with_entry(values, index, value):
    """``values`` as a list with the entry at ``index`` (taken modulo its
    length) replaced by ``value``."""
    out = list(values)
    out[index % len(out)] = value
    return out


class TestNormPreserved:
    @FEW
    @given(states(), _UNITARIES, st.integers(0, 3))
    def test_apply_single(self, state, matrix, target):
        out = apply_single(state, Gate2x2(matrix), target % state.num_qubits)
        assert abs(out.norm - 1.0) <= NORM_TOL

    @FEW
    @given(states().filter(lambda s: s.num_qubits > 1), st.integers(0, 3), st.integers(1, 3))
    def test_apply_cnot(self, state, control, offset):
        control %= state.num_qubits
        target = (control + offset) % state.num_qubits
        if target == control:
            target = (control + 1) % state.num_qubits
        out = apply_cnot(state, control, target)
        assert abs(out.norm - 1.0) <= NORM_TOL

    @FEW
    @given(states(), st.data(), st.floats(-100.0, 100.0))
    def test_evolve_exact(self, state, data, t):
        n = state.num_qubits
        coupling = st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)
        spec = NoiseSpec(lam=data.draw(coupling), mu=data.draw(coupling))
        out = evolve_exact(state, build_hamiltonian(spec, n), t)
        assert abs(out.norm - 1.0) <= NORM_TOL


class TestNonFiniteRejected:
    @FEW
    @given(st.integers(1, 4), st.data(), st.integers(0, 15), _NON_FINITE_COMPLEX)
    def test_state_vector(self, num_qubits, data, index, bad):
        amps = with_entry(data.draw(amplitude_lists(num_qubits)), index, bad)
        with pytest.raises(ValueError, match="finite"):
            StateVector(num_qubits, amps)
        with pytest.raises(ValueError, match="finite"):
            StateVector.unit(num_qubits, amps)

    @FEW
    @given(_UNITARIES, st.integers(0, 3), _NON_FINITE_COMPLEX)
    def test_gate(self, matrix, index, bad):
        entries = np.array(with_entry(matrix.reshape(-1), index, bad)).reshape(2, 2)
        with pytest.raises(ValueError, match="not unitary"):
            Gate2x2(entries)

    @FEW
    @given(st.integers(1, 4), st.integers(0, 255), _NON_FINITE_COMPLEX)
    def test_hermitian_operator(self, num_qubits, index, bad):
        dim = 1 << num_qubits
        row, col = divmod(index % (dim * dim), dim)
        m = build_hamiltonian(NoiseSpec.flip(0.3, num_qubits), num_qubits).matrix.copy()
        # a Hermitian placement: the entry and its mirror
        m[row, col] = bad
        m[col, row] = np.conj(bad)
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_matrices_rejected_before_any_arithmetic(self, bad):
        # numpy would warn on the products of a non-finite entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not unitary"):
                Gate2x2([[bad, 0], [0, 1]])
            with pytest.raises(ValueError, match="not Hermitian"):
                HermitianOperator([[bad, 0], [0, 1]])

    @FEW
    @given(st.lists(_REAL, min_size=1, max_size=4), st.integers(0, 7), _NON_FINITE)
    def test_noise_spec(self, lam, index, bad):
        mu = [0.0] * len(lam)
        if index % 2:
            mu = with_entry(mu, index // 2, bad)
        else:
            lam = with_entry(lam, index // 2, bad)
        with pytest.raises(ValueError, match="finite"):
            NoiseSpec(lam=lam, mu=mu)

    @FEW
    @given(_NON_FINITE, st.integers(1, 100))
    def test_zeno_schedule(self, bad, cycles):
        with pytest.raises(ValueError, match="total_time"):
            ZenoSchedule(total_time=bad, cycles=cycles)
        with pytest.raises(ValueError, match="cycles"):
            ZenoSchedule(total_time=1.0, cycles=bad)

    @FEW
    @given(
        st.sampled_from(["alpha0_re", "alpha0_im", "alpha1_re", "alpha1_im", "total_time", "lambda", "mu"]),
        st.sampled_from(["nan", "inf", "-inf", "NaN", "+Infinity"]),
        st.integers(0, 1),
    )
    def test_parse_config(self, key, bad, index):
        values = {"lambda": ["0.1", "0.2"], "mu": ["0.0", "0.0"], "total_time": ["1.0"], "n_values": ["4"]}
        values[key] = with_entry(values.get(key, ["0.5"]), index, bad)
        text = "".join(f"{k} = {', '.join(v)}\n" for k, v in values.items())
        with pytest.raises(ConfigError, match=f"key '{key}'.*finite"):
            parse_config(text)
