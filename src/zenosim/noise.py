"""Coherent drift noise: per-qubit flip/energy generator and exact time evolution.

The error Hamiltonian is H = sum_i (lam_i X_i + mu_i P0_i), where X_i flips
qubit i and P0_i adds mu_i to every basis state whose qubit i reads 0 (the
energy origin sits on the 0 value; only energy differences are observable).
Units are natural, hbar = 1: all rates are radians per unit time.

At first order this generator phases the code words through the diagonal
terms and leaks amplitude only into single-flip basis states, while
double-flip transitions appear at second order.

Each term acts on one qubit, so the terms commute and a noise slice
factors exactly: exp(-i H t) is the Kronecker product of one 2x2 closed form
per qubit. :func:`slice_propagator` builds the engine's slices that way,
with no eigendecomposition; :func:`build_hamiltonian` and
:func:`propagator` keep the dense operator and its ``eigh`` for
:func:`evolve_exact` and the expansion check.
"""
from __future__ import annotations

__all__ = [
    "HermitianOperator", "NoiseSpec", "apply_propagator", "build_hamiltonian",
    "evolve_exact", "evolve_first_order", "expansion_defect", "propagator",
    "slice_propagator",
]

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .states import StateVector

HERMITIAN_TOL = 1e-12

#: Hamiltonians build_hamiltonian keeps: the rows of one sweep share one
#: entry, and callers that interleave a few noise specs keep theirs too
HAMILTONIAN_CACHE_SIZE = 32


@dataclass(frozen=True)
class NoiseSpec:
    """Per-qubit coherent drift parameters.

    lam[i] couples qubit i to a bit flip; mu[i] is the diagonal energy of its
    0 value. The all-zero spec is the exact no-noise case.
    """

    lam: tuple[float, ...]
    mu: tuple[float, ...] = field(default=())

    def __post_init__(self):
        lam = tuple(float(x) for x in self.lam)
        mu = tuple(float(x) for x in self.mu) if self.mu else (0.0,) * len(lam)
        if len(lam) == 0:
            raise ValueError("noise spec needs at least one qubit entry")
        if len(mu) != len(lam):
            raise ValueError(
                f"'mu' must match the length of 'lam': lam has {len(lam)} entries but mu has {len(mu)}"
            )
        for name, values in (("lam", lam), ("mu", mu)):
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{name} entries must be finite, got {values}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)

    @property
    def num_qubits(self) -> int:
        return len(self.lam)

    @classmethod
    def zero(cls, num_qubits: int) -> "NoiseSpec":
        return cls(lam=(0.0,) * num_qubits, mu=(0.0,) * num_qubits)

    @classmethod
    def flip(cls, strength: float, num_qubits: int) -> "NoiseSpec":
        """Flip coupling ``strength`` on every qubit, no diagonal energy."""
        return cls(lam=(float(strength),) * num_qubits, mu=(0.0,) * num_qubits)


class HermitianOperator:
    """A 2**k x 2**k complex matrix equal to its conjugate transpose.

    The operator is immutable: ``matrix`` is a read-only array that cannot be
    rebound, so its eigendecomposition, computed on first use, never goes
    stale.
    """

    __slots__ = ("_matrix", "_spectrum")

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator must be square, got shape {m.shape}")
        dim = m.shape[0]
        if dim < 2 or dim & (dim - 1) != 0:
            raise ValueError(f"dimension must be a power of two >= 2, got {dim}")
        if not np.isfinite(m).all():
            raise ValueError("matrix is not Hermitian (non-finite entries)")
        defect = np.max(np.abs(m - m.conj().T))
        if not defect <= HERMITIAN_TOL:  # a NaN defect fails too
            raise ValueError(f"matrix is not Hermitian (deviation {defect:.3e})")
        m.flags.writeable = False
        self._matrix = m
        self._spectrum = None

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w, v, v^+) with H = v diag(w) v^+, from one ``eigh`` on first
        use; the arrays are read-only."""
        if self._spectrum is None:
            w, v = np.linalg.eigh(self._matrix)
            vh = v.conj().T
            for a in (w, v, vh):
                a.flags.writeable = False
            self._spectrum = (w, v, vh)
        return self._spectrum

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def num_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


def _check_register(spec: NoiseSpec, num_qubits: int) -> None:
    if spec.num_qubits != num_qubits:
        raise ValueError(
            f"noise spec covers {spec.num_qubits} qubit(s) but the register has {num_qubits}"
        )


def _checked_times(t) -> np.ndarray:
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or not np.isfinite(times).all():
        raise ValueError(f"time must be finite, a number or a 1-D array, got {t!r}")
    return times


@lru_cache(maxsize=HAMILTONIAN_CACHE_SIZE)
def build_hamiltonian(spec: NoiseSpec, num_qubits: int) -> HermitianOperator:
    """Assemble H = sum_i (lam_i X_i + mu_i P0_i) on ``num_qubits`` qubits.

    Results are cached per (spec, num_qubits), so repeated calls with one
    spec share one operator and one eigendecomposition. NoiseSpec is frozen
    and holds finite floats only; the one pair of distinct specs that compare
    equal, +0.0 against -0.0 in an entry, builds the same matrix, because
    every entry is accumulated onto a +0.0.
    """
    _check_register(spec, num_qubits)
    dim = 1 << num_qubits
    h = np.zeros((dim, dim), dtype=complex)
    for q in range(num_qubits):
        mask = 1 << (num_qubits - 1 - q)
        for b in range(dim):
            if b & mask == 0:
                h[b, b] += spec.mu[q]
            h[b ^ mask, b] += spec.lam[q]
    return HermitianOperator(h)


def slice_propagator(spec: NoiseSpec, num_qubits: int, t: float | np.ndarray) -> np.ndarray:
    """exp(-i H t) for H = build_hamiltonian(spec, num_qubits), in closed
    form: qubit q's factor is e^{-i mu t/2} [cos(r t) I - i sin(r t)/r (lam X
    + (mu/2) Z)], with r = sqrt(lam^2 + mu^2/4), worked out with ``math`` on
    Python floats, and U = u_0 (x) ... (x) u_{k-1} is formed by broadcasting,
    with no BLAS or LAPACK call. For a 1-D array of times, the (len(t), d, d)
    stack. A zero time is the exact identity; a phase r t that overflows
    raises ValueError naming it."""
    _check_register(spec, num_qubits)
    times = _checked_times(t)
    qubits = [(lam, mu / 2, math.hypot(lam, mu / 2)) for lam, mu in zip(spec.lam, spec.mu)]
    entries = []  # re, im of u_q[0, 0], u_q[0, 1], u_q[1, 0], u_q[1, 1], time by time
    for tau in times.reshape(-1).tolist():
        for q, (lam, half_mu, r) in enumerate(qubits):
            if tau == 0.0:  # the exact identity, even for an infinite r
                entries += (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)
                continue
            # |mu/2| <= r, so the phase mu t/2 is finite wherever r t is
            rt = r * tau
            if not math.isfinite(rt):
                raise ValueError(f"noise phase r*t must be finite, got {rt!r} "
                                 f"(qubit {q}, r = {r!r}, t = {tau!r})")
            c, s = math.cos(rt), (math.sin(rt) / r if r else 0.0)
            cp, sp = math.cos(half_mu * tau), math.sin(half_mu * tau)
            # e^{-i phase} (c - i s (mu/2) Z) on the diagonal, e^{-i phase} (-i s lam) off it
            z, x = s * half_mu, s * lam
            entries += (cp * c - sp * z, -(cp * z + sp * c), -sp * x, -cp * x,
                        -sp * x, -cp * x, cp * c + sp * z, cp * z - sp * c)
    factors = np.array(entries).view(complex).reshape(-1, num_qubits, 2, 2)
    u = factors[:, 0]
    for q in range(1, num_qubits):
        dim = 2 * u.shape[-1]
        u = (u[:, :, None, :, None] * factors[:, q, None, :, None, :]).reshape(-1, dim, dim)
    return u if times.ndim else u[0]


def propagator(h: HermitianOperator, t: float | np.ndarray) -> np.ndarray:
    """Unitary exp(-i H t), from the eigendecomposition of H (exact at these
    dimensions). For a 1-D array of times, the (len(t), d, d) stack of their
    propagators, each row equal to the one a single time gives. A phase w t
    of an eigenvalue w that overflows raises ValueError naming it."""
    times = _checked_times(t)
    w, v, vh = h.spectrum
    column = times.reshape(-1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = w * column
    still = column[:, 0] == 0.0  # a zero time is the exact identity, even for an infinite w
    overflow = ~(np.isfinite(phase) | still[:, None])
    if overflow.any():
        row, col = np.argwhere(overflow)[0]
        raise ValueError(f"noise phase w*t must be finite, got {float(phase[row, col])!r} "
                         f"(w = {float(w[col])!r}, t = {float(column[row, 0])!r})")
    stack = (v * np.exp(-1j * phase)[:, None, :]) @ vh
    stack[still] = np.eye(h.dim)
    return stack if times.ndim else stack[0]


def apply_propagator(state: StateVector, u: np.ndarray) -> StateVector:
    """Apply a precomputed propagator matrix; norm must stay within tolerance."""
    if u.shape != (state.amplitudes.size, state.amplitudes.size):
        raise ValueError(
            f"propagator shape {u.shape} does not match state dimension {state.amplitudes.size}"
        )
    return StateVector._checked(state.num_qubits, u @ state.amplitudes)


def evolve_exact(state: StateVector, h: HermitianOperator, t: float) -> StateVector:
    """Evolve by exp(-i H t); unitary, composes additively in t."""
    if h.dim != state.amplitudes.size:
        raise ValueError(f"operator dim {h.dim} does not match state dim {state.amplitudes.size}")
    return apply_propagator(state, propagator(h, t))


def evolve_first_order(state: StateVector, h: HermitianOperator, t: float) -> StateVector:
    """Short-time expansion (I - i H t) psi, returned unnormalized.

    The output norm differs from 1 at O(t^2); it is deliberately not repaired
    and the result is marked is_normalized=False.
    """
    if h.dim != state.amplitudes.size:
        raise ValueError(f"operator dim {h.dim} does not match state dim {state.amplitudes.size}")
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    amps = state.amplitudes - 1j * t * (h.matrix @ state.amplitudes)
    return StateVector._wrap(state.num_qubits, amps, normalized=False)


def expansion_defect(state: StateVector, h: HermitianOperator, t: float) -> float:
    """Euclidean distance between exact and first-order evolution; O(t^2)."""
    exact = evolve_exact(state, h, t)
    first = evolve_first_order(state, h, t)
    return float(np.linalg.norm(exact.amplitudes - first.amplitudes))
