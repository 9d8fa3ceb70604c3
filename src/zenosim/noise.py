"""Coherent drift noise: per-qubit flip/energy generator and exact time evolution.

The error Hamiltonian is H = sum_i (lam_i X_i + mu_i P0_i), where X_i flips
qubit i and P0_i adds mu_i to every basis state whose qubit i reads 0 (the
energy origin sits on the 0 value; only energy differences are observable).
Units are natural, hbar = 1: all rates are radians per unit time.

At first order this generator phases the code words through the diagonal
terms and leaks amplitude only into single-flip basis states, while
double-flip transitions appear at second order.

Each term acts on one qubit, so the terms commute and exp(-i H t) factors
exactly: it is the Kronecker product of one 2x2 closed form per qubit.
:func:`propagator` builds it that way, with no eigendecomposition, for the
engine's noise slices and for :func:`evolve_exact` alike;
:func:`build_hamiltonian` writes H itself out, for the first-order expansion.
"""
from __future__ import annotations

__all__ = [
    "NoiseSpec", "apply_propagator", "build_hamiltonian", "evolve_exact",
    "evolve_first_order", "expansion_defect", "propagator",
]

import math
from dataclasses import dataclass, field

import numpy as np

from .states import StateVector


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


def _check_register(spec: NoiseSpec, num_qubits: int) -> None:
    if spec.num_qubits != num_qubits:
        raise ValueError(
            f"noise spec covers {spec.num_qubits} qubit(s) but the register has {num_qubits}"
        )


def _finite_time(t) -> float:
    if np.ndim(t) != 0 or not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")
    return float(t)


def build_hamiltonian(spec: NoiseSpec, num_qubits: int) -> np.ndarray:
    """A fresh, read-only H = sum_i (lam_i X_i + mu_i P0_i) on ``num_qubits`` qubits."""
    _check_register(spec, num_qubits)
    dim = 1 << num_qubits
    h = np.zeros((dim, dim), dtype=complex)
    for q in range(num_qubits):
        mask = 1 << (num_qubits - 1 - q)
        for b in range(dim):
            if b & mask == 0:
                h[b, b] += spec.mu[q]
            h[b ^ mask, b] += spec.lam[q]
    h.flags.writeable = False
    return h


def propagator(spec: NoiseSpec, num_qubits: int, t: float | np.ndarray) -> np.ndarray:
    """exp(-i H t) for H = build_hamiltonian(spec, num_qubits), in closed
    form: qubit q's factor is e^{-i mu t/2} [cos(r t) I - i sin(r t)/r (lam X
    + (mu/2) Z)], with r = sqrt(lam^2 + mu^2/4), worked out with ``math`` on
    Python floats, and U = u_0 (x) ... (x) u_{k-1} is formed by broadcasting,
    with no BLAS or LAPACK call. For a 1-D array of times, the (len(t), d, d)
    stack. A zero time is the exact identity; a phase r t that overflows
    raises ValueError naming it."""
    _check_register(spec, num_qubits)
    times = np.asarray(t, dtype=float)
    if times.ndim > 1 or not np.isfinite(times).all():
        raise ValueError(f"time must be finite, a number or a 1-D array, got {t!r}")
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


def apply_propagator(state: StateVector, u: np.ndarray) -> StateVector:
    """Apply a precomputed propagator matrix; norm must stay within tolerance."""
    if u.shape != (state.amplitudes.size, state.amplitudes.size):
        raise ValueError(
            f"propagator shape {u.shape} does not match state dimension {state.amplitudes.size}"
        )
    return StateVector._checked(state.num_qubits, u @ state.amplitudes)


def evolve_exact(state: StateVector, spec: NoiseSpec, t: float) -> StateVector:
    """Evolve by exp(-i H t) for one finite time t, H from ``spec``; unitary,
    composes additively in t."""
    return apply_propagator(state, propagator(spec, state.num_qubits, _finite_time(t)))


def evolve_first_order(state: StateVector, spec: NoiseSpec, t: float) -> StateVector:
    """Short-time expansion (I - i H t) psi, H from ``spec``, returned unnormalized.

    The output norm differs from 1 at O(t^2); it is deliberately not repaired
    and the result is marked is_normalized=False.
    """
    h = build_hamiltonian(spec, state.num_qubits)
    amps = state.amplitudes - 1j * _finite_time(t) * (h @ state.amplitudes)
    return StateVector._wrap(state.num_qubits, amps, normalized=False)


def expansion_defect(state: StateVector, spec: NoiseSpec, t: float) -> float:
    """Euclidean distance between exact and first-order evolution; O(t^2)."""
    exact = evolve_exact(state, spec, t)
    first = evolve_first_order(state, spec, t)
    return float(np.linalg.norm(exact.amplitudes - first.amplitudes))
