"""Truncated Taylor series for exp(-i H t), kept as a reference for the
closed form of ``zenosim.noise.propagator``: it shares no code with it, and
its truncation error is bounded below SERIES_TOL.
"""
import math

import numpy as np

#: truncation bound of the series
SERIES_TOL = 1e-12


def series_propagator(m: np.ndarray, t: float) -> np.ndarray:
    """exp(-i m t) for a Hermitian matrix ``m``."""
    # scale so the series converges fast, then square back up
    theta = float(np.linalg.norm(m, 2)) * abs(t)
    squarings = 0
    while theta > 0.5:
        theta /= 2.0
        squarings += 1
    a = m * (-1j * t / (1 << squarings))
    tol = SERIES_TOL / (1 << (squarings + 1))
    dim = m.shape[0]
    term = np.eye(dim, dtype=complex)
    total = term.copy()
    for k in range(1, 60):
        term = term @ a / k
        total += term
        tail = theta ** (k + 1) / math.factorial(k + 1) / (1.0 - theta / (k + 2))
        if tail < tol:
            break
    else:
        raise RuntimeError("series propagator failed to converge")
    for _ in range(squarings):
        total = total @ total
    return total
