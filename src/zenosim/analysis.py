"""Closed-form survival references and convergence-rate fitting.

These are the independent oracles the test suite holds the simulator
against: the (1 - c/n^2)^n limit law, the exact n-projection survival of a
single qubit under a flip generator, and a log-log fit that turns the
limit law into a measurable 1/n rate.
"""
from __future__ import annotations

__all__ = [
    "ConvergencePoint", "OutOfRegimeWarning", "fit_inverse_n", "single_qubit_survival",
    "zeno_limit_formula",
]

import math
import warnings
from dataclasses import dataclass

import numpy as np


class OutOfRegimeWarning(UserWarning):
    """Input left the regime where the limit formula is meaningful."""


@dataclass(frozen=True)
class ConvergencePoint:
    """One sweep point: cycle count, measured survival, analytic reference."""

    n: int
    survival: float
    analytic_reference: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        for name in ("survival", "analytic_reference"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


def zeno_limit_formula(c: float, n: int) -> float:
    """(1 - c/n^2)^n, the survival of n ideal short-interval measurements.

    Requires a finite c >= 0 and c/n^2 < 1; out-of-regime input is clamped
    to 0 and flagged with OutOfRegimeWarning.
    """
    if not 0 <= c < math.inf:  # a NaN c fails too
        raise ValueError(f"c must be >= 0 and finite, got {c!r}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    ratio = c / (n * n)
    if ratio >= 1.0:
        warnings.warn(
            f"c/n^2 = {ratio:g} >= 1 is outside the short-interval regime; clamping to 0",
            OutOfRegimeWarning,
            stacklevel=2,
        )
        return 0.0
    return math.exp(n * math.log1p(-ratio))


def single_qubit_survival(lam: float, total_time: float, n: int) -> float:
    """cos(lam T / n)^(2n): probability that n projections onto |0> all
    succeed for a single qubit driven by a pure flip generator. A finite lam
    and T whose angle lam T / n overflows raise ValueError naming it."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    for name, value in (("lam", lam), ("total_time", total_time)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    angle = lam * total_time / n
    if not math.isfinite(angle):
        raise ValueError(f"lam*total_time/n must be finite, got {angle!r}")
    return math.cos(angle) ** (2 * n)


def fit_inverse_n(points: list[ConvergencePoint]) -> tuple[float, float]:
    """Least-squares slope of log(1 - survival) against log(n).

    Returns (slope, quality) with quality the R^2 of the fit in [0, 1]; a
    1/n convergence law shows up as slope -1. Points that have already
    converged (survival == 1) carry no rate information and are dropped; if
    every point has converged there is nothing to fit.
    """
    usable = [p for p in points if p.survival < 1.0]
    if not usable:
        raise ValueError("already converged: every point has survival = 1")
    if len({p.n for p in usable}) < 3:
        raise ValueError("need at least 3 points with distinct n and survival < 1")
    x = np.log([p.n for p in usable])
    y = np.log([1.0 - p.survival for p in usable])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    quality = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(min(max(quality, 0.0), 1.0))
