"""The post-selected engine and its noise slice against the 40-digit oracle."""
import mpmath as mp
import numpy as np
import pytest

from zenosim import (
    AUX_DUAL_ALTERNATING,
    AUX_SINGLE,
    NoiseSpec,
    ZenoSchedule,
    new_state,
    run_protocol,
    slice_propagator,
)
from mp_oracle import DIGITS, post_selected_loss, register_slice

DATA = (0.6, 0.8)
#: general noise on every qubit, one config a strategy
GENERAL = {
    AUX_SINGLE: ((0.4123, 0.4136), (0.2577, 0.1429)),
    AUX_DUAL_ALTERNATING: ((0.4123, 0.4136, 0.3), (0.2577, 0.1429, 0.1)),
}


@pytest.mark.parametrize("aux_count", [1, 2])
@pytest.mark.parametrize("n", [10**3 + 1, 10**15 + 1])
def test_oracle_matches_the_data_only_closed_form(aux_count, n):
    # with the data qubit alone noisy every cycle keeps cos(lam T/n)^2 of
    # the mass, on either strategy
    lam = (0.4123,) + (0.0,) * aux_count
    loss = post_selected_loss(DATA, lam, (0.0,) * len(lam), 1.0, n, aux_count)
    with mp.workdps(DIGITS):
        exact = 1 - mp.cos(mp.mpf(lam[0]) / n) ** (2 * n)
        assert abs(loss - exact) <= 1e-20 * exact


def loss_error(strategy, n) -> float:
    """The engine's relative loss error against the oracle, on GENERAL noise."""
    lam, mu = GENERAL[strategy]
    schedule = ZenoSchedule(1.0, n, aux_strategy=strategy)
    loss = run_protocol(new_state(1, list(DATA)), NoiseSpec(lam, mu), schedule).loss_probability
    exact = post_selected_loss(DATA, lam, mu, 1.0, n, schedule.aux_count)
    return float(abs(loss - exact) / exact)


@pytest.mark.parametrize("strategy", [AUX_SINGLE, AUX_DUAL_ALTERNATING])
@pytest.mark.parametrize("n", [1, 2, 3, 64])
def test_engine_loss_at_small_n(strategy, n):
    # every count's cycle order, odd counts ending on the first auxiliary;
    # today's engine meets 7.5e-15 here
    assert loss_error(strategy, n) <= 1e-13


@pytest.mark.parametrize("strategy", [AUX_SINGLE, AUX_DUAL_ALTERNATING])
@pytest.mark.parametrize("n", [10**9 + 1, 10**12 + 1, 10**15 + 1])
def test_engine_loss_at_large_n(strategy, n):
    # the closed-form slice keeps its O(T/n) entries to their last bits; the
    # remaining ~1e-9 is the ladder's 1 + O(T/n) diagonal (ROADMAP item 6)
    assert loss_error(strategy, n) <= 2e-9


@pytest.mark.parametrize("tau", [1e-3, 1e-9, 1e-15])
def test_slice_entries_keep_their_relative_precision(tau):
    # every entry, down to the triple flips of order tau**3, to a few ulp
    lam, mu = GENERAL[AUX_DUAL_ALTERNATING]
    u = slice_propagator(NoiseSpec(lam, mu), 3, tau)
    with mp.workdps(DIGITS):
        exact = register_slice(lam, mu, mp.mpf(tau))
        worst = max(abs(mp.mpc(complex(u[i, j])) - exact[i, j]) / abs(exact[i, j])
                    for i in range(8) for j in range(8))
    assert worst <= 1e-15
    assert np.isfinite(u).all()
