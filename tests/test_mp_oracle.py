"""The post-selected engine and its noise slice against the 40-digit oracle."""
import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zenosim import (
    AUX_DUAL_ALTERNATING,
    AUX_SINGLE,
    NoiseSpec,
    ZenoSchedule,
    new_state,
    propagator,
    run_protocol,
)
from mp_oracle import DIGITS, post_selected_loss, post_selected_run, register_slice

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


#: a noise rate: 0, or at least 1e-3 in size, so that no leaked mass
#: underflows in float64 where the oracle's does not
rates = st.one_of(st.just(0.0), st.floats(-1.5, -1e-3), st.floats(1e-3, 1.5))


@settings(max_examples=60, deadline=None)
@given(
    strategy=st.sampled_from([AUX_SINGLE, AUX_DUAL_ALTERNATING]),
    lam=st.lists(rates, min_size=3, max_size=3),
    mu=st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3),
    data=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=2, max_size=2),
    n=st.integers(1, 10**4),
)
def test_engine_agrees_with_the_oracle_now(strategy, lam, mu, data, n):
    # the ladder's roundoff grows with n, as 1 + O(T/n) entries squared
    # log2(n) times do: on these ranges the engine was off by at most
    # 1.5e-14 + 4.3e-16 n relative in the loss, 1e-15 + 1e-16 n in the
    # fidelity and 1.5e-15 + 1.5e-16 n in an amplitude of the final state
    # (8 000 random draws), so 1e-12 flat does not hold at n ~ 1e4. The
    # fidelity's error is absolute, as it is a probability: relative to a
    # fidelity near 0 it is ill-conditioned. The state pins the kept
    # entries each row ends on, which the fidelity with the encoded
    # register, on two of them, cannot see
    assume(abs(data[0]) + abs(data[1]) > 1e-3)
    size = 2 if strategy == AUX_SINGLE else 3
    lam, mu = tuple(lam[:size]), tuple(mu[:size])
    state = new_state(1, data)
    schedule = ZenoSchedule(1.0, n, aux_strategy=strategy)
    result = run_protocol(state, NoiseSpec(lam, mu), schedule)
    loss, final, fid = post_selected_run(state.amplitudes.tolist(), lam, mu, 1.0, n, size - 1)
    bound = 5e-14 + 1e-15 * n
    # a row whose flips no cycle measures leaks nothing, and the oracle's
    # 0 is then 1e-40 or so, its own rounding
    assert abs(result.loss_probability - loss) <= bound * loss + mp.mpf(10) ** (5 - DIGITS)
    assert abs(result.final_fidelity - fid) <= bound
    amplitudes = result.final_state.amplitudes.tolist()
    assert max(abs(mp.mpc(a) - final[i]) for i, a in enumerate(amplitudes)) <= bound


@pytest.mark.parametrize("tau", [1e-3, 1e-9, 1e-15])
def test_slice_entries_keep_their_relative_precision(tau):
    # every entry, down to the triple flips of order tau**3, to a few ulp
    lam, mu = GENERAL[AUX_DUAL_ALTERNATING]
    u = propagator(NoiseSpec(lam, mu), 3, tau)
    with mp.workdps(DIGITS):
        exact = register_slice(lam, mu, mp.mpf(tau))
        worst = max(abs(mp.mpc(complex(u[i, j])) - exact[i, j]) / abs(exact[i, j])
                    for i in range(8) for j in range(8))
    assert worst <= 1e-15
    assert np.isfinite(u).all()
