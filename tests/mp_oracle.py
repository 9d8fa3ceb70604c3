"""A 40-digit oracle for post-selected rows, in mpmath.

It shares no code with zenosim, and none of its float arithmetic: each
qubit's noise slice exp(-i t (lam X + mu P0)) comes from its own 2x2 closed
form, the register's from its own Kronecker product, each cycle's no-error
map from its own keep diagonal, and the run from its own squaring ladder,
all at DIGITS significant digits. The float inputs enter exactly, so the
only error is the 40-digit rounding, far below any float64 result's.
"""
import mpmath as mp

#: significant digits of every oracle computation
DIGITS = 40


def qubit_slice(lam: float, mu: float, tau) -> mp.matrix:
    """exp(-i tau (lam X + mu P0)) = e^{-i mu tau/2} [cos(r tau) I
    - i sin(r tau)/r (lam X + (mu/2) Z)], with r = sqrt(lam^2 + mu^2/4)."""
    lam, half_mu = mp.mpf(lam), mp.mpf(mu) / 2
    r = mp.sqrt(lam**2 + half_mu**2)
    c = mp.cos(r * tau)
    s = mp.sin(r * tau) / r if r else mp.mpf(0)  # r = 0: lam = mu = 0
    phase = mp.expj(-half_mu * tau)
    off = phase * mp.mpc(0, -s * lam)
    return mp.matrix([[phase * mp.mpc(c, -s * half_mu), off],
                      [off, phase * mp.mpc(c, s * half_mu)]])


def kron(a: mp.matrix, b: mp.matrix) -> mp.matrix:
    """The Kronecker product a (x) b: a's index is the high one."""
    out = mp.matrix(a.rows * b.rows, a.cols * b.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            for k in range(b.rows):
                for m in range(b.cols):
                    out[i * b.rows + k, j * b.cols + m] = a[i, j] * b[k, m]
    return out


def register_slice(lam, mu, tau) -> mp.matrix:
    """The slice of the whole register, qubit 0 the highest index bit."""
    u = qubit_slice(lam[0], mu[0], tau)
    for q in range(1, len(lam)):
        u = kron(u, qubit_slice(lam[q], mu[q], tau))
    return u


def kept_map(u: mp.matrix, aux_q: int) -> mp.matrix:
    """diag(keep) u, where keep is 1 on the basis states whose data bit
    equals auxiliary aux_q's: the cycle's no-error branch after the slice."""
    size = u.rows.bit_length() - 1
    out = u.copy()
    for b in range(u.rows):
        if (b >> (size - 1)) & 1 != (b >> (size - 1 - aux_q)) & 1:
            for j in range(u.cols):
                out[b, j] = 0
    return out


def power(m: mp.matrix, n: int) -> mp.matrix:
    """m**n by repeated squaring."""
    result, base = mp.eye(m.rows), m
    while n:
        if n & 1:
            result = base * result
        n >>= 1
        if n:
            base = base * base
    return result


def post_selected_run(data, lam, mu, total_time: float, n: int, aux_count: int):
    """(loss, state, fidelity) of the post-selected run of n cycles of
    total_time / n each, cycle k on auxiliary 1 + (k - 1) % aux_count, on
    the register encoded from the one-qubit ``data`` (two floats or
    complexes) with ``aux_count`` auxiliaries. loss is
    1 - ||M_n ... M_1 psi||^2 / ||psi||^2; state is M_n ... M_1 psi made
    unit-norm, the register after the run; fidelity is |<state|psi>|^2 /
    ||psi||^2. The divisions by ||psi||^2 matter: float data such as
    (0.6, 0.8) has ||psi||^2 = 1 - O(1e-16)."""
    with mp.workdps(DIGITS):
        u = register_slice(lam, mu, mp.mpf(total_time) / n)
        maps = [kept_map(u, aux) for aux in range(1, aux_count + 1)]
        if aux_count == 1:
            whole = power(maps[0], n)
        else:
            whole = power(maps[1] * maps[0], n // 2)
            if n % 2:
                whole = maps[0] * whole
        psi = mp.matrix(u.rows, 1)
        psi[0], psi[u.rows - 1] = mp.mpc(data[0]), mp.mpc(data[1])
        kept = whole * psi
        norm = sum(abs(psi[i]) ** 2 for i in range(psi.rows))
        kept_norm = sum(abs(kept[i]) ** 2 for i in range(kept.rows))
        state = kept / mp.sqrt(kept_norm)
        overlap = sum(mp.conj(state[i]) * psi[i] for i in range(psi.rows))
        return 1 - kept_norm / norm, state, abs(overlap) ** 2 / norm


def post_selected_loss(data, lam, mu, total_time: float, n: int, aux_count: int) -> mp.mpf:
    """The loss of :func:`post_selected_run`."""
    return post_selected_run(data, lam, mu, total_time, n, aux_count)[0]
