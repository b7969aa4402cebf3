"""mpmath references for the library's closed forms.

Each oracle evaluates its quantity in arbitrary precision from the exact
binary value of its float arguments, and returns an ``mpf``. The working
precision is chosen from the arguments so that the cancellation inside the
formula leaves at least 40 correct digits; tests compare floats against
these values with a stated relative bound.
"""

import math

import mpmath as mp

_GUARD_DIGITS = 40


def _geometric(r):
    """sinh^2 r = t / (1 - t) and a = -log t for t = tanh^2 r, without forming 1 - t.

    1 - t would round the t term away at small r at any fixed precision
    (at 60 digits, r = 1e-155 gives 1 - t = 1).
    """
    s2 = mp.sinh(r) ** 2
    return s2, mp.log1p(1 / s2)


def _digits(r):
    # the mean below cancels sinh^2 r ~ e^2r / 4 against (N + 1) / expm1(L) ~ 1 / a
    return _GUARD_DIGITS + math.ceil(2 * r / math.log(10))


def truncated_geometric_entropy(r, n_max):
    """Entropy of p_n = t^n / sum_{m <= N} t^m, n = 0..N = n_max, with t = tanh^2 r.

    The Schmidt spectrum of the two-mode squeezed vacuum truncated at
    n_max and renormalized. With L = (N + 1) a it is
    log Z + a mean = log1p(s2) + log(1 - e^-L) + a (s2 - (N + 1) / expm1(L)).
    """
    if r == 0:
        return mp.mpf(0)
    with mp.workdps(_digits(r)):
        s2, a = _geometric(mp.mpf(r))
        big_l = (n_max + 1) * a
        # log(1 - e^-L), through whichever of 1 - e^-L and e^-L is small
        log_d = mp.log(-mp.expm1(-big_l)) if big_l < 1 else mp.log1p(-mp.exp(-big_l))
        h = mp.log1p(s2) + log_d + a * (s2 - (n_max + 1) / mp.expm1(big_l))
    return h


def truncated_geometric_entropy_sum(r, n_max):
    """The same entropy as the term-by-term sum -sum p_n log p_n; for small n_max only.

    log p_0 = -log Z ~ -t cancels about -log10 t digits in log(1 / Z); they are added.
    """
    with mp.workdps(_digits(r) + max(0, math.ceil(-2 * math.log10(r)))):
        t = mp.tanh(mp.mpf(r)) ** 2
        w = [t**n for n in range(n_max + 1)]
        z = mp.fsum(w)
        h = -mp.fsum(x / z * mp.log(x / z) for x in w if x)
    return h


def geometric_tail_mass(r, n_max):
    """t^(N + 1), t = tanh^2 r: the mass of the untruncated Schmidt series past N = n_max."""
    if r == 0:
        return mp.mpf(0)
    with mp.workdps(_digits(r)):
        _, a = _geometric(mp.mpf(r))
        q = mp.exp(-(n_max + 1) * a)
    return q
