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


def _first_primes(k):
    """The first k primes, by trial division: for the small k of the tests."""
    primes = []
    n = 2
    while len(primes) < k:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


def _normalized(w):
    total = mp.fsum(w)
    return [x / total for x in w]


def zeta_spectrum(q, r, k):
    """The normalized values log1p(p_i^-q)^(1/r) over the first k primes.

    mpmath's exponents are unbounded, so values far below the double range,
    the first factors included, come out exact too.
    """
    with mp.workdps(_GUARD_DIGITS):
        q, r = mp.mpf(q), mp.mpf(r)
        return _normalized([mp.log1p(mp.mpf(p) ** -q) ** (1 / r) for p in _first_primes(k)])


def log_power_spectrum(beta, k):
    """The normalized values 1 / (n log^beta n), n = 2..k + 1."""
    with mp.workdps(_GUARD_DIGITS):
        beta = mp.mpf(beta)
        return _normalized([1 / (n * mp.log(n) ** beta) for n in range(2, k + 2)])


def deformed_entropy(lam, r, s=1):
    """The unified entropy (I_r^s - 1) / ((1 - r) s) of the values lam normalized in mpmath.

    I_r = sum mu^r over mu = lam / sum(lam). s = 1 is Tsallis, s = 0 Renyi's limit
    log(I_r) / (1 - r), and r = 1 von Neumann's -sum mu log mu. I_r - 1 cancels
    about -log10 |1 - r| digits and the entropy's own smallness more: twice the
    guard digits cover both for |1 - r| >= 1e-15 and entropies above 1e-20.
    """
    with mp.workdps(2 * _GUARD_DIGITS):
        mu = _normalized([mp.mpf(x) for x in lam if x])
        r, s = mp.mpf(r), mp.mpf(s)
        if r == 1:
            return -mp.fsum(m * mp.log(m) for m in mu)
        log_i = mp.log(mp.fsum(m**r for m in mu))
        h = log_i / (1 - r) if s == 0 else mp.expm1(s * log_i) / ((1 - r) * s)
    return h


def regularized_log_det(lam, r, alpha):
    """log det_alpha(1 + f_r) of the values lam, from its definition.

    Each value contributes ``x + sum_{j=1}^{alpha-1} (-1)^j g^j / j`` with
    x = lam^r and g = e^x - 1. That sum is at least ``g^n y / (n + 1)`` in
    size, n = alpha - 1 and y = g / (1 + g), while its partial sums reach
    ``x + g + g^n``: the working precision covers the digits it cancels, the
    digits of the alpha rounded terms, and the guard digits.
    """
    n, total = alpha - 1, mp.mpf(0)
    for v in lam:
        if not v:
            continue
        with mp.workdps(20):
            x = mp.mpf(v) ** r
            g = mp.expm1(x)
            lost = mp.log10((x + g + g**n) * (n + 1) * (1 + g) / g ** (n + 1))
        with mp.workdps(_GUARD_DIGITS + max(0, math.ceil(lost)) + len(str(alpha))):
            x = mp.mpf(v) ** r
            g, gj, terms = mp.expm1(x), mp.mpf(1), [x]
            for j in range(1, alpha):
                gj *= g
                terms.append((-1) ** j * gj / j)
            total += mp.fsum(terms)
    return total
