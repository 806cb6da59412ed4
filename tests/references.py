"""90-digit references for the paper's constants and Lambert sums, from mpmath alone.

Nothing here imports partsums (test_oracle pins this), so no check against
these values computes through the code it checks.  gamma_{m,h} comes from
mpmath's psi, as the package's digamma route does: against that route these
references check only the arithmetic around psi.  Each function works at DPS
digits, whatever the caller's precision.
"""

from functools import lru_cache
from itertools import count, islice

import mpmath as mp

DPS = 90
EPS = mp.mpf(10) ** -85  # the Lambert sums stop below this part of their total


def growth():
    """The growth constant C = pi sqrt(2/3) of p(n)."""
    with mp.workdps(DPS):
        return mp.pi * mp.sqrt(mp.mpf(2) / 3)


@lru_cache(maxsize=None)
def gamma(m, h):
    """gamma_{m,h} = -(gamma + log m + psi(h/m)) / m."""
    with mp.workdps(DPS):
        return -(mp.euler + mp.log(m) + mp.digamma(mp.mpf(h) / m)) / m


def b(m, i):
    """b_{m,i} = (m + 1 - 2i) / (2 C m)."""
    with mp.workdps(DPS):
        return mp.mpf(m + 1 - 2 * i) / (2 * growth() * m)


def c(m, i):
    """c_{m,i} = (gamma + log(2/C)) (m + 1 - 2i)/(C m) - (2/C) sum_j (j/m) gamma_{m,i+j},
    the residue i + j folded into 1..m."""
    with mp.workdps(DPS):
        glc = growth()
        total = (mp.euler + mp.log(2 / glc)) * (m + 1 - 2 * i) / (glc * m)
        for j in range(1, m):
            total -= 2 * mp.mpf(j) / m * gamma(m, (i + j) % m or m) / glc
        return total


def predicted(n, m, i):
    """The two-term prediction n/m + b sqrt(n) log n + c sqrt(n) of the mean."""
    with mp.workdps(DPS):
        rn = mp.sqrt(n)
        return mp.mpf(n) / m + b(m, i) * rn * mp.log(n) + c(m, i) * rn


def _expansion(a, m, h):
    """The Lambert expansion's main part, then its tail terms
    -B_k B_k(h/m) (a m)^(k-1) / (k! k), k = 1, 2, ..."""
    yield (mp.log(1 / a) / m + mp.euler / m + gamma(m, h)) / a
    power = mp.mpf(1)
    for k in count(1):
        yield -mp.bernoulli(k) * mp.bernpoly(k, mp.mpf(h) / m) * power / (mp.factorial(k) * k)
        power *= a * m


def lambert_series(alpha, m, h, terms):
    """The expansion through `terms` tail terms, and the size of its last
    nonzero one (inf when there is none)."""
    with mp.workdps(DPS):
        parts = _expansion(mp.mpf(alpha), m, h)
        value, last = next(parts), mp.inf
        for term in islice(parts, terms):
            value += term
            if term:
                last = abs(term)
        return value, last


def lambert(alpha, m, h, expand=None):
    """sum over d = h (mod m), d >= 1, of x^d / (1 - x^d), x = exp(-alpha).

    Summed term by term when alpha m > 0.05.  Below that the expansion
    converges instead: its remainder is of order exp(-4 pi^2 / (alpha m)),
    below 1e-340 there.  expand=False or True takes one route whatever alpha m.
    """
    with mp.workdps(DPS):
        a = mp.mpf(alpha)
        if expand is None:
            expand = a * m <= mp.mpf("0.05")
        if not expand:
            x = mp.exp(-a)
            q, step, total = x**h, x**m, mp.mpf(0)
            while True:
                term = q / (1 - q)
                total += term
                if term < EPS * total:
                    return total
                q *= step
        parts = _expansion(a, m, h)
        total = next(parts)
        for k, term in enumerate(islice(parts, 400), 1):
            total += term
            if k > 3 and term and abs(term) < EPS * abs(total):
                return total
    raise AssertionError(f"the expansion did not converge at alpha = {alpha}")
