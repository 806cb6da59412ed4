"""90-digit references for the paper's constants and Lambert sums, and exact
p(n), from mpmath and the standard library alone.

Nothing here imports partsums (test_oracle pins this), so no check against
these values computes through the code it checks.  gamma_{m,h} comes from
mpmath's psi, as the package's digamma route does; psi_by_stieltjes checks
that psi by mpmath's Stieltjes-constant route, which does not call digamma.
partition_number takes p(n) from Rademacher's series, not from Euler's
pentagonal recurrence.  Each mpmath function works at DPS digits, whatever
the caller's precision.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from math import gcd, isqrt

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


@lru_cache(maxsize=None)
def psi_by_stieltjes(h, m):
    """psi(h/m) as minus the zeroth Stieltjes constant gamma_0(h/m)."""
    with mp.workdps(DPS):
        return -mp.stieltjes(0, mp.mpf(h) / m)


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


def _dedekind_sum(h, k):
    """s(h, k) for coprime 0 <= h < k, exactly, by reciprocity:
    s(h, k) + s(k, h) = (h/k + k/h + 1/(h k)) / 12 - 1/4."""
    total, sign = Fraction(0), 1
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        h, k, sign = k % h, h, -sign
    return total


def _remainder_bound(n, terms):
    """Lehmer's bound (Trans. AMS 43, 1938) on what Rademacher's series
    leaves after `terms` terms, in the form Johansson (LMS J. Comput. Math.
    15, 2012) states it.  At n = 50, 500, 2000 and 5000 and 1..79 terms the
    true remainder stays below 12% of it."""
    with mp.workprec(53):
        return (44 * mp.pi**2 / (225 * mp.sqrt(3)) / mp.sqrt(terms)
                + mp.pi * mp.sqrt(2) / 75 * mp.sqrt(mp.mpf(terms) / (n - 1))
                * mp.sinh(mp.pi * mp.sqrt(mp.mpf(2 * n) / 3) / terms))


def partition_number(n):
    """p(n) for n >= 2 by the Hardy-Ramanujan-Rademacher series,

    p(n) = sum_k A_k(n) sqrt(k) / (pi sqrt 2) d/dn [sinh(C lam / k) / lam],
    lam = sqrt(n - 1/24), C = pi sqrt(2/3), summed until the remainder bound
    drops below 1/4.  Term k is about exp(C lam / k), so it takes that many
    bits plus 64 (Johansson, 2012).  A_k(n) = sum over h coprime to k of
    cos(pi (s(h, k) - 2 n h / k)), the argument exact and reduced mod 2.
    """
    if n < 2:
        raise ValueError("the remainder bound needs n >= 2")
    terms = next(k for k in count(1) if _remainder_bound(n, k) < 0.25)
    magnitude = 3.71 * (isqrt(n) + 1)  # C sqrt(n) / ln 2, C / ln 2 = 3.7007...
    with mp.workprec(int(magnitude) + 64):
        total = mp.mpf(0)
        for k in range(1, terms + 1):
            with mp.workprec(int(magnitude / k) + 64):
                glc, lam = mp.pi * mp.sqrt(mp.mpf(2) / 3), mp.sqrt(n - mp.mpf(1) / 24)
                a_k = mp.fsum(
                    mp.cospi(mp.mpf(t.numerator) / t.denominator)
                    for t in ((_dedekind_sum(h, k) - Fraction(2 * n * h, k)) % 2
                              for h in range(k) if gcd(h, k) == 1))
                u = glc * lam / k
                term = (a_k * mp.sqrt(k) / (2 * mp.sqrt(2) * mp.pi * lam**2)
                        * (glc / k * mp.cosh(u) - mp.sinh(u) / lam))
            total += term
        nearest = int(mp.nint(total))
        if abs(total - nearest) >= mp.mpf(1) / 4:
            raise AssertionError(f"Rademacher's series gave {total} for p({n})")
        return nearest
