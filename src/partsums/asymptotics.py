"""Asymptotic constants and series for spaced partition subsums.

High-precision arithmetic runs on mpmath; every routine takes a Precision
switch and evaluates under that many working digits.  The residue-class
log-constants gamma_{m,h} are available by three independent routes: a
roots-of-unity sum, Gauss's closed real form (cotangent and log-sine sum),
and a digamma reduction through mpmath's psi.  The first two, both c routes
and the exact Lambert sum run their inner loops on Python ints.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple, Union

import mpmath as mp

from .exact import ConsistencyError, _check_mod_class

Real = Union[int, float, str, Fraction, mp.mpf]


class Precision(NamedTuple):
    """Working precision plus the tolerance used by internal cross-checks."""

    name: str
    dps: int
    cross_tol: float


DOUBLE = Precision("double", 16, 1e-8)
EXTENDED = Precision("extended", 50, 1e-10)

_PRECISIONS = {p.name: p for p in (DOUBLE, EXTENDED)}

def precision_named(name: str) -> Precision:
    try:
        return _PRECISIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown precision {name!r}; choose from {sorted(_PRECISIONS)}"
        ) from None


def _to_mpf(x: Real) -> mp.mpf:
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


# ---------------------------------------------------------------------------
# residue-class log-constants
# ---------------------------------------------------------------------------


def _mantissas(values) -> tuple[list[int], int]:
    """The mpf values as signed integer mantissas at their least exponent, exactly."""
    parts = [v._mpf_ for v in values]
    exp = min(e for _, _, e, _ in parts)
    return [(-man if sign else man) << e - exp for sign, man, e, _ in parts], exp


def _dot(xs, ys, exp: int) -> mp.mpf:
    """2^exp sum x y over integer mantissas: exact, rounded once, as mp.fdot is."""
    return +mp.ldexp(sum(map(mul, xs, ys)), exp)


@lru_cache(maxsize=None)
def _unit_roots(m: int, dps: int) -> tuple:
    """(e, roots, neglogs, ratios): omega^t (t = 0..m-1), -log(1 - omega^l) and
    log(1 - omega^l)/(1 - omega^l) (l = 1..m-1), rounded once at dps digits and
    kept exactly as integer mantissas at one exponent e.  roots is (Re, Im); an
    l-table T is ([Re T, -Im T], [Im T, Re T]), for dot products with [Re w, Im w]."""
    with mp.workdps(dps):
        roots = [mp.expjpi(mp.mpf(2 * t) / m) for t in range(m)]
        neglogs = [-mp.log(1 - w) for w in roots[1:]]
        ratios = [-g / (1 - w) for g, w in zip(neglogs, roots[1:])]
    mans, e = _mantissas([p for z in roots + neglogs + ratios for p in (z.real, z.imag)])
    re, im = tuple(mans[::2]), tuple(mans[1::2])  # immutable: the cache shares them
    tables = ((re[lo:lo + m - 1], im[lo:lo + m - 1]) for lo in (m, 2 * m - 1))
    return (e, (re[:m], im[:m]), *((r + tuple(-v for v in i), i + r) for r, i in tables))


def _root_sum(m: int, s: int, precision: Precision, what: str, ratios=False) -> mp.mpf:
    """Re sum_{l=1..m-1} omega^(-s l) T_l, T the neglogs or ratios of _unit_roots;
    conjugate terms pair up, so an imaginary part above cross_tol is an error."""
    e, roots, *tables = _unit_roots(m, precision.dps)
    w = [part[-s * el % m] for part in roots for el in range(1, m)]
    real, imag = (_dot(w, t, 2 * e) for t in tables[ratios])
    if abs(imag) > precision.cross_tol:
        raise ConsistencyError(
            f"{what}: imaginary residue {imag} exceeds {precision.cross_tol}")
    return real


@lru_cache(maxsize=None)
def _gauss_gammas(m: int, dps: int) -> tuple[mp.mpf, ...]:
    """gamma_{m,h} for h = 1..m (index h - 1) by the closed real form.

    cot(pi h/m), 1 and the cosines -2 cos(2 pi t/m), t < m, become integer
    mantissas at one exponent, pi/2, log 2 and log sin(pi k/m) at another; each
    h < m takes pi/2 cot(pi h/m) + log 2 + sum_k (-2 cos(2 pi h k/m)) log
    sin(pi k/m) as one exact integer dot product, rounded once, as mp.fdot is.
    """
    with mp.workdps(dps):
        ks = range(1, (m + 1) // 2)
        weights, we = _mantissas(
            [mp.pi / 2, mp.log(2), *(mp.log(mp.sinpi(mp.mpf(k) / m)) for k in ks)])
        terms, te = _mantissas([*(mp.cot(mp.pi * h / m) for h in range(1, m)), mp.mpf(1),
                                *(-2 * mp.cospi(mp.mpf(2 * t) / m) for t in range(m))])
        cots, one, cosines = terms[:m - 1], terms[m - 1], terms[m:]
        out = [_dot([cot, one, *(cosines[h * k % m] for k in ks)], weights, te + we) / m
               for h, cot in enumerate(cots, 1)]
        return (*out, -mp.log(m) / m)


@lru_cache(maxsize=None)
def _growth_terms(dps: int) -> tuple[mp.mpf, mp.mpf]:
    """The growth constant C = pi sqrt(2/3) and gamma + log(2/C) at dps digits."""
    with mp.workdps(dps):
        glc = mp.pi * mp.sqrt(mp.mpf(2) / 3)
        return glc, mp.euler + mp.log(2 / glc)


def gamma_mh_roots(m: int, h: int, precision: Precision = EXTENDED) -> mp.mpf:
    """gamma_{m,h} via the roots-of-unity sum.

    (1/m) sum_{l=1..m-1} omega^{-h l} log(1/(1 - omega^l)), omega = exp(2 pi i/m),
    as one dot product.  The imaginary part must cancel; a residue above the
    precision's tolerance raises ConsistencyError.
    """
    _check_mod_class(m, h)
    with mp.workdps(precision.dps):
        return _root_sum(m, h, precision, f"gamma_({m},{h}) roots sum") / m


def gamma_mh_gauss(m: int, h: int, precision: Precision = EXTENDED) -> mp.mpf:
    """gamma_{m,h} via the closed real form (cotangent and log-sine sum)."""
    _check_mod_class(m, h)
    return _gauss_gammas(m, precision.dps)[h - 1]


def digamma_rational(p: int, q: int, precision: Precision = EXTENDED) -> mp.mpf:
    """digamma at the rational point p/q, 1 <= p <= q, by mpmath's psi.

    psi(x) = psi(x + 1) - 1/x up to a large x, then its Euler-Maclaurin
    series there: no Gauss sum.  p = q gives -gamma exactly.
    """
    if q < 1 or not 1 <= p <= q:
        raise ValueError(f"need 1 <= p <= q, got p = {p}, q = {q}")
    with mp.workdps(precision.dps):
        if p == q:
            return -mp.euler
        return mp.digamma(mp.mpf(p) / q)


def gamma_mh_digamma(m: int, h: int, precision: Precision = EXTENDED) -> mp.mpf:
    """gamma_{m,h} via the digamma reduction -(gamma + log m + psi(h/m))/m."""
    _check_mod_class(m, h)
    with mp.workdps(precision.dps):
        psi = digamma_rational(h, m, precision)
        return -(mp.euler + mp.log(m) + psi) / m


# ---------------------------------------------------------------------------
# expectation coefficients
# ---------------------------------------------------------------------------


def b_coeff(m: int, i: int, precision: Precision = EXTENDED) -> mp.mpf:
    """Coefficient of sqrt(n) log n in the centered expectation.

    b_{m,i} = (m + 1 - 2i) / (2 C m).  The numerator is integer arithmetic,
    so the central class of odd m gives an exact zero.
    """
    _check_mod_class(m, i)
    with mp.workdps(precision.dps):
        return (m + 1 - 2 * i) / (2 * _growth_terms(precision.dps)[0] * m)


def c_coeff(m: int, i: int, precision: Precision = EXTENDED) -> mp.mpf:
    """Coefficient of sqrt(n) in the centered expectation.

    c_{m,i} = (gamma + log(2/C)) (m + 1 - 2i) / (C m)
              + (2/(C m)) sum_{l=1..m-1} omega^{-l(i-1)} log(1 - omega^l)
                                          / (1 - omega^l).
    The l-sum is one dot product, rounded once, and pairs conjugate terms,
    so the imaginary part must cancel.
    """
    _check_mod_class(m, i)
    with mp.workdps(precision.dps):
        glc, shift = _growth_terms(precision.dps)
        first = shift * (m + 1 - 2 * i) / (glc * m)
        total = _root_sum(m, i - 1, precision, f"c_({m},{i})", ratios=True)
        return first + 2 * total / (glc * m)


def c_coeff_via_gammas(m: int, i: int, precision: Precision = EXTENDED) -> mp.mpf:
    """c_{m,i} assembled from the gamma_{m,h} constants instead.

    Independent route used for cross-validation: push the S_h asymptotics
    through the residue recombination and collect the sqrt(n) coefficient,
    c = (gamma + log(2/C)) (m + 1 - 2i)/(C m)
        - (2/(C m)) sum_{j=1..m-1} j gamma_{m, i+j}  (residue folded to 1..m),
    with the gammas read from the closed-form table.  The bracket times C m
    is one dot product with integer weights, rounded once, then scaled once.
    """
    _check_mod_class(m, i)
    with mp.workdps(precision.dps):
        glc, shift = _growth_terms(precision.dps)
        gammas = _gauss_gammas(m, precision.dps)
        values, e = _mantissas([shift, *(gammas[(i + j - 1) % m] for j in range(1, m))])
        return _dot([m + 1 - 2 * i, *range(-2, -2 * m, -2)], values, e) / (glc * m)


def predict_expected_subsum(
    n: int, m: int, i: int, precision: Precision = EXTENDED
) -> mp.mpf:
    """Two-term asymptotic prediction n/m + b sqrt(n) log n + c sqrt(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_mod_class(m, i)
    with mp.workdps(precision.dps):
        rn = mp.sqrt(n)
        return (
            mp.mpf(n) / m
            + b_coeff(m, i, precision) * rn * mp.log(n)
            + c_coeff(m, i, precision) * rn
        )


def sj_sum_prediction(
    n: int, m: int, h: int, precision: Precision = EXTENDED
) -> mp.mpf:
    """Leading asymptotics of S_h(n)/p(n), the residue-restricted S."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_mod_class(m, h)
    with mp.workdps(precision.dps):
        glc, shift = _growth_terms(precision.dps)
        bracket = mp.log(n) + 2 * shift + 2 * m * gamma_mh_gauss(m, h, precision)
        return mp.sqrt(n) / (m * glc) * bracket


# ---------------------------------------------------------------------------
# Bernoulli data
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bernoulli_numbers(count: int) -> tuple[Fraction, ...]:
    """Exact B_0..B_count, B_1 = -1/2 convention."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return tuple(Fraction(*mp.bernfrac(k)) for k in range(count + 1))


def bernoulli_poly(n: int, x: Fraction) -> Fraction:
    """Bernoulli polynomial B_n(x) = sum_k C(n,k) B_k x^(n-k), exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    numbers = bernoulli_numbers(n)
    x = Fraction(x)
    return sum(math.comb(n, k) * numbers[k] * x ** (n - k) for k in range(n + 1))


def tail_coefficient(idx: int, m: int, h: int) -> Fraction:
    """Exact coefficient of (alpha m)^idx in the Lambert tail series.

    The tail is sum_{idx >= 0} coeff * (alpha m)^idx with
    coeff = -B_{idx+1} B_{idx+1}(h/m) / ((idx+1)! (idx+1)).
    Even idx >= 2 gives zero (odd Bernoulli numbers vanish), so consumers
    scanning for optimal truncation must skip the zero entries.
    """
    if idx < 0:
        raise ValueError("idx must be >= 0")
    _check_mod_class(m, h)
    b_num = bernoulli_numbers(idx + 1)[idx + 1]
    if b_num == 0:
        return Fraction(0)
    b_val = bernoulli_poly(idx + 1, Fraction(h, m))
    return -b_num * b_val / (math.factorial(idx + 1) * (idx + 1))


# ---------------------------------------------------------------------------
# Lambert-type divisor series
# ---------------------------------------------------------------------------

GUARD_DPS = 10  # extra working digits; results are rounded to dps once
_EXACT_MAX_TERMS = 10**6  # alphas whose exact sum needs more are rejected


def _alpha_mpf(alpha: Real) -> mp.mpf:
    """alpha at working precision; it must be finite and positive."""
    a = _to_mpf(alpha)
    if not mp.isfinite(a):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if a <= 0:
        raise ValueError("alpha must be positive")
    return a


def lambert_tau_exact(
    alpha: Real, m: int, h: int, precision: Precision = EXTENDED
) -> mp.mpf:
    """Exact value of sum_{d = h mod m, d >= 1} exp(-d alpha)/(1 - exp(-d alpha)).

    With x = exp(-alpha) this is sum x^(d k) over d = h (mod m), k >= 1, split
    at the hyperbola d = k into sum_k x^(k d0(k)) / (1 - x^(k m)), where
    d0(k) = k + ((h - k) mod m), and sum_d x^(d (d + 1)) / (1 - x^d); nothing
    cancels.  One loop adds term k of each part, and stops when the next two
    numerators over (1 - x)(1 - x^m) bound the tail below 10^-(dps + GUARD_DPS)
    of the total, or truncate to 0: within about K = 2 sqrt(ln(10^(dps +
    GUARD_DPS)) / alpha) terms; a K above _EXACT_MAX_TERMS raises ValueError.
    The inputs are rounded at dps + GUARD_DPS digits (prec bits), then summed
    on ints with P = prec + 2 bit_length(K) + 8 guard bits: factors below 1 in
    units of 2^-P, numerators and the total in units that make the first
    numerator, x^h, about 2^P, so a large alpha needs no wider ints.  Each
    product or quotient truncates by under one unit, so the ints add a relative
    error below about 16 K^2 2^-P <= 2^(-4 - prec); the total rounds to dps once.
    """
    _check_mod_class(m, h)
    with mp.workdps(precision.dps):
        a = _alpha_mpf(alpha)
    dps = precision.dps + GUARD_DPS
    with mp.workdps(dps):
        x = mp.exp(-a)
        terms = 2 * mp.sqrt(dps * mp.ln10 / a)
        if x == 1 or terms > _EXACT_MAX_TERMS:  # x == 1 would divide by 1 - 1
            why = (f"exp(-alpha) rounds to 1 at {dps} digits" if x == 1 else
                   f"the exact sum would need about {mp.nstr(terms, 3)} terms,"
                   f" more than {_EXACT_MAX_TERMS}")
            raise ValueError(f"alpha = {mp.nstr(a, 8)} is too small: {why}")
        xm, xh, one_xm = x**m, x**h, -mp.expm1(-m * a)
        P = mp.mp.prec + 2 * int(terms).bit_length() + 8  # 8 guard bits
        shift = P - mp.mag(xh)  # the numerators' and the total's unit is 2^-shift
        num, tri = (int(mp.ldexp(v, shift)) for v in (xh, xh ** (h + 1)))
        xm, xh, one_xm, cut, den, step, step2 = (int(mp.ldexp(v, P)) for v in (
            xm, xh, one_xm, mp.mpf(10) ** -dps * -mp.expm1(-a) * one_xm,  # the cut
            -mp.expm1(-h * a), xm ** (2 * h + m + 1), xm ** (2 * m)))
    # term k of both parts (d = h + (k - 1) m in the second); num gains x^d0
    total, xd0, xkm, den1, r = 0, xh, xm, one_xm, (h - 1) % m
    while True:
        total += (num << P) // den1 + (tri << P) // den
        den1, xkm = den1 + (xkm * one_xm >> P), xkm * xm >> P
        num, tri = num * xd0 >> P, tri * step >> P
        if not r:  # d0 moves up by m, and num also gains x^((k + 1) m)
            num, xd0 = num * xkm >> P, xd0 * xm >> P
        if num + tri <= cut * total >> P:  # <=, so numerators or a cut of 0 stop
            break
        r, step = (r - 1) % m, step * step2 >> P
        den, xh = den + (xh * one_xm >> P), xh * xm >> P
    with mp.workdps(precision.dps):
        return +mp.ldexp(total, -shift)


class SeriesEvaluation(NamedTuple):
    """An asymptotic series value with its truncation diagnostics."""

    value: mp.mpf
    terms_used: int
    last_term_magnitude: mp.mpf


def lambert_tau_asymptotic(
    alpha: Real,
    m: int,
    h: int,
    max_terms: int = 8,
    precision: Precision = EXTENDED,
) -> SeriesEvaluation:
    """Asymptotic expansion of the residue-class Lambert series.

    Main part (1/m) alpha^-1 log(alpha^-1) + (gamma/m + gamma_{m,h}) alpha^-1,
    then the Bernoulli tail in powers of (alpha m).  The tail is truncated at
    max_terms or at the first magnitude increase among nonzero terms
    (optimal truncation), whichever comes first.  The default cap of 8 is
    meant for the alpha range this expansion serves (roughly alpha <= 0.5).

    last_term_magnitude is the magnitude of the final retained nonzero term,
    the usual error proxy for an asymptotic series.  When no nonzero tail
    term is kept (max_terms = 0, or max_terms = 1 when m = 2h) it is inf and
    no warning is issued.  A warning is issued when truncation strikes
    immediately (only the constant tail term retained): that signals alpha
    is too large for the expansion to be useful.
    """
    if max_terms < 0:
        raise ValueError("max_terms must be >= 0")
    _check_mod_class(m, h)
    with mp.workdps(precision.dps):
        a = _alpha_mpf(alpha)
        inv = 1 / a
        value = inv * mp.log(inv) / m
        value += (mp.euler / m + gamma_mh_gauss(m, h, precision)) * inv
        am = a * m
        power = mp.mpf(1)
        prev_mag = mp.inf  # returned as is when no tail term is kept
        nonzero_used = 0
        terms_used = max_terms
        for idx in range(max_terms):
            coeff = tail_coefficient(idx, m, h)
            term = _to_mpf(coeff) * power
            if coeff != 0:
                mag = abs(term)
                if mag > prev_mag:
                    terms_used = idx
                    break
                prev_mag = mag
                nonzero_used += 1
            value += term
            power *= am
        if nonzero_used == 1 and terms_used < max_terms:
            warnings.warn(
                "Lambert tail truncated at its first term; alpha ="
                f" {mp.nstr(a, 8)} is too large for the asymptotic expansion",
                stacklevel=2,
            )
        return SeriesEvaluation(value, terms_used, prev_mag)


# ---------------------------------------------------------------------------
# partition growth
# ---------------------------------------------------------------------------


def hardy_ramanujan_leading(n: int, precision: Precision = EXTENDED) -> mp.mpf:
    """Leading-order p(n): exp(C sqrt(n)) / (4 n sqrt(3))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    with mp.workdps(precision.dps):
        rn = mp.sqrt(n)
        return mp.e ** (_growth_terms(precision.dps)[0] * rn) / (4 * n * mp.sqrt(3))


def ratio_prediction(n: int, k: int, precision: Precision = EXTENDED) -> mp.mpf:
    """First-order prediction of p(n-k)/p(n): exp(-C k / (2 sqrt(n)))."""
    if n < 1 or k < 0 or k > n:
        raise ValueError("need n >= 1 and 0 <= k <= n")
    with mp.workdps(precision.dps):
        return mp.e ** (-_growth_terms(precision.dps)[0] * k / (2 * mp.sqrt(n)))
