"""Tests for the asymptotic constants, series, and their cross-routes."""

import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import references
from partsums import exact, asymptotics
from partsums.asymptotics import (
    DOUBLE,
    EXTENDED,
    b_coeff,
    bernoulli_numbers,
    bernoulli_poly,
    c_coeff,
    c_coeff_via_gammas,
    digamma_rational,
    gamma_mh_digamma,
    gamma_mh_gauss,
    gamma_mh_roots,
    hardy_ramanujan_leading,
    lambert_tau_asymptotic,
    lambert_tau_exact,
    precision_named,
    predict_expected_subsum,
    ratio_prediction,
    sj_sum_prediction,
    tail_coefficient,
)

ROUTES = (gamma_mh_roots, gamma_mh_gauss, gamma_mh_digamma)


def test_precision_named():
    assert precision_named("double") is DOUBLE
    assert precision_named("extended") is EXTENDED
    with pytest.raises(ValueError):
        precision_named("single")


def test_gamma_known_closed_forms():
    with mp.workdps(50):
        half_log2 = mp.log(2) / 2
        for route in ROUTES:
            assert abs(route(2, 1) - half_log2) < mp.mpf("1e-40")
            assert abs(route(2, 2) + half_log2) < mp.mpf("1e-40")
        assert gamma_mh_roots(1, 1) == 0


def test_gamma_multiple_of_m_class():
    with mp.workdps(50):
        for m in range(1, 11):
            want = -mp.log(m) / m
            for route in ROUTES:
                assert abs(route(m, m) - want) < mp.mpf("1e-40")


def test_gamma_three_routes_agree():
    for m in range(1, 17):
        for h in range(1, m + 1):
            values = [route(m, h) for route in ROUTES]
            with mp.workdps(50):
                for a in values:
                    for b in values:
                        assert abs(a - b) < mp.mpf("1e-40")


def test_gamma_residue_classes_sum_to_zero():
    for route in ROUTES:
        for m in range(1, 13):
            with mp.workdps(50):
                total = sum(route(m, h) for h in range(1, m + 1))
                assert abs(total) < mp.mpf("1e-40")


def test_gamma_validation():
    for route in ROUTES:
        with pytest.raises(ValueError):
            route(4, 0)
        with pytest.raises(ValueError):
            route(4, 5)


def test_digamma_rational_special_points():
    with mp.workdps(50):
        g = +mp.euler
        assert abs(digamma_rational(1, 1) + g) == 0
        assert abs(digamma_rational(1, 2) + g + 2 * mp.log(2)) < mp.mpf("1e-45")
        assert abs(digamma_rational(3, 3) + g) == 0


def test_digamma_rational_against_series_oracle():
    # Independent oracle: the defining series summed to N with an
    # Euler-Maclaurin tail through the B_4 term (remainder ~ 1e-21 at N=1e4).
    def oracle_psi(p, q, N=10000):
        x = mp.mpf(p) / q
        s = mp.mpf(0)
        for k in range(N):
            s += mp.mpf(1) / (k + 1) - 1 / (k + x)
        integral = mp.log((N + x) / (N + 1))
        f_n = 1 / mp.mpf(N + 1) - 1 / (N + x)
        fp = -1 / mp.mpf(N + 1) ** 2 + 1 / (N + x) ** 2
        fppp = -6 / mp.mpf(N + 1) ** 4 + 6 / (N + x) ** 4
        return -+mp.euler + s + integral + f_n / 2 - fp / 12 + fppp / 720

    with mp.workdps(50):
        for p, q in [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (5, 6), (7, 10)]:
            assert abs(digamma_rational(p, q) - oracle_psi(p, q)) < mp.mpf("1e-12")


def test_digamma_rational_validation():
    for p, q in [(0, 3), (4, 3), (1, 0), (-1, 2)]:
        with pytest.raises(ValueError):
            digamma_rational(p, q)


def test_b_coeff_reference_value():
    with mp.workdps(50):
        want = mp.sqrt(6) / (8 * mp.pi)
        assert abs(b_coeff(2, 1) - want) < mp.mpf("1e-40")


def test_b_coeff_structure():
    assert b_coeff(3, 2) == 0
    assert b_coeff(7, 4) == 0
    with mp.workdps(50):
        # negation must stay inside the working precision: at ambient dps
        # the unary minus would round and break exact equality
        for m in range(1, 11):
            for i in range(1, m + 1):
                assert b_coeff(m, i) == -b_coeff(m, m + 1 - i)
        for m in range(1, 11):
            total = sum(b_coeff(m, i) for i in range(1, m + 1))
            assert abs(total) < mp.mpf("1e-40")


def test_c_coeff_reference_value():
    with mp.workdps(50):
        want = -mp.sqrt(2) / 9
        assert abs(c_coeff(3, 2) - want) < mp.mpf("1e-40")


def test_c_coeff_residue_classes_sum_to_zero():
    with mp.workdps(50):
        for m in range(1, 13):
            total = sum(c_coeff(m, i) for i in range(1, m + 1))
            assert abs(total) < mp.mpf("1e-38")


def test_c_coeff_one_class():
    assert c_coeff(1, 1) == 0


def test_c_coeff_two_routes_agree():
    with mp.workdps(50):
        for m in range(1, 11):
            for i in range(1, m + 1):
                direct = c_coeff(m, i)
                recombined = c_coeff_via_gammas(m, i)
                assert abs(direct - recombined) < mp.mpf("1e-40")


def test_extended_coefficients_reach_full_precision():
    tol = mp.mpf("1e-45")
    for m, i in [(2, 1), (3, 1), (4, 3), (5, 2), (7, 7)]:
        with mp.workdps(70):
            c_ref, mean_ref = references.c(m, i), references.predicted(1000, m, i)
            assert abs(c_coeff(m, i, EXTENDED) - c_ref) < tol
            assert abs(c_coeff_via_gammas(m, i, EXTENDED) - c_ref) < tol
            mean = predict_expected_subsum(1000, m, i, EXTENDED)
            assert abs(mean - mean_ref) < tol * abs(mean_ref)


def test_coefficients_at_double_precision():
    with mp.workdps(50):
        for m, i in [(2, 1), (3, 2), (5, 4), (6, 1)]:
            assert abs(b_coeff(m, i, DOUBLE) - references.b(m, i)) < mp.mpf("1e-12")
            assert abs(c_coeff(m, i, DOUBLE) - references.c(m, i)) < mp.mpf("1e-12")
        for m, h in [(2, 1), (6, 5), (12, 7)]:
            for route in ROUTES:
                assert abs(route(m, h, DOUBLE) - references.gamma(m, h)) < mp.mpf("1e-12")


def test_predict_expected_subsum_identity_class():
    for n in (1, 10, 1000):
        assert predict_expected_subsum(n, 1, 1) == n


def test_bernoulli_numbers():
    numbers = bernoulli_numbers(12)
    assert numbers[0] == 1
    assert numbers[1] == Fraction(-1, 2)
    assert numbers[2] == Fraction(1, 6)
    assert numbers[12] == Fraction(-691, 2730)
    assert all(numbers[k] == 0 for k in range(3, 12, 2))
    with pytest.raises(ValueError):
        bernoulli_numbers(-1)


def test_bernoulli_poly_identities():
    numbers = bernoulli_numbers(16)
    x = Fraction(3, 7)
    assert bernoulli_poly(1, x) == x - Fraction(1, 2)
    for n in range(17):
        assert bernoulli_poly(n, Fraction(0)) == numbers[n]
        if n != 1:
            assert bernoulli_poly(n, Fraction(1)) == numbers[n]
        # halving identity: B_n(1/2) = (2^(1-n) - 1) B_n
        assert bernoulli_poly(n, Fraction(1, 2)) == (
            Fraction(2) ** (1 - n) - 1
        ) * numbers[n]
    # forward difference: B_n(x+1) - B_n(x) = n x^(n-1)
    for n in range(1, 11):
        diff = bernoulli_poly(n, x + 1) - bernoulli_poly(n, x)
        assert diff == n * x ** (n - 1)
    with pytest.raises(ValueError):
        bernoulli_poly(-1, x)


def test_tail_coefficient_values():
    assert tail_coefficient(0, 1, 1) == Fraction(1, 4)
    assert tail_coefficient(1, 1, 1) == Fraction(-1, 144)
    for idx in (2, 4, 6, 10):
        assert tail_coefficient(idx, 3, 2) == 0
    assert tail_coefficient(0, 2, 1) == 0  # B_1(1/2) = 0
    with pytest.raises(ValueError):
        tail_coefficient(-1, 1, 1)


def test_lambert_exact_far_tail():
    with mp.workdps(50):
        value = lambert_tau_exact(50, 1, 1)
        assert abs(value - mp.e ** -50) / value < mp.mpf("1e-20")


def test_lambert_exact_against_divisor_sieve():
    # Dual route: sum tau(k) x^k directly from the sieve.  tau(k) <= k makes
    # the cutoff tail below 1e-30 of the total at k = 800, alpha = 0.1.
    tables = exact.divisor_tables(800, 1, 1)
    with mp.workdps(50):
        x = mp.e ** mp.mpf("-0.1")
        direct = mp.mpf(0)
        power = mp.mpf(1)
        for k in range(1, 801):
            power *= x
            direct += tables.tau[k] * power
        ours = lambert_tau_exact("0.1", 1, 1)
        assert abs(ours - direct) / direct < mp.mpf("1e-12")


def test_lambert_exact_residues_sum_to_full():
    with mp.workdps(50):
        for alpha in ("0.1", "0.02"):
            full = lambert_tau_exact(alpha, 1, 1)
            for m in range(2, 6):
                split = sum(lambert_tau_exact(alpha, m, h) for h in range(1, m + 1))
                assert abs(split - full) / full < mp.mpf("1e-45")


def test_lambert_exact_every_digit_against_reference():
    # alpha = 1e5 makes x = exp(-alpha) about 2^-144270: the fixed-point sum
    # must scale its numerators from the first one, not from 1
    for precision in (DOUBLE, EXTENDED):
        for text in ("0.1", "0.01", "0.001", "1e5"):
            with mp.workdps(precision.dps):
                alpha = mp.mpf(text)  # the value the exact sum is given
                bits = mp.mp.prec
            for m in range(1, 7):
                for h in range(1, m + 1):
                    value = lambert_tau_exact(alpha, m, h, precision)
                    ref = references.lambert(alpha, m, h)
                    with mp.workdps(90):  # within one unit of the value's last bit
                        assert abs(value - ref) < mp.ldexp(1, mp.mag(value) - bits), (
                            precision.name, text, m, h)


def test_lambert_reference_routes_agree_at_their_switch():
    # The reference sums term by term above alpha m = 0.05 and expands below;
    # at the switch both routes converge, and each must hold 80 digits.
    direct, expanded = (references.lambert("0.0125", 4, 3, expand) for expand in (False, True))
    with mp.workdps(90):
        assert abs(direct - expanded) < mp.mpf("1e-80") * direct


def _lambert_mpf_loops(alpha, m, h, dps):
    """The two hyperbola loops in mpf arithmetic, as the package summed them
    before its fixed-point kernel; alpha as the package is given it."""
    work = dps + asymptotics.GUARD_DPS
    with mp.workdps(work):
        x = mp.exp(-alpha)
        one_x, one_xm = -mp.expm1(-alpha), -mp.expm1(-m * alpha)
        cut = mp.mpf(10) ** -work * one_x * one_xm
        xm, total = x**m, mp.mpf(0)
        xk, sq, sq_step, xkm, den, k = x, x, x**3, xm, one_xm, 1
        while True:
            total += sq * xk ** ((h - k) % m) / den
            sq *= sq_step
            if sq < cut * total:
                break
            sq_step *= x * x
            xk, k = xk * x, k + 1
            den, xkm = den + xkm * one_xm, xkm * xm
        xd, den = x**h, -mp.expm1(-h * alpha)
        tri, tri_step, tri_step2 = xd ** (h + 1), xm ** (2 * h + m + 1), xm ** (2 * m)
        while True:
            total += tri / den
            tri *= tri_step
            if tri < cut * total:
                break
            tri_step *= tri_step2
            den, xd = den + xd * one_xm, xd * xm
    with mp.workdps(dps):
        return +total


def test_lambert_exact_matches_the_mpf_loop():
    for dps in (16, 26, 50, 60):
        precision = DOUBLE._replace(dps=dps)
        for text in ("0.1", "0.01", "0.001", "3", "50"):
            with mp.workdps(dps):
                alpha = mp.mpf(text)
            for m in range(1, 7):
                for h in range(1, m + 1):
                    got = lambert_tau_exact(alpha, m, h, precision)
                    want = _lambert_mpf_loops(alpha, m, h, dps)
                    assert got._mpf_ == want._mpf_, (dps, text, m, h)


def test_lambert_exact_stops_when_its_cut_truncates_to_zero():
    # At alpha = 1e-6, m = 1 and 26 working digits the stop threshold
    # 10^-26 (1 - x)^2 is below one fixed-point unit, so the sum ends only
    # when a numerator truncates to 0.  A child process turns a stop test
    # that never fires into a timeout, not a hung suite.
    src = str(Path(asymptotics.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("from partsums.asymptotics import DOUBLE, lambert_tau_exact;"
            " print(lambert_tau_exact('1e-6', 1, 1, DOUBLE))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    with mp.workdps(DOUBLE.dps):
        alpha = mp.mpf("1e-6")
    value = lambert_tau_exact(alpha, 1, 1, DOUBLE)
    ref = references.lambert(alpha, 1, 1)
    with mp.workdps(90):
        assert abs(value - ref) < mp.mpf("1e-15") * ref


def test_lambert_exact_validation():
    with pytest.raises(ValueError):
        lambert_tau_exact(0, 1, 1)
    with pytest.raises(ValueError):
        lambert_tau_exact(-2, 1, 1)
    with pytest.raises(ValueError):
        lambert_tau_exact(1, 3, 4)
    # exp(-alpha) resolves, but the sum would need over a million terms
    with pytest.raises(ValueError, match="too small"):
        lambert_tau_exact("1e-10", 1, 1)
    # about 3,000 hyperbola terms
    with mp.workdps(EXTENDED.dps):
        alpha = mp.mpf("6e-5")
    value = lambert_tau_exact(alpha, 1, 1)
    with mp.workdps(90):
        ref = references.lambert(alpha, 1, 1)
        assert abs(value - ref) < mp.mpf("1e-45") * ref


def test_lambert_asymptotic_prediction_quality():
    for alpha, m, h in [("0.1", 1, 1), ("0.05", 3, 2), ("0.01", 6, 6)]:
        ours = lambert_tau_exact(alpha, m, h)
        series = lambert_tau_asymptotic(alpha, m, h)
        with mp.workdps(50):
            assert abs(ours - series.value) <= 2 * series.last_term_magnitude
        assert 0 < series.terms_used <= 8
        assert series.last_term_magnitude > 0


def test_lambert_asymptotic_warns_when_alpha_too_large():
    with pytest.warns(UserWarning, match="too large"):
        series = lambert_tau_asymptotic(40, 1, 1)
    assert series.terms_used <= 1


def test_lambert_asymptotic_zero_terms():
    # max_terms=0 asks for the main part only; no warning, but the error
    # proxy must report that nothing bounds the tail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = lambert_tau_asymptotic("0.1", 1, 1, max_terms=0)
    assert series.terms_used == 0
    assert series.last_term_magnitude == mp.inf


def test_hardy_ramanujan_leading_accuracy():
    p = exact.partition_counts(6400)
    deviations = []
    with mp.workdps(50):
        for n in (100, 400, 1600, 6400):
            ratio = hardy_ramanujan_leading(n) / p[n]
            deviations.append(abs(ratio - 1))
        assert deviations[0] < mp.mpf("0.05")
        assert deviations[-1] < mp.mpf("0.007")
    assert all(a > b for a, b in zip(deviations, deviations[1:]))


def test_ratio_prediction_envelope():
    # |p(n-k)/p(n) - exp(-Ck/(2 sqrt n))| against the k/n + k^2/n^1.5
    # envelope; quotient measured 0.94 at n = 2000, frozen bound 2.
    n = 2000
    p = exact.partition_counts(n)
    kmax = round(n ** (2 / 3))
    with mp.workdps(50):
        pn = mp.mpf(p[n])
        for k in range(1, kmax + 1):
            actual = mp.mpf(p[n - k]) / pn
            predicted = ratio_prediction(n, k)
            envelope = mp.mpf(k) / n + mp.mpf(k) ** 2 / mp.mpf(n) ** mp.mpf("1.5")
            assert abs(actual - predicted) <= 2 * envelope


def test_ratio_prediction_validation():
    with pytest.raises(ValueError):
        ratio_prediction(0, 0)
    with pytest.raises(ValueError):
        ratio_prediction(10, 11)


def test_s_sum_predictions_remainder_bounded():
    # Remainders are O(log n); measured |rem|/log n peaks at 0.227 for S and
    # 0.116 for the residue splits (m = 2), decreasing in n.  Frozen bounds
    # 0.35 and 0.20 keep ~1.6x headroom.
    for n in (1000, 4000, 16000):
        p = exact.partition_counts(n)
        for m in (2, 3, 6):
            tables = exact.divisor_tables(n, m, 1)
            total, split = exact.s_sums_exact(n, m, p=p, tables=tables)
            with mp.workdps(50):
                pn = mp.mpf(p[n])
                log_n = mp.log(n)
                assert abs(mp.mpf(total) / pn - sj_sum_prediction(n, 1, 1)) <= mp.mpf("0.35") * log_n
                for h in range(1, m + 1):
                    got = mp.mpf(split[h - 1]) / pn
                    want = sj_sum_prediction(n, m, h)
                    assert abs(got - want) <= mp.mpf("0.20") * log_n


# The table routes sum each constant as one dot product, rounded once.
# Against 90-digit references they must stay within 2^-(prec - 7) of the
# value (relative above 1), prec being the working precision in bits; the
# worst error measured over these moduli is 57 units of 2^-prec.
ACCURACY_MODULI = (*range(1, 41), 64, 97, 128)


def test_table_routes_within_seven_bits_of_90_digit_references():
    for m in ACCURACY_MODULI:
        gammas = [references.gamma(m, h) for h in range(1, m + 1)]
        cs = [references.c(m, i) for i in range(1, m + 1)]
        for precision in (DOUBLE, EXTENDED):
            with mp.workdps(precision.dps):
                unit = mp.ldexp(1, 7 - mp.mp.prec)
            for route, refs in ((gamma_mh_roots, gammas), (gamma_mh_gauss, gammas),
                                (c_coeff, cs), (c_coeff_via_gammas, cs)):
                for k, ref in enumerate(refs, 1):
                    got = route(m, k, precision)
                    with mp.workdps(90):
                        assert abs(got - ref) <= unit * max(1, abs(ref)), (
                            route.__name__, m, k, precision.name)


def _fdot_routes(m, dps):
    """Each table route's values at dps digits, as one mp.fdot over mpf tables
    built the way the package built them before its integer dot products."""
    with mp.workdps(dps):
        roots = tuple(mp.expjpi(mp.mpf(2 * t) / m) for t in range(m))
        neglogs = tuple(-mp.log(1 - w) for w in roots[1:])
        ratios = tuple(-g / (1 - w) for g, w in zip(neglogs, roots[1:]))
        cosines = [-2 * mp.cospi(mp.mpf(2 * t) / m) for t in range(m)]
        ks = range(1, (m + 1) // 2)
        weights = [mp.pi / 2, mp.log(2), *(mp.log(mp.sinpi(mp.mpf(k) / m)) for k in ks)]
        gauss = [mp.fdot([mp.cot(mp.pi * h / m), 1, *(cosines[h * k % m] for k in ks)],
                         weights) / m for h in range(1, m)] + [-mp.log(m) / m]
        glc = mp.pi * mp.sqrt(mp.mpf(2) / 3)
        shift = mp.euler + mp.log(2 / glc)
        out = {}
        for k in range(1, m + 1):
            total = mp.fdot([roots[-k * el % m] for el in range(1, m)], neglogs)
            out[gamma_mh_roots, k] = (total / m).real
            out[gamma_mh_gauss, k] = gauss[k - 1]
            total = mp.fdot([roots[-el * (k - 1) % m] for el in range(1, m)], ratios)
            first = shift * (m + 1 - 2 * k) / (glc * m)
            out[c_coeff, k] = (first + 2 * total / (glc * m)).real
            values = [shift] + [gauss[(k + j - 1) % m] for j in range(1, m)]
            out[c_coeff_via_gammas, k] = mp.fdot(
                [m + 1 - 2 * k, *range(-2, -2 * m, -2)], values) / (glc * m)
        return out


def test_residue_dot_products_match_fdot():
    # Exact integer products rounded once must be the value mp.fdot gave,
    # bit for bit; m = 1 and 2 take empty and one-term dot products.
    for m in (*range(1, 17), 40, 64, 97):
        for dps in (16, 26, 50, 60):
            precision = DOUBLE._replace(dps=dps)
            for (route, k), want in _fdot_routes(m, dps).items():
                got = route(m, k, precision)
                assert got._mpf_ == want._mpf_, (route.__name__, m, k, dps)


def test_root_sums_reject_an_imaginary_residue(monkeypatch):
    # Roots rotated by one no longer pair conjugate terms, so the imaginary
    # part of each roots-route dot product stays far above the tolerance.
    unit_roots = asymptotics._unit_roots

    def rotated(m, dps):
        e, (re, im), *tables = unit_roots(m, dps)
        return (e, (re[1:] + re[:1], im[1:] + im[:1]), *tables)

    monkeypatch.setattr(asymptotics, "_unit_roots", rotated)
    with pytest.raises(exact.ConsistencyError, match="imaginary residue"):
        gamma_mh_roots(5, 2)
    with pytest.raises(exact.ConsistencyError, match="imaginary residue"):
        c_coeff(5, 2)


def test_extended_tables_survive_a_double_precision_fill():
    # The per-modulus tables are keyed by (m, dps).  Filling them at DOUBLE
    # first must not hand 16-digit entries to a later EXTENDED call.
    asymptotics._unit_roots.cache_clear()
    asymptotics._gauss_gammas.cache_clear()
    asymptotics._growth_terms.cache_clear()
    moduli = (5, 11)
    for m in moduli:
        for h in range(1, m + 1):
            gamma_mh_roots(m, h, DOUBLE)
            gamma_mh_gauss(m, h, DOUBLE)
            c_coeff(m, h, DOUBLE)
    tol = mp.mpf("1e-45")
    for m in moduli:
        with mp.workdps(70):
            for h in range(1, m + 1):
                assert abs(gamma_mh_roots(m, h, EXTENDED) - references.gamma(m, h)) < tol
                assert abs(gamma_mh_gauss(m, h, EXTENDED) - references.gamma(m, h)) < tol
            for i in range(1, m + 1):
                c_ref = references.c(m, i)
                assert abs(c_coeff(m, i, EXTENDED) - c_ref) < tol
                assert abs(c_coeff_via_gammas(m, i, EXTENDED) - c_ref) < tol


def test_extended_lambert_asymptotic_reaches_full_precision():
    # The same truncated series, summed at 90 digits from the digamma
    # gamma_{m,h} and mpmath's Bernoulli numbers and polynomials.
    for text, m, h in [("0.01", 1, 1), ("0.05", 3, 2), ("0.002", 5, 4), ("0.03", 6, 6)]:
        with mp.workdps(EXTENDED.dps):
            alpha = mp.mpf(text)
        series = lambert_tau_asymptotic(alpha, m, h, precision=EXTENDED)
        assert series.terms_used > 0
        ref, _ = references.lambert_series(alpha, m, h, series.terms_used)
        with mp.workdps(70):
            assert abs(series.value - ref) < mp.mpf("1e-45") * abs(ref), (text, m, h)


def test_lambert_rejects_unresolvable_alpha():
    for alpha in ("nan", "inf", float("inf")):
        with pytest.raises(ValueError, match="finite"):
            lambert_tau_asymptotic(alpha, 2, 1)
    with pytest.raises(ValueError, match="finite"):
        lambert_tau_exact("inf", 2, 1)
    # past the term ceiling, or exp(-alpha) is 1 at the summing precision and
    # every term would divide by zero
    with pytest.raises(ValueError, match="too small"):
        lambert_tau_exact("1e-60", 2, 1)
    with pytest.raises(ValueError, match="rounds to 1"):
        lambert_tau_exact("1e-70", 2, 1)
    with pytest.raises(ValueError, match="too small"):
        lambert_tau_exact("1e-20", 1, 1, DOUBLE)
