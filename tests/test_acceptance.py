"""Acceptance gate: nine end-to-end criteria, one test and one verdict line each.

Every test prints ``ACCEPTANCE <k>: PASS/FAIL`` (run pytest with -s or -rP to
see the lines) and enforces both the mathematical claim and its runtime
budget.  Tolerances are pinned here, not imported, so a library change that
moves a value past its tolerance fails loudly.  The two empirical thresholds
(RESIDUAL_K, the remainder bound for criterion 7) were calibrated once at
extended precision and are frozen; the measurements are noted inline.
"""

import time
from fractions import Fraction

import mpmath as mp

from partsums import exact, oracle, asymptotics
from partsums.bijection import forward, inverse

F_ROW_20 = [1, 2, 5, 10, 20, 36, 65, 109, 167, 170, 42, 0, 0, 0]
F_ROW_25 = [1, 2, 5, 10, 20, 36, 65, 110, 185, 297, 443, 512, 272, 0, 0, 0]

# Criterion 7: 2 x the largest measured |r(1000)|/log(1000) over the five
# (m, i) classes (0.072167, class (3,1)); remeasured value at n = 16000 is
# 0.0656, so the frozen bound keeps ~2.2x headroom.
RESIDUAL_K = 0.14434

LADDER = (1000, 4000, 16000)
CONV_CLASSES = ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3))


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> str:
    line = (
        f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail} "
        f"[{elapsed:.2f}s of {budget:.0f}s budget]"
    )
    print(line)
    return line


def test_criterion_1_reference_f_tables():
    budget = 1.0
    t0 = time.perf_counter()
    f20 = exact.f_table(20)
    f25 = exact.f_table(25)
    ok = (
        f20 == F_ROW_20 + [0] * (21 - len(F_ROW_20))
        and f25 == F_ROW_25 + [0] * (26 - len(F_ROW_25))
    )
    elapsed = time.perf_counter() - t0
    line = _report(1, ok, "f(20,.) and f(25,.) match the reference rows", elapsed, budget)
    assert ok, line
    assert elapsed < budget, line


def test_criterion_2_first_mismatch_position():
    budget = 10.0
    t0 = time.perf_counter()
    bad = [n for n in range(121) if exact.theorem1_check(n) != n // 3 + 1]
    ok = not bad
    elapsed = time.perf_counter() - t0
    line = _report(
        2, ok, f"first mismatch sits at floor(n/3)+1 for all n <= 120 (bad: {bad})",
        elapsed, budget,
    )
    assert ok, line
    assert elapsed < budget, line


def test_criterion_3_exact_identity_suite():
    budget = 60.0
    t0 = time.perf_counter()
    ok_euler = exact.euler_identity_check(2000)

    p = exact.partition_counts(500)
    ok_cover = True
    for m in range(1, 7):
        for n in range(501):
            total = sum(exact.total_subsum(n, m, i, p=p) for i in range(1, m + 1))
            if total != n * p[n]:
                ok_cover = False

    ok_recombine = True
    for m in range(1, 7):
        tables = exact.divisor_tables(200, m, 1)
        for n in range(1, 201):
            s, split = exact.s_sums_exact(n, m, p=p, tables=tables)
            for i in range(1, m + 1):
                direct = exact.total_subsum(n, m, i, p=p)
                if exact.total_subsum_from_s_sums(n, m, i, s, split, p[n]) != direct:
                    ok_recombine = False

    ok = ok_euler and ok_cover and ok_recombine
    elapsed = time.perf_counter() - t0
    line = _report(
        3, ok,
        f"weighted-count identity to 2000: {ok_euler}; residue cover to 500: "
        f"{ok_cover}; S-recombination to 200: {ok_recombine}",
        elapsed, budget,
    )
    assert ok, line
    assert elapsed < budget, line


def test_criterion_4_enumeration_equivalence():
    budget = 60.0
    t0 = time.perf_counter()
    pairs = [(m, i) for m in range(1, 6) for i in range(1, m + 1)]
    mismatches = []
    for n in range(36):
        brute = oracle.brute_distributions(n, pairs)
        for m, i in pairs:
            if exact.subsum_distribution(n, m, i).counts != brute[(m, i)]:
                mismatches.append((n, m, i))
    ok = not mismatches
    elapsed = time.perf_counter() - t0
    line = _report(
        4, ok,
        f"distributions match enumeration for n <= 35, m <= 5 (bad: {mismatches})",
        elapsed, budget,
    )
    assert ok, line
    assert elapsed < budget, line


def test_criterion_5_bijection_roundtrips():
    budget = 60.0
    t0 = time.perf_counter()
    ok_forward = True
    for n in range(31):
        for lam in oracle.partitions_of(n):
            image = forward(lam)
            if inverse(image.alpha, image.beta, n) != lam:
                ok_forward = False

    ok_inverse = True
    for n in range(25):
        for j in range(n // 3 + 1):
            for a in range(j + 1):
                for alpha in oracle.partitions_of(a):
                    for beta in oracle.partitions_of(j - a):
                        lam = inverse(alpha, beta, n)
                        image = forward(lam)
                        if (image.alpha, image.beta) != (alpha, beta):
                            ok_inverse = False

    ok = ok_forward and ok_inverse
    elapsed = time.perf_counter() - t0
    line = _report(
        5, ok,
        f"forward/inverse to n = 30: {ok_forward}; inverse/forward pairs "
        f"(j <= n/3) to n = 24: {ok_inverse}",
        elapsed, budget,
    )
    assert ok, line
    assert elapsed < budget, line


def test_criterion_6_constants_cross_routes():
    budget = 5.0
    tol_routes = mp.mpf("1e-10")
    tol_closed = mp.mpf("1e-12")
    t0 = time.perf_counter()
    with mp.workdps(50):
        ok_routes = True
        ok_sums = True
        ok_multiple = True
        for m in range(1, 25):
            sums = [mp.mpf(0)] * 3
            for h in range(1, m + 1):
                values = (
                    asymptotics.gamma_mh_roots(m, h),
                    asymptotics.gamma_mh_gauss(m, h),
                    asymptotics.gamma_mh_digamma(m, h),
                )
                for a in values:
                    for b in values:
                        if abs(a - b) > tol_routes:
                            ok_routes = False
                for idx in range(3):
                    sums[idx] += values[idx]
            if any(abs(s) > tol_routes for s in sums):
                ok_sums = False
            if abs(asymptotics.gamma_mh_roots(m, m) + mp.log(m) / m) > tol_closed:
                ok_multiple = False
        ok_b = abs(asymptotics.b_coeff(2, 1) - mp.sqrt(6) / (8 * mp.pi)) < tol_closed
        ok_c = abs(asymptotics.c_coeff(3, 2) + mp.sqrt(2) / 9) < tol_closed
        ok_c_sum = True
        for m in range(1, 25):
            if abs(sum(asymptotics.c_coeff(m, i) for i in range(1, m + 1))) > tol_routes:
                ok_c_sum = False
    ok = ok_routes and ok_sums and ok_multiple and ok_b and ok_c and ok_c_sum
    elapsed = time.perf_counter() - t0
    line = _report(
        6, ok,
        f"routes within 1e-10 to m = 24: {ok_routes}; zero sums: "
        f"{ok_sums and ok_c_sum}; closed forms at 1e-12: "
        f"{ok_multiple and ok_b and ok_c}",
        elapsed, budget,
    )
    assert ok, line
    assert elapsed < budget, line


def test_criterion_7_expectation_convergence():
    budget = 600.0
    t0 = time.perf_counter()
    p = exact.partition_counts(LADDER[-1])
    ok_trend = True
    ok_remainder = True
    with mp.workdps(50):
        log_top = mp.log(LADDER[-1])
        for m, i in CONV_CLASSES:
            b = asymptotics.b_coeff(m, i)
            c = asymptotics.c_coeff(m, i)
            scaled = []
            remainders = []
            for n in LADDER:
                total = exact.total_subsum(n, m, i, p=p)
                mean = mp.mpf(total) / p[n]
                rn = mp.sqrt(n)
                r = mean - mp.mpf(n) / m - b * rn * mp.log(n) - c * rn
                scaled.append(abs(r) / rn)
                remainders.append(r)
            if not all(x > y for x, y in zip(scaled, scaled[1:])):
                ok_trend = False
            if abs(remainders[-1]) / log_top > RESIDUAL_K:
                ok_remainder = False
        # class (3, 2) has b = 0: the sqrt(n) slope itself must be visible
        total = exact.total_subsum(LADDER[-1], 3, 2, p=p)
        slope = (mp.mpf(total) / p[LADDER[-1]] - mp.mpf(LADDER[-1]) / 3) / mp.sqrt(
            LADDER[-1]
        )
        target = -mp.sqrt(2) / 9
        ok_slope = abs(slope - target) <= mp.mpf("0.15") * abs(target)
    ok = ok_trend and ok_remainder and ok_slope
    elapsed = time.perf_counter() - t0
    line = _report(
        7, ok,
        f"residual/sqrt(n) decreasing: {ok_trend}; |r|/log n within "
        f"{RESIDUAL_K}: {ok_remainder}; (3,2) slope in 15% band: {ok_slope}",
        elapsed, budget,
    )
    assert ok, line
    assert elapsed < budget, line


def test_criterion_8_lambert_grid():
    budget = 30.0
    t0 = time.perf_counter()
    ok_rational = asymptotics.tail_coefficient(0, 1, 1) == Fraction(1, 4)
    failures = []
    for alpha in ("0.1", "0.05", "0.01"):
        for m in range(1, 7):
            for h in range(1, m + 1):
                value = asymptotics.lambert_tau_exact(alpha, m, h)
                series = asymptotics.lambert_tau_asymptotic(alpha, m, h)
                with mp.workdps(50):
                    if abs(value - series.value) > 2 * series.last_term_magnitude:
                        failures.append((alpha, m, h))
    ok = ok_rational and not failures
    elapsed = time.perf_counter() - t0
    line = _report(
        8, ok,
        f"constant tail term is 1/4: {ok_rational}; grid within 2x last "
        f"term (bad: {failures})",
        elapsed, budget,
    )
    assert ok, line
    assert elapsed < budget, line


def test_criterion_9_ratio_envelope():
    budget = 120.0
    bound = mp.mpf(5)
    t0 = time.perf_counter()
    n = 10**4
    p = exact.partition_counts(n)
    kmax = round(n ** (2 / 3))
    worst = mp.mpf(0)
    with mp.workdps(50):
        pn = mp.mpf(p[n])
        for k in range(1, kmax + 1):
            actual = mp.mpf(p[n - k]) / pn
            predicted = asymptotics.ratio_prediction(n, k)
            envelope = mp.mpf(k) / n + mp.mpf(k) ** 2 / mp.mpf(n) ** mp.mpf("1.5")
            worst = max(worst, abs(actual - predicted) / envelope)
    ok = worst <= bound
    elapsed = time.perf_counter() - t0
    line = _report(
        9, ok,
        f"worst envelope quotient {mp.nstr(worst, 4)} <= {int(bound)} "
        f"at n = 10^4, k <= {kmax}",
        elapsed, budget,
    )
    assert ok, line
    assert elapsed < budget, line
