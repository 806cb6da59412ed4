"""Checks of every job output, by routes independent of the timed one.

The driver calls `Verifier.check` after a run's timed passes, so nothing
here can warm a cache a timed call uses (job processes are separate
interpreters anyway).  Each check returns ("ok", None), ("fail", reason),
or ("known", reason) for a failure that matches a documented defect; see
`check_lambert`.

Independent routes used:
- CLI means: the S-recombination (`s_sums_exact` + `total_subsum_from_s_sums`)
  over this process's own p-table, against the timed floor-kernel route.
- Distributions: total mass p(n), first moment from the divisor route
  (`total_subsum`), and `oracle.brute_distribution` for n <= 35.
- Constants: 80-digit references built here from mpmath's own digamma,
  Euler constant and Bernoulli numbers.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import mpmath as mp

from partsums import asymptotics, exact, oracle

REF_DPS = 80
ORACLE_MAX_N = 35
EXACT_STOP = mp.mpf("1e-30")  # lambert_tau_exact's documented relative stop


def mpf_in(parts) -> mp.mpf:
    """Rebuild a child's mpf exactly (the constructor rounds to working precision)."""
    with mp.workdps(REF_DPS + 10):
        return mp.mpf(tuple(parts))


def digits(x: mp.mpf, ref: mp.mpf) -> float:
    """Correct decimal digits of x against ref: relative above 1, absolute below."""
    with mp.workdps(REF_DPS + 10):
        err = abs(x - ref) / max(abs(ref), 1)
        if err == 0:
            return float(REF_DPS)
        return min(float(REF_DPS), float(-mp.log10(err)))


def _agree_tol(precision) -> mp.mpf:
    """Two routes evaluated at dps working digits agree to 10^(5 - dps)."""
    return mp.mpf(10) ** (5 - precision.dps)


class References:
    """80-digit reference values, computed once per input."""

    def __init__(self) -> None:
        self._cache: dict = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            with mp.workdps(REF_DPS + 10):
                self._cache[key] = fn()
        return self._cache[key]

    @staticmethod
    def growth() -> mp.mpf:
        return mp.pi * mp.sqrt(mp.mpf(2) / 3)

    def gamma(self, m: int, h: int) -> mp.mpf:
        """gamma_{m,h} = -(euler + log m + digamma(h/m)) / m."""
        return self._memo(
            ("gamma", m, h),
            lambda: -(mp.euler + mp.log(m) + mp.digamma(mp.mpf(h) / m)) / m,
        )

    def b(self, m: int, i: int) -> mp.mpf:
        return self._memo(
            ("b", m, i), lambda: (m + 1 - 2 * i) / (2 * self.growth() * m)
        )

    def c(self, m: int, i: int) -> mp.mpf:
        def compute():
            glc = self.growth()
            acc = (mp.euler + mp.log(2 / glc)) * (m + 1 - 2 * i) / (glc * m)
            for j in range(1, m):
                acc -= 2 * mp.mpf(j) / m * self.gamma(m, (i + j) % m or m) / glc
            return acc

        return self._memo(("c", m, i), compute)

    def lambert(self, alpha: str, m: int, h: int) -> mp.mpf:
        """sum over d = h mod m of q^d / (1 - q^d), q = exp(-alpha).

        Summed directly when alpha*m > 0.05.  Below that, the Mellin
        expansion (poles of Gamma(s) zeta(s) zeta(s, h/m) (alpha m)^-s) is
        summed instead; its remainder is of order exp(-4 pi^2 / (alpha m)),
        below 1e-340 there.
        """

        def compute():
            a = mp.mpf(alpha)
            eps = mp.mpf(10) ** -(REF_DPS + 5)
            if a * m > mp.mpf("0.05"):
                x = mp.exp(-a)
                q, step, total = x**h, x**m, mp.mpf(0)
                while True:
                    term = q / (1 - q)
                    total += term
                    if term < eps * total:
                        return total
                    q *= step
            am, frac = a * m, mp.mpf(h) / m
            total = (mp.log(1 / a) / m + mp.euler / m + self.gamma(m, h)) / a
            power = mp.mpf(1)
            for k in range(0, 4 * REF_DPS):
                bk = mp.bernoulli(k + 1)
                if bk != 0:
                    term = -bk * mp.bernpoly(k + 1, frac) * power / (
                        mp.factorial(k + 1) * (k + 1)
                    )
                    total += term
                    if k > 2 and abs(term) < eps * abs(total):
                        return total
                power *= am
            raise RuntimeError(f"Lambert reference did not converge at alpha={alpha}")

        return self._memo(("lambert", alpha, m, h), compute)


def _printed_agrees(text: str, value: Fraction) -> bool:
    """True when value lies within one unit of the last printed digit."""
    dec = Decimal(text)
    return abs(Fraction(dec) - value) < Fraction(10) ** dec.as_tuple().exponent


def _parse_table(stdout: str) -> tuple[str, list[list[str]]]:
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    return lines[0], [ln.split() for ln in lines[2:]]


def _ladder(n_max: int) -> list[int]:
    out = []
    n = n_max
    while n >= 100:
        out.append(n)
        n //= 4
    return sorted(out)


def _argv_value(argv: list[str], flag: str) -> list[str]:
    return [argv[k + 1] for k, a in enumerate(argv) if a == flag]


def _largest_n(job: dict) -> int:
    if job["kind"] == "cli":
        argv = job["argv"]
        return max(int(v) for v in _argv_value(argv, "--n") + _argv_value(argv, "--n-max"))
    return job.get("n", 1)


class Verifier:
    """Holds the p-table, sieves and references shared by a run's checks."""

    def __init__(self, jobs: list[dict]) -> None:
        self.refs = References()
        self.digits_min: float | None = None
        self._top = max(_largest_n(job) for job in jobs)
        self._p: list[int] = []
        self._sieves: dict[int, exact.DivisorSumTables] = {}
        self._means: dict = {}

    def p_table(self, n: int) -> list[int]:
        if len(self._p) <= n:
            self._p = exact.partition_counts(max(n, self._top))
        return self._p

    def s_route_mean(self, n: int, m: int, i: int) -> Fraction:
        key = (n, m, i)
        if key not in self._means:
            p = self.p_table(n)
            if m not in self._sieves:
                self._sieves[m] = exact.divisor_tables(self._top, m, 1)
            s, split = exact.s_sums_exact(n, m, p=p, tables=self._sieves[m])
            total = exact.total_subsum_from_s_sums(n, m, i, s, split, p[n])
            self._means[key] = Fraction(total, p[n])
        return self._means[key]

    # -- dispatch -----------------------------------------------------------

    def check(self, job: dict, result: dict) -> tuple[str, str | None]:
        if "error" in result:
            return "fail", result["error"]
        try:
            return getattr(self, f"check_{job['kind']}")(job, result["output"])
        except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
            return "fail", f"unreadable output: {type(exc).__name__}: {exc}"

    # -- CLI ----------------------------------------------------------------

    def check_cli(self, job, out):
        argv = job["argv"]
        if out["rc"] != 0:
            return "fail", f"exit {out['rc']}: {out['stderr'].strip()[:200]}"
        m = int(_argv_value(argv, "--m")[0])
        i = int(_argv_value(argv, "--i")[0])
        header, rows = _parse_table(out["stdout"])
        if argv[0] == "convergence":
            if "improving=True" not in header:
                return "fail", f"ladder not improving: {header}"
            want = _ladder(int(_argv_value(argv, "--n-max")[0]))
            if [int(r[0]) for r in rows] != want:
                return "fail", f"ladder rows {[r[0] for r in rows]} != {want}"
            for r in rows:
                n = int(r[0])
                if not _printed_agrees(r[1], self.s_route_mean(n, m, i)):
                    return "fail", f"mean at n={n} printed {r[1]} disagrees with S route"
            return "ok", None
        want = sorted({int(v) for v in _argv_value(argv, "--n")})
        if [int(r[0]) for r in rows] != want:
            return "fail", f"expectation rows {[r[0] for r in rows]} != {want}"
        for r in rows:
            n = int(r[0])
            mean = self.s_route_mean(n, m, i)
            if Fraction(r[1]) != mean:
                return "fail", f"exact mean at n={n} disagrees with S route"
            if not _printed_agrees(r[2], mean):
                return "fail", f"mean at n={n} printed {r[2]} disagrees with S route"
        return "ok", None

    # -- tables -------------------------------------------------------------

    def check_dist(self, job, counts):
        n, m, i = job["n"], job["m"], job["i"]
        p = self.p_table(n)
        if len(counts) != n + 1:
            return "fail", f"distribution has {len(counts)} cells, want {n + 1}"
        if sum(counts) != p[n]:
            return "fail", f"distribution mass {sum(counts)} != p({n})"
        first = sum(k * c for k, c in enumerate(counts))
        if first != exact.total_subsum(n, m, i, p=p):
            return "fail", "first moment disagrees with the divisor route"
        if n <= ORACLE_MAX_N and counts != oracle.brute_distribution(n, m, i):
            return "fail", "counts disagree with brute-force enumeration"
        return "ok", None

    def check_theorem1(self, job, first):
        n = job["n"]
        if first != n // 3 + 1:
            return "fail", f"theorem1_check({n}) = {first}, want {n // 3 + 1}"
        return "ok", None

    def check_f_table(self, job, f):
        n = job["n"]
        p = self.p_table(n)
        if len(f) != n + 1 or sum(f) != p[n]:
            return "fail", f"f-table of {n} does not sum to p({n})"
        if sum(j * c for j, c in enumerate(f)) != exact.total_subsum(n, 2, 2, p=p):
            return "fail", "f-table first moment disagrees with the divisor route"
        return "ok", None

    def check_bijection(self, job, pairs):
        inputs = job["partitions"]
        if len(inputs) != self.p_table(job["n"])[job["n"]] or len(pairs) != len(inputs):
            return "fail", "bijection job did not cover every partition"
        for parts, (j, back) in zip(inputs, pairs):
            if back != parts:
                return "fail", f"round trip of {parts} returned {back}"
            if j != sum(parts[1::2]):
                return "fail", f"forward({parts}).j = {j}, want {sum(parts[1::2])}"
        return "ok", None

    # -- constants ----------------------------------------------------------

    def _note_digits(self, precision, values) -> None:
        if precision.name != "extended":
            return
        for x, ref in values:
            d = digits(x, ref)
            if self.digits_min is None or d < self.digits_min:
                self.digits_min = d

    @staticmethod
    def _close(x, ref, tol) -> bool:
        with mp.workdps(REF_DPS + 10):
            return abs(x - ref) <= tol * max(1, abs(ref))

    def check_gamma(self, job, rows):
        m = job["m"]
        prec = asymptotics.precision_named(job["precision"])
        agree = _agree_tol(prec)
        if len(rows) != m:
            return "fail", f"{len(rows)} gamma rows, want {m}"
        for h, row in enumerate(rows, 1):
            values = [mpf_in(v) for v in row]
            ref = self.refs.gamma(m, h)
            self._note_digits(prec, [(v, ref) for v in values])
            for route, v in zip(("roots", "gauss", "digamma"), values):
                if not self._close(v, ref, prec.cross_tol):
                    return "fail", f"gamma_({m},{h}) {route} off the reference"
            for a, b in ((0, 1), (0, 2), (1, 2)):
                if not self._close(values[a], values[b], agree):
                    return "fail", f"gamma_({m},{h}) routes disagree beyond {mp.nstr(agree, 3)}"
        return "ok", None

    def check_coeff(self, job, rows):
        m = job["m"]
        prec = asymptotics.precision_named(job["precision"])
        if len(rows) != m:
            return "fail", f"{len(rows)} coefficient rows, want {m}"
        for i, row in enumerate(rows, 1):
            c, c_via, b = (mpf_in(v) for v in row)
            c_ref, b_ref = self.refs.c(m, i), self.refs.b(m, i)
            self._note_digits(prec, [(c, c_ref), (c_via, c_ref), (b, b_ref)])
            for name, v, ref in (("c", c, c_ref), ("c_via_gammas", c_via, c_ref), ("b", b, b_ref)):
                if not self._close(v, ref, prec.cross_tol):
                    return "fail", f"{name}_({m},{i}) off the reference"
            if not self._close(c, c_via, _agree_tol(prec)):
                return "fail", f"c_({m},{i}) routes disagree beyond {mp.nstr(_agree_tol(prec), 3)}"
        return "ok", None

    def check_lambert(self, job, out):
        """Reference check plus the package's own 2x-last-term check.

        Known defect: lambert_tau_exact stops once a term drops below 1e-30
        of the running total (as its docstring says), leaving a tail of
        about 1/(alpha m) times that term.  At alpha near 0.001 the tail
        exceeds twice the asymptotic series' last term.  A 2x failure counts
        as this known defect only when the exact sum falls short of the
        reference by more than twice the last term but by no more than that
        stopping rule allows: terms shrink at least by q^m (q = exp(-alpha))
        from one to the next, so the tail after the last term added is at
        most 1e-30 * total * q^m / (1 - q^m).
        """
        alpha, m, h = job["alpha"], job["m"], job["h"]
        prec = asymptotics.precision_named(job["precision"])
        ref = self.refs.lambert(alpha, m, h)
        value, series, last = (mpf_in(out[k]) for k in ("exact", "asymptotic", "last_term"))
        if not self._close(value, ref, prec.cross_tol):
            return "fail", f"lambert_tau_exact({alpha},{m},{h}) off the reference"
        with mp.workdps(REF_DPS + 10):
            if abs(value - series) <= 2 * last:
                return "ok", None
            gap, asym_err, short = abs(value - series), abs(series - ref), ref - value
            qm = mp.exp(-mp.mpf(alpha) * m)
            tail_bound = EXACT_STOP * value * qm / (1 - qm) * (1 + mp.mpf(10) ** -6)
            if 2 * last < short <= tail_bound:
                reason = (
                    f"lambert_tau_exact (relative stop 1e-30) falls short of the reference "
                    f"by {mp.nstr(short, 2)}, more than 2x last term {mp.nstr(2 * last, 2)}"
                )
                if asym_err > 2 * last:
                    reason += f"; asymptotic value also off by {mp.nstr(asym_err, 2)}"
                return "known", reason
            return "fail", (
                f"|exact - asymptotic| = {mp.nstr(gap, 3)} > 2x last term "
                f"{mp.nstr(2 * last, 3)}; asymptotic off the reference by {mp.nstr(asym_err, 3)}"
            )
