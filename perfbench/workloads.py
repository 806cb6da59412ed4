"""Seeded job lists for the benchmark workloads.

`generate(workload, seed)` returns the jobs of one pass; a run repeats the
same pass until its time is up.  The same seed always gives the same jobs.

Where job sizes are drawn (the tables and constants parts of the library
workload), each part's draw is repeated
until its modeled cost lies within `BALANCE` of that part's mean cost,
so every seed asks for about the same amount of work and the seed changes
which inputs are run, not how long a pass takes.  The cost tables below
are medians of four fresh-process rounds of calibrate.py on a 2-core x86
VM (CPython 3.11, mpmath 1.3 pure-Python backend); only their ratios
matter.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("ladder-cached", "library")

BALANCE = 0.02

# gamma (all three routes, every h) plus c, c_via_gammas and b (every i) for
# one modulus m = 8..40, in milliseconds, at EXTENDED and at DOUBLE.
_MODULUS_MS = {
    "extended": [40, 69, 78, 117, 122, 173, 190, 248, 206, 310, 355, 420, 433, 552,
                 633, 756, 742, 948, 910, 1042, 978, 1336, 1354, 1575, 1241, 1594,
                 1674, 1911, 1786, 2242, 2272, 2736, 2865],
    "double": [27, 47, 53, 80, 85, 131, 112, 162, 152, 244, 279, 326, 338, 409, 482,
               536, 564, 651, 659, 707, 743, 836, 842, 1013, 903, 1378, 1514, 1456,
               1567, 1661, 1916, 1751, 2027],
}
# subsum_distribution(200, m, i) in milliseconds; cost grows about as n^3.2
# (bigger counts cost more per addition).
_DIST_MS = {
    (1, 1): 83, (2, 1): 124, (2, 2): 130, (3, 1): 137, (3, 2): 136, (3, 3): 102,
    (4, 1): 136, (4, 2): 120, (4, 3): 112, (4, 4): 103, (5, 1): 149, (5, 2): 128,
    (5, 3): 109, (5, 4): 95, (5, 5): 94, (6, 1): 147, (6, 2): 120, (6, 3): 104,
    (6, 4): 101, (6, 5): 102, (6, 6): 96,
}
# lambert_tau_exact + lambert_tau_asymptotic: seconds * alpha * m.
_LAMBERT_S = 1.107e-3
# forward + inverse of one partition of n = 28, in seconds.
_BIJECTION_S = 3.65e-5


def modulus_cost(m: int, precision: str) -> float:
    return _MODULUS_MS[precision][m - 8] / 1000


def dist_cost(n: int, m: int, i: int) -> float:
    return _DIST_MS[(m, i)] / 1000 * (n / 200) ** 3.2


def lambert_cost(alpha: str, m: int) -> float:
    """lambert_tau_exact sums about 1/(alpha m) terms; the series is cheap."""
    return _LAMBERT_S / (float(alpha) * m)


def partition_count(n: int) -> int:
    """p(n) by the textbook coin-change recurrence (for cost estimates)."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            counts[total] += counts[total - part]
    return counts[n]


def partitions(n: int) -> list[list[int]]:
    """All partitions of n, weakly decreasing, largest first part first."""
    out: list[list[int]] = []
    prefix: list[int] = []

    def rec(rest: int, cap: int) -> None:
        if rest == 0:
            out.append(list(prefix))
            return
        for k in range(min(rest, cap), 0, -1):
            prefix.append(k)
            rec(rest - k, k)
            prefix.pop()

    rec(n, n)
    return out


def _balanced(rng: random.Random, draw, cost) -> list[dict]:
    """Redraw until the modeled cost is within BALANCE of the mean cost.

    The mean is estimated from draws of a fixed generator, so it is the
    same for every seed.
    """
    ref = random.Random("balance-reference")
    mean = sum(cost(draw(ref)) for _ in range(400)) / 400
    while True:
        jobs = draw(rng)
        if abs(cost(jobs) - mean) <= BALANCE * mean:
            return jobs


def _class(rng: random.Random, m_lo: int, m_hi: int) -> tuple[int, int]:
    m = rng.randint(m_lo, m_hi)
    return m, rng.randint(1, m)


def _two_classes(rng: random.Random, m_lo: int, m_hi: int) -> list[tuple[int, int]]:
    a = b = _class(rng, m_lo, m_hi)
    while b == a:
        b = _class(rng, m_lo, m_hi)
    return [a, b]


def _cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def ladder_cached(rng: random.Random, smoke: bool) -> list[dict]:
    """Ten CLI jobs over two classes (m in 2..4) through one cache dir.

    The order is fixed so that each pass computes and saves three p-tables
    and four divisor tables and loads thirteen: sizes 8000, 16000 and 32000
    appear, and the 16000 table is requested after the 32000 one exists.
    Most jobs are cache hits of similar size, so the median job is one.
    m = 1 is left out because its mean is exactly n, so its convergence
    ladder has zero residuals and cannot improve.
    """
    big, mid, small = (2000, 1000, 500) if smoke else (32000, 16000, 8000)
    a, b = _two_classes(rng, 2, 4)

    def expectation(cls, top):
        low = sorted({rng.randint(top // 16, top // 2), rng.randint(top // 64, top // 16)})
        args = ["expectation", "--m", cls[0], "--i", cls[1]]
        for n in low + [top]:
            args += ["--n", n]
        return _cli(*args)

    def convergence(cls, top):
        return _cli("convergence", "--m", cls[0], "--i", cls[1], "--n-max", top)

    jobs = [
        convergence(a, big),
        expectation(a, mid),
        expectation(b, small),
        convergence(a, big),
        convergence(b, big),
        expectation(a, mid),
        convergence(b, big),
        expectation(b, small),
        convergence(a, big),
        expectation(a, mid),
    ]
    for job in jobs:
        job["cache"] = True
    return jobs


# Distribution sizes: an even grid over 100..250; each seed adds 0..3.
DIST_GRID = (100, 114, 127, 141, 155, 168, 182, 195, 209, 223, 236, 250)


def tables(rng: random.Random, smoke: bool) -> list[dict]:
    """Library calls: distributions, theorem-1 scans, f-tables, one bijection."""

    def draw(r: random.Random) -> list[dict]:
        jobs = []
        for base in (36, 48) if smoke else DIST_GRID:
            m, i = _class(r, 1, 6)
            jobs.append({"kind": "dist", "n": base + r.randint(0, 3), "m": m, "i": i})
        for _ in range(2):  # small enough for the brute-force oracle
            m, i = _class(r, 1, 6)
            jobs.append({"kind": "dist", "n": r.randint(20, 35), "m": m, "i": i})
        for _ in range(1 if smoke else 6):
            jobs.append({"kind": "theorem1", "n": r.randint(3, 60 if smoke else 200)})
        for _ in range(1 if smoke else 3):
            jobs.append({"kind": "f_table", "n": r.randint(0, 80 if smoke else 400)})
        jobs.append({"kind": "bijection", "n": r.randint(8, 12) if smoke else r.randint(28, 30)})
        return jobs

    def cost(jobs: list[dict]) -> float:
        total = 0.0
        for job in jobs:
            if job["kind"] == "dist":
                total += dist_cost(job["n"], job["m"], job["i"])
            elif job["kind"] == "bijection":
                total += _BIJECTION_S * partition_count(job["n"])
        return total

    jobs = draw(rng) if smoke else _balanced(rng, draw, cost)
    for job in jobs:
        if job["kind"] == "bijection":
            job["partitions"] = partitions(job["n"])
    return jobs


def _alpha(r: random.Random, lo: float, hi: float) -> str:
    """Log-uniform alpha in [lo, hi], as a 4-significant-digit string."""
    return f"{math.exp(r.uniform(math.log(lo), math.log(hi))):.4g}"


def constants(rng: random.Random, smoke: bool) -> list[dict]:
    """Residue constants for three moduli and seven Lambert pairs.

    Two moduli run at EXTENDED and one at DOUBLE; the Lambert pairs run at
    EXTENDED with alpha log-uniform in [0.001, 0.1].
    """

    def draw(r: random.Random) -> list[dict]:
        jobs = []
        for precision in ("extended", "extended", "double"):
            m = r.randint(3, 6) if smoke else r.randint(8, 40)
            jobs.append({"kind": "gamma", "m": m, "precision": precision})
            jobs.append({"kind": "coeff", "m": m, "precision": precision})
        for _ in range(2 if smoke else 7):
            m, h = _class(r, 1, 6)
            alpha = _alpha(r, 0.01, 0.1) if smoke else _alpha(r, 0.001, 0.1)
            jobs.append({"kind": "lambert", "alpha": alpha, "m": m, "h": h,
                         "precision": "extended"})
        return jobs

    def cost(jobs: list[dict]) -> float:
        total = 0.0
        for job in jobs:
            if job["kind"] == "coeff":
                total += modulus_cost(job["m"], job["precision"])
            elif job["kind"] == "lambert":
                total += lambert_cost(job["alpha"], job["m"])
        return total

    return draw(rng) if smoke else _balanced(rng, draw, cost)


def library(rng: random.Random, smoke: bool) -> list[dict]:
    """The `tables` calls, then the `constants` calls, in one process."""
    return tables(rng, smoke) + constants(rng, smoke)


GENERATORS = {
    "ladder-cached": ladder_cached,
    "library": library,
}

# Ladder jobs each run in their own interpreter; the library workload makes
# all of a pass's calls in one fresh interpreter.
ONE_PROCESS_PER_JOB = {"ladder-cached"}


def generate(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, smoke)
