"""Re-measure the cost tables that workloads.py balances job lists with.

    python3 perfbench/calibrate.py

Run from the root of a partsums checkout, on an otherwise idle machine.
Each job runs once per round in a fresh job process; the median of
ROUNDS rounds is printed in milliseconds, in the layout of the tables in
workloads.py, followed by the Lambert and bijection cost coefficients.  Changing the tables changes every seed's job list, so it
is a change to the benchmark, not to the program.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from run import spawn  # noqa: E402

ROUNDS = 4
MODULI = range(8, 41)
DIST_N = 200
BIJECTION_N = 28


def timed(jobs: list[dict]) -> list[float]:
    """Median seconds per job over ROUNDS rounds.

    Every round runs each job once in its own fresh process, in list
    order, so a slow spell of the machine hits one round of many jobs
    rather than every round of one job.
    """
    rounds = [
        [spawn([job], False)["results"][0]["seconds"] for job in jobs]
        for _ in range(ROUNDS)
    ]
    return [statistics.median(col) for col in zip(*rounds)]


def main() -> None:
    moduli = [
        {"kind": kind, "m": m, "precision": precision}
        for precision in ("extended", "double")
        for m in MODULI
        for kind in ("gamma", "coeff")
    ]
    times = iter(timed(moduli))
    for precision in ("extended", "double"):
        ms = [round(1000 * (next(times) + next(times))) for _ in MODULI]
        print(f'"{precision}": {ms},')
    classes = [(m, i) for m in range(1, 7) for i in range(1, m + 1)]
    dist = timed([{"kind": "dist", "n": DIST_N, "m": m, "i": i} for m, i in classes])
    print({c: round(1000 * t) for c, t in zip(classes, dist)})
    grid = [(alpha, m) for alpha in ("0.001", "0.003", "0.01") for m in (1, 3, 6)]
    lambert = timed([{"kind": "lambert", "alpha": a, "m": m, "h": 1, "precision": "extended"}
                     for a, m in grid])
    print("lambert seconds * alpha * m:",
          round(statistics.median(t * float(a) * m for (a, m), t in zip(grid, lambert)), 6))
    parts = workloads.partitions(BIJECTION_N)
    (bij,) = timed([{"kind": "bijection", "n": BIJECTION_N, "partitions": parts}])
    print("bijection seconds per partition:", round(bij / len(parts), 8))


if __name__ == "__main__":
    main()
