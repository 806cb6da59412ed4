"""Convergence of the expected spaced subsum to its asymptotic form.

The mean of X_{m,i} over partitions of n is n/m plus corrections of order
sqrt(n) log n and sqrt(n).  This script computes the exact mean (as a
rational number, then floated) on a geometric ladder of n and watches the
centered residual

    r(n) = E[X] - n/m - b sqrt(n) log n - c sqrt(n)

shrink relative to sqrt(n).  Classes with m+1 = 2i have b = 0 exactly, so
their means hug n/m + c sqrt(n) with no log correction at all.
"""

import mpmath as mp

from partsums import exact, asymptotics

LADDER = (250, 1000, 4000)
CLASSES = ((2, 1), (2, 2), (3, 2))


def main():
    p = exact.partition_counts(LADDER[-1])
    with mp.workdps(50):
        for m, i in CLASSES:
            b = asymptotics.b_coeff(m, i)
            c = asymptotics.c_coeff(m, i)
            print(f"class (m={m}, i={i}):  b = {mp.nstr(b, 10)},  c = {mp.nstr(c, 10)}")
            print(f"{'n':>6} {'exact mean':>16} {'predicted':>16} {'r(n)/sqrt(n)':>14}")
            for n in LADDER:
                total = exact.total_subsum(n, m, i, p=p)
                mean = mp.mpf(total) / p[n]
                pred = asymptotics.predict_expected_subsum(n, m, i)
                scaled = (mean - pred) / mp.sqrt(n)
                print(
                    f"{n:>6} {mp.nstr(mean, 12):>16} {mp.nstr(pred, 12):>16}"
                    f" {mp.nstr(scaled, 4):>14}"
                )
            print()


if __name__ == "__main__":
    main()
