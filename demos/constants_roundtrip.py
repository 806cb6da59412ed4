"""The generalized Euler constants computed three independent ways.

gamma_{m,h} is the constant term in the asymptotics of sum 1/d over
divisors d = h (mod m).  It has a roots-of-unity form, a closed real form
with cotangent and log-sine terms, and a digamma form.  All three must
agree to working precision, their sum over h must vanish for every m, and
gamma_{m,m} collapses to -log(m)/m.  Printing all of this side by side is
a quick health check on the special-function layer.  Values below
10^(5 - dps) are rounding noise around a true zero and print as 0.
"""

import mpmath as mp

from partsums import asymptotics


def chopped(x):
    """x, or exactly 0 when |x| < 10^(5 - dps) (noise around a true zero)."""
    return mp.chop(x, mp.mpf(10) ** (5 - mp.mp.dps))


def main():
    with mp.workdps(50):
        for m in (2, 3, 4, 6):
            print(f"m = {m}")
            print(f"{'h':>3} {'roots of unity':>22} {'gauss':>22} {'digamma':>22}")
            total = mp.mpf(0)
            for h in range(1, m + 1):
                r = asymptotics.gamma_mh_roots(m, h)
                g = asymptotics.gamma_mh_gauss(m, h)
                d = asymptotics.gamma_mh_digamma(m, h)
                total += r
                r, g, d = chopped(r), chopped(g), chopped(d)
                print(
                    f"{h:>3} {mp.nstr(r, 16):>22} {mp.nstr(g, 16):>22}"
                    f" {mp.nstr(d, 16):>22}"
                )
            check = asymptotics.gamma_mh_roots(m, m) + mp.log(m) / m
            print(f"    sum over h: {mp.nstr(chopped(total), 3)}")
            print(f"    gamma_mm + log(m)/m: {mp.nstr(chopped(check), 3)}")
            print()

        print("expectation coefficients for m = 3 (middle class has b = 0):")
        print(f"{'i':>3} {'b':>22} {'c':>22}")
        for i in (1, 2, 3):
            b = asymptotics.b_coeff(3, i)
            c = asymptotics.c_coeff(3, i)
            print(f"{i:>3} {mp.nstr(b, 16):>22} {mp.nstr(c, 16):>22}")


if __name__ == "__main__":
    main()
