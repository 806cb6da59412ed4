"""Walking a partition through the pair bijection by hand.

Partitions of n with even-position subsum j correspond to pairs of
partitions (alpha, beta) with |alpha| + |beta| = j, provided j is small
enough relative to n (at most n/3 the map is a bijection; beyond that the
pair side overcounts).  The forward direction reads alpha and beta off the
multiplicity profile of the partition; the inverse rebuilds the parts from
one step count, in which each part of alpha or beta marks the last part of
the partition it reaches.
"""

from partsums import exact
from partsums.bijection import forward, inverse
from partsums.oracle import partitions_of, x_statistic


def main():
    lam = (5, 4, 2, 2, 1)
    image = forward(lam)
    print(f"lambda = {lam}, n = {image.n}")
    print(f"even-position parts: {lam[1::2]}  (subsum j = {image.j})")
    print(f"forward image: alpha = {image.alpha}, beta = {image.beta}")
    back = inverse(image.alpha, image.beta, image.n)
    print(f"inverse rebuilds: {back}")
    print()

    # count pairs two ways for a small n: through the bijection and
    # directly from the f-table row
    n = 12
    row = exact.f_table(n)
    print(f"n = {n}: partitions grouped by even-position subsum")
    print(f"{'j':>3} {'f(n,j)':>7} {'via bijection':>14} {'pairs':>7}")
    for j in range(n // 3 + 1):
        images = set()
        for lam in partitions_of(n):
            if x_statistic(lam, 2, 2) == j:
                img = forward(lam)
                images.add((img.alpha, img.beta))
        pairs = sum(
            exact.partition_counts(j)[a] * exact.partition_counts(j)[j - a]
            for a in range(j + 1)
        )
        print(f"{j:>3} {row[j]:>7} {len(images):>14} {pairs:>7}")
    print()
    print("inside j <= n/3 all three counts agree; the bijection is injective")
    print("and onto the full pair set there")


if __name__ == "__main__":
    main()
