"""Exact and asymptotic computation of spaced subsums of integer partitions.

For a partition written in weakly decreasing order, the (m, i) spaced
subsum adds up the parts at positions i, i + m, i + 2m, ...  The package
computes its full distribution and moments exactly in bigint arithmetic,
the matching second-order asymptotics (with all constants evaluated by
several independent routes), and the combinatorics tying the two together.
"""

from . import asymptotics, bijection, exact

__version__ = "0.1.0"
