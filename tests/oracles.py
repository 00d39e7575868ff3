"""Independent oracles the package must reproduce.

Kept outside the package on purpose: these know nothing about its
internals and work by a different principle (hook lengths, brute-force
filtering).
"""

import itertools
import math


def rectangle_syt_count(m: int, p: int) -> int:
    """Standard Young tableaux of the m x p rectangle via hook lengths."""
    hooks = 1
    for r in range(m):
        for c in range(p):
            hooks *= (p - c) + (m - r) - 1
    count, rem = divmod(math.factorial(m * p), hooks)
    assert rem == 0
    return count


def windowed_lower_set(top: tuple[int, ...], n: int) -> set[tuple[int, ...]]:
    """Strictly increasing positive tuples componentwise <= top that span
    less than one period n, by filtering every candidate tuple."""
    return {
        t
        for t in itertools.combinations(range(1, top[-1] + 1), len(top))
        if t[-1] - t[0] < n and all(a <= b for a, b in zip(t, top))
    }
