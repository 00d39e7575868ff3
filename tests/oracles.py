"""Independent oracles the package must reproduce.

Kept outside the package on purpose: these know nothing about its
internals and work by a different principle (hook lengths, a closed
form, brute-force filtering, sorting everything, Leibniz expansion).
"""

import itertools
import math
from fractions import Fraction


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


def top_degree(m: int, p: int, q: int) -> int:
    """Degree of the whole degree-q Quot space, from its closed form

        (-1)^(q(m+1)) (mp + qn)! * sum over n_1 + ... + n_m = q, n_j >= 0, of
        prod_{j<l} (l - j + n(n_l - n_j)) / prod_j (p + j - 1 + n n_j)!

    summed in exact fractions.  At q = 0 it is the hook-length count."""
    n = m + p
    total = Fraction(0)
    for shares in itertools.product(range(q + 1), repeat=m):
        if sum(shares) != q:
            continue
        num = math.prod(
            l - j + n * (shares[l] - shares[j])
            for j, l in itertools.combinations(range(m), 2)
        )
        den = math.prod(math.factorial(p + j + n * shares[j]) for j in range(m))
        total += Fraction(num, den)
    value = (-1) ** (q * (m + 1)) * math.factorial(m * p + q * n) * total
    assert value.denominator == 1
    return int(value)


def symbol_degree(columns: tuple[int, ...], d: int, n: int) -> int:
    """Degree of the subvariety (columns; d) of period n, from the closed form

        (-1)^((m-1)d) * sum over k_1 + ... + k_m = d, k_i >= 0, of
        E! * det[perm(a_i, b_j)] / prod_i a_i!,

    with a_i = n - i + n k_i, b_j = n - c_j and E = sum_j (c_j - j) + n d
    the dimension.  Row i of Aitken's determinant det[1/(a_i - b_j)!], which
    counts skew tableaux, is scaled by a_i! (perm(a, b) = 0 for a < b), so
    each term is an integer and its division is exact."""
    m = len(columns)
    dim = sum(c - j for j, c in enumerate(columns, start=1)) + n * d
    b = [n - c for c in columns]
    total = 0
    for bars in itertools.combinations(range(d + m - 1), m - 1):
        edges = (-1, *bars, d + m - 1)
        shares = [hi - lo - 1 for lo, hi in zip(edges, edges[1:])]
        a = [n - i + n * k for i, k in enumerate(shares, start=1)]
        det = leibniz_det([[math.perm(ai, bj) for bj in b] for ai in a])
        term, rem = divmod(math.factorial(dim) * det, math.prod(map(math.factorial, a)))
        assert rem == 0
        total += term
    return (-1) ** ((m - 1) * d) * total


def merged_prefix(entries: tuple[int, ...], n: int, count: int) -> list[int]:
    """First `count` values of the merged progressions {a + k*n : k >= 0},
    by sorting `count` terms of every progression."""
    return sorted(a + k * n for a in entries for k in range(count))[:count]


def _permutation_sign(perm: tuple[int, ...]) -> int:
    inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
    return -1 if inversions % 2 else 1


def leibniz_det(rows):
    """Determinant as the signed sum over all m! permutations."""
    return sum(
        _permutation_sign(perm) * math.prod(row[j] for row, j in zip(rows, perm))
        for perm in itertools.permutations(range(len(rows)))
    )


def leibniz_coefficients(exponents, lams, n: int) -> list[int]:
    """Integers c_0..c_(n-1) with det[zeta^(e_i * lam_j)] = sum_r c_r zeta^r,
    zeta^(2n) = 1: each Leibniz term is the power zeta^(sum_i e_i lam_perm(i)),
    and zeta^(r+n) = -zeta^r folds the 2n powers onto the first n."""
    coeffs = [0] * (2 * n)
    for perm in itertools.permutations(range(len(lams))):
        power = sum(e * lams[j] for e, j in zip(exponents, perm))
        coeffs[power % (2 * n)] += _permutation_sign(perm)
    return [coeffs[r] - coeffs[r + n] for r in range(n)]


def transpose_columns(columns: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Columns of the dual symbol in Grass(p, m + p): the partition
    lambda_l = c_l - l is conjugated by counting, then c'_l = lambda'_l + l."""
    parts = [c - l for l, c in enumerate(columns, start=1)]
    conjugate = sorted(sum(1 for x in parts if x >= k) for k in range(1, p + 1))
    return tuple(x + l for l, x in enumerate(conjugate, start=1))
