"""Sweep the fixed-point degree sum against the recurrence at low precision.

Every subvariety with n <= 6 and dimension <= 30 is summed at each
precision from 4 to 39 bits, and each sum is rounded at every tolerance in
TOLERANCES.  A sum either certifies an integer or refuses (exit 4 in the
CLI); a certified integer that differs from the recurrence's degree is a
wrong answer the CLI would print with exit 0, and there must be none.

    PYTHONPATH=src python tests/fixed_point_sweep.py

runs the full sweep (24,840 sums, 26 s on a 2-vCPU VM under Python 3.11
with pure-Python mpmath), prints the counts and exits 1 on any wrong
integer.  test_vafa.py runs a small slice of it.
"""

import sys

from quotdeg.indices import SchubertSymbol, schubert_to_composite, symbol_dimension
from quotdeg.recurrence_degree import RecurrenceTable
from quotdeg.vafa import ToleranceError, _degree_sum, _finalize, lg_roots
from quotdeg.verify import valid_symbols

TOLERANCES = (0.49, 0.3, 0.25, 0.1, 1e-6)


def sweep(max_n: int, max_dim: int, precisions, tolerances=TOLERANCES):
    """(sums, certified count per tolerance, wrong answers) over the range.

    Each sum is computed once and rounded at every tolerance, exactly as
    vi_degree would round it with that tolerance.
    """
    sums = 0
    certified = dict.fromkeys(tolerances, 0)
    wrong = []
    for n in range(2, max_n + 1):
        for m in range(1, n):
            table = RecurrenceTable(m, n)
            cases = []
            for cols, d in valid_symbols(m, n - m, max_dim):
                symbol = SchubertSymbol(cols, d)
                want = table.degree(schubert_to_composite(symbol, n).entries)
                cases.append((cols, d, symbol_dimension(symbol, n), want))
            for precision in precisions:
                roots = lg_roots(m, n, precision)
                for cols, d, dim, want in cases:
                    sums += 1
                    subset_sum, bound = _degree_sum([n + 1 - c for c in cols], dim, roots)
                    for tolerance in tolerances:
                        try:
                            got = _finalize(subset_sum, bound, m, n, precision, tolerance)
                        except ToleranceError:
                            continue
                        certified[tolerance] += 1
                        if got.value != want:
                            wrong.append((n, cols, d, precision, tolerance, got.value, want))
    return sums, certified, wrong


def main() -> int:
    sums, certified, wrong = sweep(6, 30, range(4, 40))
    print(f"{sums} sums; certified per tolerance: {certified}")
    for case in wrong:
        print("wrong (n, i, d, precision, tolerance, got, want):", case)
    print(f"{len(wrong)} wrong integers")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
