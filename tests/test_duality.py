"""Grass(m, n) = Grass(n - m, n) sends sigma_lambda to sigma_lambda', so the
degree of (columns; d) in (m, p) must equal that of the transposed columns
in (p, m) with the same d.  No method knows about transposition, and for odd
n the two fixed-point sums run over different roots (z^n = +1 against -1)."""

import itertools

from quotdeg.chain_degree import degree_chain
from quotdeg.indices import SchubertSymbol, schubert_to_composite
from quotdeg.recurrence_degree import RecurrenceTable
from quotdeg.vafa import lg_roots, vi_degree

from oracles import transpose_columns


def _symbols(max_n, max_dim):
    # every (m, p, columns, d) with n <= max_n and dimension <= max_dim
    for n in range(2, max_n + 1):
        for m in range(1, n):
            for cols in itertools.combinations(range(1, n + 1), m):
                base = sum(c - l for l, c in enumerate(cols, start=1))
                for d in range((max_dim - base) // n + 1):
                    yield m, n - m, cols, d


def test_degrees_are_invariant_under_grassmannian_duality():
    memo, tables, roots = {}, {}, {}

    def exact(m, n, cols, d):
        alpha = schubert_to_composite(SchubertSymbol(cols, d), n)
        if (m, n) not in tables:
            tables[m, n] = RecurrenceTable(m, n)
        return degree_chain(alpha, memo), tables[m, n].degree(alpha.entries)

    def vi(m, p, cols, d):
        if (m, p) not in roots:
            roots[m, p] = lg_roots(m, m + p)
        return vi_degree(cols, d, m, p, roots=roots[m, p]).value

    symbols = list(_symbols(8, 20))
    assert len(symbols) == 1352
    for m, p, cols, d in symbols:
        dual = transpose_columns(cols, p)
        assert transpose_columns(dual, m) == cols
        assert exact(m, m + p, cols, d) == exact(p, m + p, dual, d), (m, p, cols, d)

    symbols = list(_symbols(7, 14))
    assert len(symbols) == 552
    for m, p, cols, d in symbols:
        dual = transpose_columns(cols, p)
        assert vi(m, p, cols, d) == vi(p, m, dual, d), (m, p, cols, d)
