"""Grass(m, n) = Grass(n - m, n) sends sigma_lambda to sigma_lambda', so the
degree of (columns; d) in (m, p) must equal that of the transposed columns
in (p, m) with the same d.  No method knows about transposition, and for odd
n the two fixed-point sums run over different roots (z^n = +1 against -1)."""

from quotdeg.chain_degree import degree_chain
from quotdeg.indices import SchubertSymbol, schubert_to_composite
from quotdeg.recurrence_degree import RecurrenceTable
from quotdeg.vafa import vi_degree
from quotdeg.verify import _spaces, valid_symbols

from oracles import transpose_columns


def _symbols(max_n, max_dim):
    # every (m, p, columns, d) with n <= max_n and dimension <= max_dim
    return [
        (m, n - m, cols, d)
        for n, m in _spaces(max_n)
        for cols, d in valid_symbols(m, n - m, max_dim)
    ]


def test_degrees_are_invariant_under_grassmannian_duality():
    memos, tables = {}, {}  # a chain memo holds one period

    def exact(m, n, cols, d):
        alpha = schubert_to_composite(SchubertSymbol(cols, d), n)
        if (m, n) not in tables:
            tables[m, n] = RecurrenceTable(m, n)
        return degree_chain(alpha, memos.setdefault(n, {})), tables[m, n].degree(alpha.entries)

    symbols = _symbols(8, 20)
    assert len(symbols) == 1352
    for m, p, cols, d in symbols:
        dual = transpose_columns(cols, p)
        assert transpose_columns(dual, m) == cols
        assert exact(m, m + p, cols, d) == exact(p, m + p, dual, d), (m, p, cols, d)

    symbols = _symbols(7, 14)
    assert len(symbols) == 552
    for m, p, cols, d in symbols:
        dual = transpose_columns(cols, p)
        assert vi_degree(cols, d, m, p).value == vi_degree(dual, d, p, m).value, (m, p, cols, d)
