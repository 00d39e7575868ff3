"""The chain count and the recurrence against the closed form of
oracles.symbol_degree, which reads each degree off Aitken's determinant and
knows nothing of either method."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from quotdeg.chain_degree import degree_chain
from quotdeg.indices import SchubertSymbol, schubert_to_composite
from quotdeg.recurrence_degree import RecurrenceTable

from oracles import symbol_degree, top_degree


@st.composite
def symbols(draw, max_n=10, max_m=5, max_dim=40):
    """(columns, d, n) with n <= max_n, m <= max_m and dimension <= max_dim."""
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, min(max_m, n - 1)))
    columns = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=m, max_size=m))))
    base = sum(c - j for j, c in enumerate(columns, start=1))
    return columns, draw(st.integers(0, (max_dim - base) // n)), n


@settings(max_examples=150, deadline=None)
@given(symbols())
@example(((1, 3, 5, 7), 2, 8))
@example(((6, 7, 8, 9, 10), 1, 10))
def test_chain_and_recurrence_equal_the_closed_form(symbol):
    columns, d, n = symbol
    alpha = schubert_to_composite(SchubertSymbol(columns, d), n)
    chain = degree_chain(alpha)
    assert chain == RecurrenceTable(len(columns), n).degree(alpha.entries)
    assert chain == symbol_degree(columns, d, n)


def test_closed_form_values():
    # the request a 53-bit fixed-point sum refuses
    assert symbol_degree((1, 3, 5, 7), 2, 8) == 77922304
    # the whole space, where the determinant has product form
    for m in range(1, 5):
        for p in range(1, 5):
            top = tuple(range(p + 1, m + p + 1))
            for q in range(6):
                assert symbol_degree(top, q, m + p) == top_degree(m, p, q)
