import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quotdeg.chain_degree import degree_chain
from quotdeg.indices import (
    CompositeIndex,
    SchubertSymbol,
    bottom_index,
    schubert_to_composite,
    validate_index,
)
from quotdeg.recurrence_degree import RecurrenceTable, quot_degree

from oracles import rectangle_syt_count, top_degree, windowed_lower_set


@pytest.mark.parametrize(
    "entries,n,expected",
    [
        ((1, 2), 4, 1),
        ((3, 4), 4, 2),
        ((4, 7), 4, 8),
        ((4, 5), 5, 5),
        ((13,), 3, 1),
    ],
)
def test_degree_recurrence_known_values(entries, n, expected):
    assert RecurrenceTable(len(entries), n).degree(entries) == expected


@pytest.mark.parametrize(
    "entries",
    [
        (0, 3),  # leading entry below 1
        (2, 2),  # repeated entry
        (1, 5),  # span reaches the period
        (3, 2),  # not increasing
    ],
)
def test_boundary_probes_evaluate_to_zero(entries):
    table = RecurrenceTable(2, 4)
    assert table.degree(entries) == 0


def test_degree_is_nonnegative_everywhere():
    table = RecurrenceTable(2, 4)
    for a in range(-1, 6):
        for b in range(-1, 8):
            assert table.degree((a, b)) >= 0


def test_table_rejects_wrong_length():
    table = RecurrenceTable(2, 4)
    with pytest.raises(ValueError):
        table.degree((1, 2, 3))


def test_recurrence_matches_chain_exhaustively():
    # shared sweep over every windowed index of moderate dimension
    from quotdeg.verify import windowed_indices

    for n in range(2, 7):
        memo = {}  # a chain memo holds one period
        for m in range(1, n):
            table = RecurrenceTable(m, n)
            for entries in windowed_indices(n, m, 20):
                alpha = validate_index(entries, n)
                assert table.degree(entries) == degree_chain(alpha, memo), alpha


@pytest.mark.parametrize(
    "entries,n,boundary,expected",
    [
        # d(1,3) = d(0,3) + d(1,2) = 0 + 1
        ((1, 3), 4, (0, 3), 1),
        # d(2,3) = d(1,3) + d(2,2) = 1 + 0
        ((2, 3), 4, (2, 2), 1),
        # d(2,5) = d(1,5) + d(2,4) = 0 + (d(1,4) + d(2,3)) = 0 + (1 + 1)
        ((2, 5), 4, (1, 5), 2),
    ],
    ids=["leading-entry-0", "equal-entries", "span-equals-n"],
)
def test_decrement_reaching_each_boundary_reads_zero(entries, n, boundary, expected):
    table = RecurrenceTable(len(entries), n)
    assert table.degree(boundary) == 0
    assert table.degree(entries) == expected == degree_chain(validate_index(entries, n))


@pytest.mark.parametrize(
    "columns,d,m,p,q,expected",
    [
        ((2, 4), 0, 2, 2, 1, 2),
        ((3, 4), 1, 2, 2, 1, 8),
        ((1, 2), 0, 2, 2, 0, 1),
        ((3,), 2, 1, 2, 2, 1),
    ],
)
def test_subvariety_degree_values(columns, d, m, p, q, expected):
    # the degree of (columns; d) is the same in every order-q space with d <= q
    assert d <= q
    alpha = schubert_to_composite(SchubertSymbol(columns, d), m + p)
    assert RecurrenceTable(m, m + p).degree(alpha.entries) == expected


@pytest.mark.parametrize(
    "m,p,q,expected",
    [
        (2, 2, 0, 2),
        (2, 2, 1, 8),
        (2, 3, 0, 5),
        (1, 3, 2, 1),
        (3, 3, 0, 42),
    ],
)
def test_quot_degree_values(m, p, q, expected):
    assert quot_degree(m, p, q) == expected


def test_quot_degree_matches_tableau_count_at_shift_zero():
    # the closed form is the hook-length count at q = 0 and holds at every q
    for m in range(1, 5):
        for p in range(1, 5):
            assert quot_degree(m, p, 0) == rectangle_syt_count(m, p)
            for q in range(5):
                assert quot_degree(m, p, q) == top_degree(m, p, q)


def test_quot_degree_is_one_for_projective_target():
    for p in range(1, 5):
        for q in range(0, 5):
            assert quot_degree(1, p, q) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.integers(1, 3), st.integers(0, 2))
def test_quot_degree_grows_with_shift(m, p, q):
    assert quot_degree(m, p, q + 1) >= quot_degree(m, p, q)


def test_bottom_index_degree_is_one():
    for m in range(1, 5):
        for p in range(1, 5):
            alpha = bottom_index(m, m + p)
            assert RecurrenceTable(m, m + p).degree(alpha.entries) == 1


def test_recurrence_agrees_on_large_single_index():
    alpha = validate_index((6, 9, 11), 6)
    assert RecurrenceTable(3, 6).degree(alpha.entries) == degree_chain(alpha)


def test_query_order_does_not_change_values():
    from quotdeg.verify import windowed_indices

    for n in range(2, 7):
        for m in range(1, n):
            tuples = list(windowed_indices(n, m, 12))
            top_down, bottom_up = RecurrenceTable(m, n), RecurrenceTable(m, n)
            down = {t: top_down.degree(t) for t in reversed(tuples)}
            up = {t: bottom_up.degree(t) for t in tuples}
            fresh = {t: RecurrenceTable(m, n).degree(t) for t in tuples}
            assert down == up == fresh, (m, n)


def _cell(t, n):
    return (t[0] << n) + sum(1 << (a - t[0]) for a in t)


def _entries(cell, n):
    first = cell >> n
    return tuple(first + o for o in range(n) if cell >> o & 1)


def test_one_query_fills_exactly_its_box():
    # values is keyed by cell (first entry above n offset bits); a fresh
    # table's first query fills the box below it, one level of the first
    # entry at a time, and nothing else (the bottom is pinned and fills
    # nothing).  The box is listed once as offset patterns, ascending, each
    # with the highest level it reaches.
    from quotdeg.verify import windowed_indices

    for n in range(2, 7):
        for m in range(1, n):
            for entries in windowed_indices(n, m, 12)[1:]:  # past the bottom
                box = {_cell(t, n) for t in windowed_lower_set(entries, n)}
                table = RecurrenceTable(m, n)
                patterns = table._box(entries)
                assert patterns == sorted(patterns), (entries, n)
                assert patterns[0] == ((1 << m) - 1, entries[0]), (entries, n)
                cells = [(f << n) + pattern for pattern, cap in patterns for f in range(1, cap + 1)]
                assert sorted(cells) == sorted(box), (entries, n)
                table.degree(entries)
                assert set(table.values) == box, (entries, n)


@st.composite
def shared_tops(draw):
    # two tops of one (m, n) with n <= 8: a first entry of 1 gives a box of
    # a single level, and an offset of n - 1 touches the span-n boundary
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, n - 1))

    def top():
        first = draw(st.integers(1, 5))
        offsets = draw(
            st.lists(st.integers(1, n - 1), min_size=m - 1, max_size=m - 1, unique=True)
        )
        return (first,) + tuple(first + o for o in sorted(offsets))

    return n, top(), top()


@settings(max_examples=200, deadline=None)
@given(shared_tops())
@example((5, (1, 2, 5), (1, 3, 4)))  # single-level boxes
@example((4, (6,), (2,)))  # m = 1
@example((6, (3, 5, 8), (2, 4, 7)))  # spans of n - 1
@example((7, (4, 5, 6, 7, 8, 9), (1, 2, 3, 4, 5, 6)))  # m = n - 1, and the bottom
def test_level_fill_agrees_with_the_chain_count(case):
    n, first, second = case
    m = len(first)
    bottom = tuple(range(1, m + 1))
    memo = {}  # a chain memo holds one period
    for top in (first, second):
        table = RecurrenceTable(m, n)
        value = table.degree(top)
        assert value == degree_chain(CompositeIndex(top, n), memo), (top, n)
        # a fresh table fills exactly the box below the top (none at the
        # pinned bottom), and every value is the chain count of its tuple
        box = {_cell(t, n) for t in windowed_lower_set(top, n)} if top != bottom else set()
        assert set(table.values) == box, (top, n)
        for cell, v in table.values.items():
            assert v == degree_chain(CompositeIndex(_entries(cell, n), n), memo), (cell, n)
    # a shared table gives the same answers and holds the same values in
    # either query order
    forward, backward = RecurrenceTable(m, n), RecurrenceTable(m, n)
    answers = (forward.degree(first), forward.degree(second))
    assert answers[::-1] == (backward.degree(second), backward.degree(first))
    assert forward.values == backward.values
