import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quotdeg.chain_degree
from quotdeg.chain_degree import (
    degree_bruteforce,
    degree_chain,
    enumerate_chains,
)
from quotdeg.indices import (
    CompositeIndex,
    InvalidIndexError,
    SchubertSymbol,
    bottom_index,
    covers,
    dimension,
    lower_covers,
    schubert_to_composite,
    validate_index,
)
from quotdeg.recurrence_degree import RecurrenceTable

from oracles import rectangle_syt_count, top_degree, windowed_lower_set


@st.composite
def windowed_indices(draw, max_n=6, max_base=8):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, n - 1))
    base = draw(st.integers(1, max_base))
    gaps = draw(
        st.lists(st.integers(1, n - 1), min_size=m - 1, max_size=m - 1, unique=True)
    )
    return CompositeIndex((base,) + tuple(base + g for g in sorted(gaps)), n)


@pytest.mark.parametrize(
    "entries,n,expected",
    [
        ((1, 2), 4, 1),
        ((3, 4), 4, 2),
        ((4, 7), 4, 8),
        ((4, 5), 5, 5),
        ((2, 3, 4), 6, 1),
        ((13,), 3, 1),
    ],
)
def test_degree_chain_known_values(entries, n, expected):
    assert degree_chain(validate_index(entries, n)) == expected


def test_degree_chain_rejects_wide_index():
    with pytest.raises(InvalidIndexError):
        degree_chain(validate_index((1, 6), 4))


def test_degree_chain_bottom_is_one():
    for m in range(1, 5):
        for p in range(1, 5):
            assert degree_chain(bottom_index(m, m + p)) == 1


def _cell(entries, n):
    # the walk's key for a tuple: its first entry above n offset bits
    return (entries[0] << n) + sum(1 << (a - entries[0]) for a in entries)


def test_memo_reuse_is_consistent():
    memo = {}
    a = validate_index((4, 7), 4)
    assert degree_chain(a, memo) == 8
    # reusing the same table must give identical answers and hit the cache
    assert memo[_cell((4, 7), 4)] == 8
    assert degree_chain(a, memo) == 8
    assert degree_chain(validate_index((4, 6), 4), memo) == 8
    # a table holds one period: the same cell names other tuples under
    # other periods, (2,) mod 2 and (1,) mod 3 for one, so period 5 gets
    # its own table and period 4's still answers
    assert _cell((2,), 2) == _cell((1,), 3)
    assert degree_chain(validate_index((4, 5), 5), {}) == 5
    assert degree_chain(a, memo) == 8


def _top_index(m, p, q):
    return schubert_to_composite(SchubertSymbol(tuple(range(p + 1, m + p + 1)), q), m + p)


def test_fresh_memo_holds_exactly_the_lower_set():
    for m in range(1, 4):
        for p in range(1, 4):
            for q in range(4):
                alpha = _top_index(m, p, q)
                memo = {}
                degree_chain(alpha, memo)
                lower = windowed_lower_set(alpha.entries, alpha.n)
                assert set(memo) == {_cell(t, alpha.n) for t in lower}
    for (m, p, q), size in (((3, 3, 4), 100), ((2, 5, 6), 147)):
        memo = {}
        degree_chain(_top_index(m, p, q), memo)
        assert len(memo) == size


def test_each_offset_pattern_generates_its_decrements_once(monkeypatch):
    calls = []
    real = quotdeg.chain_degree._lower_cells

    def counting(cell, n):
        calls.append(cell)
        return real(cell, n)

    monkeypatch.setattr(quotdeg.chain_degree, "_lower_cells", counting)
    # (m, p, q) and how many cover lists the walk generates: at most one
    # per pattern of a first entry >= 2 and one per cell of first entry 1,
    # 19 for the 100 cells below (3, 3, 4) and 11 for the 147 below (2, 5, 6)
    for (m, p, q), generated in (((3, 3, 4), 19), ((2, 5, 6), 11), ((1, 3, 2), 1), ((2, 2, 0), 4)):
        calls.clear()
        memo = {}
        alpha = _top_index(m, p, q)
        n = alpha.n
        degree_chain(alpha, memo)

        def pattern(cell):
            # what a cell's covers subtract depends on its offsets alone
            # once its first entry can drop, and on the whole cell at 1
            return cell if cell >> n == 1 else cell & ((1 << n) - 1)

        # every memo entry but the bottom is summed from a cover list built
        # from its pattern's, and each pattern's is generated once
        bottom = _cell(tuple(range(1, m + 1)), n)
        assert len(set(calls)) == len(calls)
        assert sorted(map(pattern, calls)) == sorted({pattern(c) for c in memo if c != bottom})
        assert len(calls) == generated


def test_seeded_memo_entry_is_a_leaf():
    memo = {_cell((2,), 2): 2}
    assert degree_chain(CompositeIndex((5,), 2), memo) == 2
    assert memo[_cell((2,), 2)] == 2
    # the walk stops at the seeded entry and never reaches the bottom
    assert _cell((1,), 2) not in memo


def test_deep_index_needs_no_recursion():
    # mod 3 a pair spans 1 or 2, and (a, a + 2) covers only (a, a + 1), which
    # covers only (a - 1, a + 1): the 5,999 tuples below (3000, 3001) form one
    # chain, and both methods walk all of it
    alpha = CompositeIndex((3000, 3001), 3)
    assert dimension(alpha) == 5998
    memo = {}
    table = RecurrenceTable(2, 3)
    assert degree_chain(alpha, memo) == table.degree(alpha.entries) == 1
    assert len(memo) == len(table.values) == 5999


def test_walk_deeper_than_the_limit_is_refused_up_front(monkeypatch):
    # the depth is the index's dimension: at the limit the walk runs, one
    # step past it nothing is walked and nothing enters the memo
    monkeypatch.setattr(quotdeg.chain_degree, "_MAX_DEPTH", 10)
    memo = {}
    assert degree_chain(CompositeIndex((11,), 2), memo) == 1
    memo.clear()
    with pytest.raises(ValueError, match=r"^chain walk too deep: 11 steps down from "
                       r"\(4, 6, 7\) mod 5 exceed the limit 10$"):
        degree_chain(CompositeIndex((4, 6, 7), 5), memo)
    assert memo == {}


def test_lower_cells_match_lower_covers():
    # the cell step against the tuple step, in the same order, on every
    # windowed index with n <= 7 and dimension <= 20
    from quotdeg.verify import windowed_indices

    edges = {"lowest entry 1": 0, "span n - 1": 0}
    for n in range(2, 8):
        for m in range(1, n):
            for entries in windowed_indices(n, m, 20):
                alpha = CompositeIndex(entries, n)
                want = [_cell(b.entries, n) for b in lower_covers(alpha)]
                assert quotdeg.chain_degree._lower_cells(_cell(entries, n), n) == want, alpha
                edges["lowest entry 1"] += entries[0] == 1
                edges["span n - 1"] += alpha.span == n - 1
    assert all(edges.values()), edges


@settings(max_examples=100, deadline=None)
@given(windowed_indices())
def test_pieri_sum_over_lower_covers(alpha):
    if alpha.entries == tuple(range(1, alpha.m + 1)):
        return
    memo = {}
    assert degree_chain(alpha, memo) == sum(
        degree_chain(b, memo) for b in lower_covers(alpha)
    )


def test_enumerate_chains_singleton():
    enum = enumerate_chains(validate_index((2, 3), 4))
    assert enum.total == 1 and not enum.capped
    assert [[c.entries for c in ch] for ch in enum.chains] == [
        [(1, 2), (1, 3), (2, 3)]
    ]


def test_enumerate_chains_pair():
    enum = enumerate_chains(validate_index((3, 4), 4))
    assert enum.total == 2 and not enum.capped
    assert [[c.entries for c in ch] for ch in enum.chains] == [
        [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)],
        [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)],
    ]


def test_enumerate_chains_cap():
    enum = enumerate_chains(validate_index((4, 7), 4), cap=3)
    assert len(enum.chains) == 3
    assert enum.total == 8
    assert enum.capped


def test_enumerate_chains_bottom():
    enum = enumerate_chains(bottom_index(2, 4))
    assert enum.total == 1
    assert [[c.entries for c in ch] for ch in enum.chains] == [[(1, 2)]]


def test_listing_builds_each_distinct_step_once():
    enum = enumerate_chains(validate_index((5, 9, 10), 6), cap=1000)
    # the same listing as when every step was built afresh
    assert hashlib.sha256(repr(enum.chains).encode()).hexdigest() == (
        "83345b88ee8a117d7eef1487d7ea54f00c4d1e07129f7ce0a5e9af2a9d2fe902"
    )
    assert (len(enum.chains), enum.total, enum.capped) == (1000, 21845, True)
    steps = [step for chain in enum.chains for step in chain]
    assert len(steps) == 19000
    assert len({id(step) for step in steps}) == len(set(steps)) == 40


@settings(max_examples=60, deadline=None)
@given(windowed_indices(max_n=5, max_base=4))
def test_chain_invariants(alpha):
    enum = enumerate_chains(alpha, cap=200)
    seqs = [tuple(c.entries for c in ch) for ch in enum.chains]
    assert seqs == sorted(seqs)
    assert len(seqs) == len(set(seqs))
    for chain in enum.chains:
        # bottom to alpha, one cover per step, dimension rising by 1
        assert chain[0].entries == tuple(range(1, alpha.m + 1))
        assert chain[-1] == alpha
        assert len(chain) == dimension(alpha) + 1
        for lower, upper in zip(chain, chain[1:]):
            assert covers(upper, lower)
            assert dimension(upper) == dimension(lower) + 1
    if not enum.capped:
        assert len(enum.chains) == enum.total


@pytest.mark.parametrize(
    "entries,n",
    [((3, 4), 4), ((4, 5), 5), ((4, 7), 4), ((2, 4, 6), 5)],
)
def test_bruteforce_matches_chain(entries, n):
    alpha = validate_index(entries, n)
    assert degree_bruteforce(alpha) == degree_chain(alpha)


def test_bruteforce_bound():
    alpha = validate_index((4, 7), 4)  # dimension 8
    assert degree_bruteforce(alpha, max_dim=8) == 8
    with pytest.raises(ValueError):
        degree_bruteforce(alpha, max_dim=7)


def test_rectangle_degrees_match_tableau_counts():
    # shift 0 top index: chains are standard tableaux of the m x p rectangle;
    # at shift q the top index's degree is the closed form's
    for m in range(1, 5):
        for p in range(1, 5):
            n = m + p
            cols = tuple(range(p + 1, n + 1))
            assert degree_chain(validate_index(cols, n)) == rectangle_syt_count(m, p)
            for q in range(5):
                top = schubert_to_composite(SchubertSymbol(cols, q), n)
                assert degree_chain(top) == top_degree(m, p, q)


def test_unique_chain_when_m_is_one():
    for p in (1, 2, 3):
        for a in range(1, 3 * (p + 1)):
            alpha = validate_index((a,), p + 1)
            assert degree_chain(alpha) == 1
            enum = enumerate_chains(alpha)
            assert enum.total == 1 and len(enum.chains) == 1
