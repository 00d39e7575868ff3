import hashlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quotdeg.chain_degree
from quotdeg.chain_degree import (
    DEFAULT_BRUTEFORCE_BOUND,
    ChainEnumeration,
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
from shared import cell_key, windowed_indices


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


def test_memo_reuse_is_consistent():
    memo = {}
    a = validate_index((4, 7), 4)
    assert degree_chain(a, memo) == 8
    # reusing the same table must give identical answers and hit the cache
    assert memo[cell_key((4, 7), 4)] == 8
    assert degree_chain(a, memo) == 8
    assert degree_chain(validate_index((4, 6), 4), memo) == 8
    # a table holds one period: the same cell names other tuples under
    # other periods, (2,) mod 2 and (1,) mod 3 for one, so period 5 gets
    # its own table and period 4's still answers
    assert cell_key((2,), 2) == cell_key((1,), 3)
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
                assert set(memo) == {cell_key(t, alpha.n) for t in lower}
    for (m, p, q), size in (((3, 3, 4), 100), ((2, 5, 6), 147), ((1, 3, 2), 12), ((2, 2, 0), 6)):
        memo = {}
        degree_chain(_top_index(m, p, q), memo)
        assert len(memo) == size


class _RecordedMemo(dict):
    # a memo that records the cell of every store
    def __init__(self):
        super().__init__()
        self.stores = []

    def __setitem__(self, cell, count):
        self.stores.append(cell)
        super().__setitem__(cell, count)


def test_each_visited_cell_generates_its_covers_once():
    # the walk lists a cell's covers on reaching it without a memo entry
    # and stores its count once they all have one, so one store per cell
    # means one cover list per cell
    for m, p, q in ((3, 3, 4), (2, 5, 6), (1, 3, 2), (2, 2, 0)):
        memo = _RecordedMemo()
        alpha = _top_index(m, p, q)
        degree_chain(alpha, memo)
        assert cell_key(tuple(range(1, m + 1)), alpha.n) in memo.stores
        assert sorted(memo.stores) == sorted(memo)
        # a memo hit, on the top or on any cell below it, lists and stores nothing
        memo.stores.clear()
        before = dict(memo)
        degree_chain(alpha, memo)
        for below in lower_covers(alpha):
            degree_chain(below, memo)
        assert memo.stores == [] and memo == before


def test_tuple_no_chain_reaches_counts_zero():
    # at m = n every tuple spans n - 1 with no gap, so no entry of (2, 3)
    # mod 2 can move down; with no lower cover and not the bottom, it
    # counts no chain
    alpha = validate_index((2, 3), 2)
    assert lower_covers(alpha) == []
    assert degree_chain(alpha) == degree_bruteforce(alpha) == 0
    assert enumerate_chains(alpha) == ChainEnumeration((), 0, False)


def test_seeded_memo_entry_is_a_leaf():
    memo = {cell_key((2,), 2): 2}
    assert degree_chain(CompositeIndex((5,), 2), memo) == 2
    assert memo[cell_key((2,), 2)] == 2
    # the walk stops at the seeded entry and never reaches the bottom
    assert cell_key((1,), 2) not in memo


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


def test_walk_sums_exactly_the_lower_covers():
    # the walk's cover step against the tuple step, on every windowed index
    # with n <= 7 and dimension <= 20: with each of lower_covers(alpha)
    # seeded in the memo under its own byte, the walk reads back each
    # cover once, descends into nothing and adds only alpha's own cell
    from quotdeg.verify import windowed_indices

    edges = {"lowest entry 1": 0, "span n - 1": 0}
    for n in range(2, 8):
        for m in range(1, n):
            for entries in windowed_indices(n, m, 20):
                alpha = CompositeIndex(entries, n)
                below = lower_covers(alpha)
                if not below:
                    assert entries == tuple(range(1, m + 1))
                    continue
                memo = {cell_key(b.entries, n): 1 << 8 * k for k, b in enumerate(below)}
                seeded = dict(memo)
                assert degree_chain(alpha, memo) == sum(seeded.values()), alpha
                assert memo == {**seeded, cell_key(entries, n): sum(seeded.values())}, alpha
                edges["lowest entry 1"] += entries[0] == 1
                edges["span n - 1"] += alpha.span == n - 1
    assert all(edges.values()), edges


@settings(max_examples=100, deadline=None)
@given(windowed_indices(max_base=8))
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


def test_enumerate_chains_refuses_a_non_positive_cap():
    with pytest.raises(ValueError, match="cap must be positive, got 0"):
        enumerate_chains(validate_index((3, 4), 4), cap=0)


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


def test_oversized_listing_is_refused_before_a_chain_is_built(monkeypatch):
    # the default cap once listed 12 * 10^6 steps for (60, 61) mod 4 and
    # 40 * 10^6 for (200, 201) mod 4, in seconds and gigabytes; the total
    # and the dimension size a listing before it starts
    chain_degree = quotdeg.chain_degree
    monkeypatch.setattr(chain_degree, "_iter_chain_tuples", lambda *a: pytest.fail("chain built"))
    for entries, length in (((60, 61), 119), ((200, 201), 399)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=(
            f"^chain listing too large: 100000 chains of {length} steps each exceed "
            "the limit 2000000 listed steps; lower --cap$"
        )):
            enumerate_chains(validate_index(entries, 4))
        assert time.perf_counter() - start < 1
    # the limit admits the largest listing the benchmark runs, 1000 x 19
    # steps, and is strict: one chain more is refused
    monkeypatch.undo()
    alpha = validate_index((5, 9, 10), 6)
    monkeypatch.setattr(chain_degree, "_MAX_LISTED_STEPS", 19000)
    assert len(enumerate_chains(alpha, cap=1000).chains) == 1000
    with pytest.raises(ValueError, match="1001 chains of 19 steps each exceed the limit 19000"):
        enumerate_chains(alpha, cap=1001)


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
    # the bound is a constant: dimension 8 and 10 are counted, 11 is refused
    assert DEFAULT_BRUTEFORCE_BOUND == 10
    assert degree_bruteforce(validate_index((4, 7), 4)) == 8  # dimension 8
    assert degree_bruteforce(validate_index((6, 7), 4)) == 16  # dimension 10
    with pytest.raises(ValueError, match="dimension 11 exceeds the brute-force bound 10"):
        degree_bruteforce(validate_index((6, 8), 4))


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
