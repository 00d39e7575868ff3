import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quotdeg.indices import (
    CompositeIndex,
    InvalidIndexError,
    SchubertSymbol,
    _merged_prefix,
    bottom_index,
    check_lower_set,
    composite_to_schubert,
    covers,
    dimension,
    leq_componentwise,
    leq_sequence,
    lower_covers,
    schubert_to_composite,
    symbol_dimension,
    validate_index,
)

from oracles import merged_prefix, windowed_lower_set


@st.composite
def wide_indices(draw, max_n=6, max_shift=3):
    # entries pairwise distinct mod n, not necessarily inside one window
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, n - 1))
    residues = draw(
        st.lists(st.integers(1, n), min_size=m, max_size=m, unique=True)
    )
    shifts = draw(st.lists(st.integers(0, max_shift), min_size=m, max_size=m))
    entries = tuple(sorted(r + n * k for r, k in zip(residues, shifts)))
    return CompositeIndex(entries, n)


@st.composite
def windowed_indices(draw, max_n=6, max_base=9):
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, n - 1))
    base = draw(st.integers(1, max_base))
    gaps = draw(
        st.lists(st.integers(1, n - 1), min_size=m - 1, max_size=m - 1, unique=True)
    )
    entries = (base,) + tuple(base + g for g in sorted(gaps))
    return CompositeIndex(entries, n)


@st.composite
def symbols(draw, max_n=6, max_d=4):
    # built from a partition in the m x p box, so always valid
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, n - 1))
    p = n - m
    parts = sorted(
        draw(st.lists(st.integers(0, p), min_size=m, max_size=m)), reverse=True
    )
    cols = tuple(p + l - mu for l, mu in enumerate(parts, start=1))
    return SchubertSymbol(cols, draw(st.integers(0, max_d))), n


def test_validate_accepts_wide_index():
    a = validate_index((1, 6), 4)
    assert a.entries == (1, 6)
    assert not a.in_window


def test_validate_rejects_residue_clash():
    with pytest.raises(InvalidIndexError):
        validate_index((1, 5), 4)


@pytest.mark.parametrize(
    "entries,n",
    [((), 4), ((0, 3), 4), ((3, 3), 4), ((4, 2), 4), ((1, 2), 1)],
)
def test_validate_rejects_malformed(entries, n):
    with pytest.raises(InvalidIndexError):
        validate_index(entries, n)


@pytest.mark.parametrize(
    "cols,d,n,expected",
    [
        ((3, 4), 1, 4, (4, 7)),
        ((2, 3), 2, 4, (6, 7)),
        ((1,), 0, 2, (1,)),
        ((2,), 3, 2, (8,)),
        ((1, 2, 3), 0, 6, (1, 2, 3)),
        ((1, 3, 5), 4, 6, (9, 11, 13)),
    ],
)
def test_schubert_to_composite(cols, d, n, expected):
    assert schubert_to_composite(SchubertSymbol(cols, d), n).entries == expected


def test_schubert_to_composite_rejects_oversized_columns():
    with pytest.raises(InvalidIndexError):
        schubert_to_composite(SchubertSymbol((3, 5), 0), 4)


def test_composite_to_schubert_examples():
    s = composite_to_schubert(validate_index((4, 7), 4))
    assert (s.columns, s.offset) == ((3, 4), 1)
    s = composite_to_schubert(validate_index((6, 7), 4))
    assert (s.columns, s.offset) == ((2, 3), 2)


def test_composite_to_schubert_needs_window():
    with pytest.raises(InvalidIndexError):
        composite_to_schubert(validate_index((1, 6), 4))


@settings(max_examples=150)
@given(symbols())
def test_symbol_roundtrip(sn):
    s, n = sn
    alpha = schubert_to_composite(s, n)
    assert alpha.in_window
    assert composite_to_schubert(alpha) == s
    assert dimension(alpha) == symbol_dimension(s, n)


@pytest.mark.parametrize(
    "entries,n,dim",
    [((4, 7), 4, 8), ((1, 6), 4, 3), ((1, 2), 4, 0), ((2, 4), 4, 3), ((9, 11, 13), 6, 27)],
)
def test_dimension(entries, n, dim):
    assert dimension(validate_index(entries, n)) == dim


def test_dimension_decomposes_as_symbol_dimension():
    # dim (4,7) = 8 splits as |i| + n*d = 4 + 4*1
    alpha = validate_index((4, 7), 4)
    s = composite_to_schubert(alpha)
    base = sum(c - l for l, c in enumerate(s.columns, start=1))
    assert (base, alpha.n * s.offset) == (4, 4)
    assert dimension(alpha) == base + alpha.n * s.offset


def test_leq_componentwise():
    assert leq_componentwise((1, 3), (2, 3))
    assert not leq_componentwise((2, 3), (1, 4))
    with pytest.raises(InvalidIndexError):
        leq_componentwise((1, 2), (1, 2, 3))


def test_leq_sequence_example():
    a = validate_index((1, 6), 4)
    b = validate_index((2, 5), 4)
    assert leq_sequence(a, b)
    assert not leq_sequence(b, a)


def test_leq_sequence_rejects_mixed_periods():
    with pytest.raises(InvalidIndexError):
        leq_sequence(validate_index((1, 2), 4), validate_index((1, 2), 5))


@settings(max_examples=150)
@given(wide_indices(), wide_indices())
def test_leq_sequence_prefix_is_stable(a, b):
    # doubling the compared prefix must not change the verdict
    if a.n != b.n or a.m != b.m:
        return
    count = a.m * (max(a.entries[-1], b.entries[-1]) // a.n + 2)
    direct = all(
        x <= y
        for x, y in zip(
            merged_prefix(a.entries, a.n, 2 * count),
            merged_prefix(b.entries, b.n, 2 * count),
        )
    )
    assert leq_sequence(a, b) == direct


@settings(max_examples=200)
@given(wide_indices(), st.integers(0, 40))
def test_merged_prefix_matches_sorting_every_progression(a, count):
    assert _merged_prefix(a.entries, a.n, count) == merged_prefix(a.entries, a.n, count)


@settings(max_examples=100)
@given(wide_indices())
def test_leq_sequence_reflexive(a):
    assert leq_sequence(a, a)


@settings(max_examples=150)
@given(wide_indices(), wide_indices())
def test_leq_sequence_antisymmetric(a, b):
    if a.n != b.n or a.m != b.m:
        return
    if leq_sequence(a, b) and leq_sequence(b, a):
        assert a == b


@settings(max_examples=150)
@given(wide_indices(), wide_indices(), wide_indices())
def test_leq_sequence_transitive(a, b, c):
    if not (a.n == b.n == c.n and a.m == b.m == c.m):
        return
    if leq_sequence(a, b) and leq_sequence(b, c):
        assert leq_sequence(a, c)


def test_covers_examples():
    n4 = lambda t: validate_index(t, 4)
    assert covers(n4((4, 7)), n4((4, 6)))
    # shift drop: (3,5) = (1,3;1) covers (3,4) = (3,4;0)
    assert covers(n4((3, 5)), n4((3, 4)))
    assert not covers(n4((4, 7)), n4((3, 6)))
    assert not covers(n4((4, 7)), n4((4, 7)))
    # out-of-window indices are not part of the covering relation
    assert not covers(n4((4, 7)), n4((2, 7)))
    assert not covers(n4((2, 7)), n4((1, 2)))


def test_lower_covers_examples():
    assert [c.entries for c in lower_covers(validate_index((4, 7), 4))] == [(4, 6)]
    assert [c.entries for c in lower_covers(validate_index((3, 5), 4))] == [
        (2, 5),
        (3, 4),
    ]
    assert lower_covers(bottom_index(3, 5)) == []


@settings(max_examples=120)
@given(windowed_indices())
def test_lower_covers_match_covers(alpha):
    covered = {c.entries for c in lower_covers(alpha)}
    # every listed cover passes covers(); dimension drops by exactly 1
    for c in lower_covers(alpha):
        assert covers(alpha, c)
        assert dimension(c) == dimension(alpha) - 1
    # and covers() holds for no other single decrement
    for l in range(alpha.m):
        t = alpha.entries[:l] + (alpha.entries[l] - 1,) + alpha.entries[l + 1 :]
        if t not in covered:
            try:
                beta = CompositeIndex(t, alpha.n)
            except InvalidIndexError:
                continue
            assert not covers(alpha, beta)


def test_cover_soundness_small():
    # covers == "no index strictly between" on the lower set of (4,7) mod 4
    pool = [validate_index(t, 4) for t in windowed_lower_set((4, 7), 4)]
    for a, b in itertools.product(pool, repeat=2):
        if a == b or not leq_componentwise(b.entries, a.entries):
            continue
        between = any(
            c != a
            and c != b
            and leq_componentwise(b.entries, c.entries)
            and leq_componentwise(c.entries, a.entries)
            for c in pool
        )
        assert covers(a, b) == (not between)


def test_lower_set_estimate_bounds_the_lower_set():
    # a first entry up to top[0], then m - 1 more among the n - 1 values after it
    for n in range(2, 7):
        for m in range(1, n):
            for q in range(3):
                cols = tuple(range(n - m + 1, n + 1))
                top = schubert_to_composite(SchubertSymbol(cols, q), n).entries
                estimate = top[0] * math.comb(n - 1, m - 1)
                assert len(windowed_lower_set(top, n)) <= estimate
                check_lower_set(top, n)  # far below the limit


def test_lower_set_estimate_counts_the_cell_width():
    # a cell holds n + bit_length(first entry) bits; each tuple counts once
    # per 64-bit word of them
    check_lower_set((40,), 57)  # 63 bits: one word
    check_lower_set((10**6 // 2,), 63)  # 82 bits: two words, 10^6 in all
    with pytest.raises(ValueError, match=r"estimated 500001 tuples .*, times 2 64-bit words"):
        check_lower_set((10**6 // 2 + 1,), 63)
    # 999,992 + 7 bits, 15,625 words a cell: 64 tuples fit, 65 do not
    check_lower_set((64,), 999992)
    with pytest.raises(ValueError, match=r"estimated 65 tuples below \(65,\) mod 999992, "
                       r"times 15625 64-bit words per cell, exceed the limit 1000000"):
        check_lower_set((65,), 999992)


def test_lower_set_limit_is_a_fixed_constant():
    check_lower_set((10**6,), 2)  # estimate 10^6 * C(1, 0), exactly the limit
    with pytest.raises(ValueError, match="estimated 1000001 tuples .* exceed the limit 1000000"):
        check_lower_set((10**6 + 1,), 2)
    # (8,7,6), the largest box the benchmark and CI fill: 48,048 against 45,045 real
    top = schubert_to_composite(SchubertSymbol(tuple(range(8, 16)), 6), 15).entries
    assert top[0] * math.comb(14, 7) == 48048
    check_lower_set(top, 15)
