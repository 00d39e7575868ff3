"""Index tuples modulo an ambient period, their orders and conversions.

Two families of strictly increasing integer tuples show up in the degree
computations.  The wide family only requires entries to be pairwise
distinct mod n; the windowed family additionally fits inside one period
(last - first < n) and is the one that carries degrees.  A windowed index
factors uniquely as a column set inside [1, n] plus a nonnegative period
shift, and that factorization drives both the covering relation and the
fixed-point formulas.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from collections.abc import Iterable

# The largest lower set a chain count or a recurrence fill may visit, as
# estimated by check_lower_set: about 20 times the largest estimate the
# tests, CI, the benchmark decks and verify --max-n 8 --max-dim 24 reach,
# 48,048 at (8,7,6), whose real box of 45,045 tuples takes 0.1-0.2 s.
_MAX_LOWER_SET = 10**6

# The most 64-bit words the counts stored over a lower set may take, as
# estimated by check_lower_set.  On a 2-vCPU VM, degree --m 2 --p 2 --q Q
# estimates 24M words at Q = 8,000 (52 MB for the recurrence, 74 MB for the
# chain count) and 198M at Q = 23,000 (0.44 s and 296 MB, 0.82 s and
# 451 MB), both admitted; Q = 40,000, whose recurrence peaked at 852 MB,
# estimates 600M and is refused.  (3000, 3001) mod 3 estimates 564,000 and
# (8,7,6) 336,336.
_MAX_COUNT_WORDS = 2 * 10**8


class InvalidIndexError(ValueError):
    """A tuple violates the index invariants, or two indices live mod different n."""


class _OwnTypeEquality:
    """Mixin for the named-tuple value types: equal only to an instance of the
    same type, never to a plain tuple or another type with the same fields."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


def _integer(value, error=ValueError) -> int:
    """int(value), refusing with `error` any value that int() would change:
    "1", 2.0 and True pass, 1.9 and Fraction(5, 2) do not."""
    whole = int(value)
    if whole != value and not isinstance(value, str):
        raise error(f"{value!r} is not an integer")
    return whole


class CompositeIndex(_OwnTypeEquality, namedtuple("CompositeIndex", "entries n")):
    """Strictly increasing tuple of positive ints, pairwise distinct mod n
    (an immutable named tuple, validated on construction)."""

    __slots__ = ()

    def __new__(cls, entries, n):
        entries = tuple(_integer(a, InvalidIndexError) for a in entries)
        n = _integer(n, InvalidIndexError)
        if n < 2:
            raise InvalidIndexError(f"period must be at least 2, got {n}")
        if not entries:
            raise InvalidIndexError("index needs at least one entry")
        if entries[0] < 1:
            raise InvalidIndexError(f"entries must be positive: {entries}")
        for a, b in zip(entries, entries[1:]):
            if b <= a:
                raise InvalidIndexError(f"entries must strictly increase: {entries}")
        if len({a % n for a in entries}) != len(entries):
            raise InvalidIndexError(f"entries of {entries} repeat a residue mod {n}")
        return super().__new__(cls, entries, n)

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def span(self) -> int:
        return self.entries[-1] - self.entries[0]

    @property
    def in_window(self) -> bool:
        """True when all entries fit in one period (span < n)."""
        return self.span < self.n

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.entries)


class SchubertSymbol(_OwnTypeEquality, namedtuple("SchubertSymbol", "columns offset")):
    """Column set plus period shift naming a subvariety Z (an immutable
    named tuple, validated on construction)."""

    __slots__ = ()

    def __new__(cls, columns, offset=0):
        columns = tuple(_integer(c, InvalidIndexError) for c in columns)
        offset = _integer(offset, InvalidIndexError)
        if not columns:
            raise InvalidIndexError("column set needs at least one entry")
        if columns[0] < 1:
            raise InvalidIndexError(f"columns must be positive: {columns}")
        for a, b in zip(columns, columns[1:]):
            if b <= a:
                raise InvalidIndexError(f"columns must strictly increase: {columns}")
        if offset < 0:
            raise InvalidIndexError(f"period shift must be nonnegative, got {offset}")
        return super().__new__(cls, columns, offset)

    @property
    def m(self) -> int:
        return len(self.columns)

    def __str__(self) -> str:
        cols = ",".join(str(c) for c in self.columns)
        return f"({cols};{self.offset})"


def validate_index(entries: Iterable[int], n: int) -> CompositeIndex:
    """Build a CompositeIndex, raising InvalidIndexError on any violation."""
    return CompositeIndex(tuple(entries), n)


def bottom_index(m: int, n: int) -> CompositeIndex:
    """(1, 2, ..., m): the unique minimum of the windowed family."""
    return CompositeIndex(tuple(range(1, _integer(m, InvalidIndexError) + 1)), n)


def _check_same_space(alpha: CompositeIndex, beta: CompositeIndex) -> None:
    if alpha.n != beta.n:
        raise InvalidIndexError(f"cannot compare indices mod {alpha.n} and mod {beta.n}")
    if len(alpha.entries) != len(beta.entries):
        raise InvalidIndexError(
            f"cannot compare indices of lengths {alpha.m} and {beta.m}"
        )


def _require_window(alpha: CompositeIndex) -> None:
    if not alpha.in_window:
        raise InvalidIndexError(
            f"index {alpha.entries} spans a full period mod {alpha.n}"
        )


def schubert_to_composite(s: SchubertSymbol, n: int) -> CompositeIndex:
    """Realize a (columns; shift) symbol as a windowed index mod n.

    Writing the shift as k*m + r with 0 <= r < m, the last r columns wrap
    one extra period: the result is (k*n + i_{r+1}, ..., k*n + i_m,
    (k+1)*n + i_1, ..., (k+1)*n + i_r).
    """
    m = s.m
    if s.columns[-1] > n:
        raise InvalidIndexError(f"columns {s.columns} exceed the period {n}")
    k, r = divmod(s.offset, m)
    head = tuple(k * n + s.columns[l] for l in range(r, m))
    tail = tuple((k + 1) * n + s.columns[l] for l in range(r))
    return CompositeIndex(head + tail, n)


def composite_to_schubert(alpha: CompositeIndex) -> SchubertSymbol:
    """Factor a windowed index into its column set and total period shift."""
    _require_window(alpha)
    residues = [((a - 1) % alpha.n) + 1 for a in alpha.entries]
    shift = sum((a - r) // alpha.n for a, r in zip(alpha.entries, residues))
    return SchubertSymbol(tuple(sorted(residues)), shift)


def dimension(alpha: CompositeIndex) -> int:
    """sum(alpha_l - l) minus one for each pair a full period or more apart.

    On the windowed family the correction vanishes and the value is also
    |columns| + n * shift of the factored symbol.
    """
    ents = alpha.entries
    base = sum(a - l for l, a in enumerate(ents, start=1))
    excess = sum(
        (ents[l] - ents[k]) // alpha.n
        for l in range(1, len(ents))
        for k in range(l)
    )
    return base - excess


def symbol_dimension(s: SchubertSymbol, n: int) -> int:
    """|columns| + n * shift, the dimension of the subvariety the symbol names."""
    return sum(c - l for l, c in enumerate(s.columns, start=1)) + _integer(n) * s.offset


def leq_componentwise(i: Iterable[int], j: Iterable[int]) -> bool:
    """Entrywise <= on equal-length tuples."""
    a, b = tuple(i), tuple(j)
    if len(a) != len(b):
        raise InvalidIndexError(f"cannot compare tuples of lengths {len(a)} and {len(b)}")
    return all(map(operator.le, a, b))


# verify's order sweep compares every pair of a pool, so each prefix recurs
# once per partner: at max_n = 8, 2,778,800 reads of 10,020 distinct keys,
# which this cache holds without eviction.
@functools.lru_cache(maxsize=2**14)
def _merged_prefix(entries: tuple[int, ...], n: int, count: int) -> tuple[int, ...]:
    # first `count` values of the merged progressions {a + k*n : k >= 0}; all m
    # start by the top entry, so each has ceil(count / m) values <= bound
    bound = entries[-1] + n * (-(-count // len(entries)) - 1)
    return tuple(sorted(v for a in entries for v in range(a, bound + 1, n))[:count])


def leq_sequence(alpha: CompositeIndex, beta: CompositeIndex) -> bool:
    """Termwise <= of the merged period-progressions of the two indices.

    The merged sequences are eventually offset copies of each other, so
    comparing the first m * (max_entry // n + 2) terms decides the order.
    """
    _check_same_space(alpha, beta)
    n = alpha.n
    count = len(alpha.entries) * (max(alpha.entries[-1], beta.entries[-1]) // n + 2)
    fa = _merged_prefix(alpha.entries, n, count)
    fb = _merged_prefix(beta.entries, n, count)
    return all(map(operator.le, fa, fb))


def covers(alpha: CompositeIndex, beta: CompositeIndex) -> bool:
    """True when alpha sits immediately above beta in the windowed order.

    In factored form (i; d) covers (j; b) exactly when either the shifts
    agree and one column drops by 1, or the shift drops by 1 while the
    column set rolls from (1, i_2, ..., i_m) to (i_2, ..., i_m, n).
    Indices outside the window cover nothing and are covered by nothing.
    """
    _check_same_space(alpha, beta)
    if not (alpha.in_window and beta.in_window):
        return False
    si = composite_to_schubert(alpha)
    sj = composite_to_schubert(beta)
    if sj.offset == si.offset:
        diffs = [(x, y) for x, y in zip(si.columns, sj.columns) if x != y]
        return len(diffs) == 1 and diffs[0][0] - diffs[0][1] == 1
    if sj.offset == si.offset - 1:
        return (
            si.columns[0] == 1
            and si.columns[-1] < alpha.n
            and sj.columns == si.columns[1:] + (alpha.n,)
        )
    return False


def check_lower_set(entries: tuple[int, ...], n: int) -> None:
    """Refuse, before any work, a tuple whose lower set is too large to visit.

    Every tuple below `entries` that either method visits is strictly
    increasing, componentwise below it and spans less than n, so it is a
    first entry in 1..entries[0] and m - 1 more among the n - 1 values
    after it: at most entries[0] * C(n - 1, m - 1) tuples, within 1.6x of
    the real count on the benchmark's boxes.  Both methods hold a tuple as
    one cell of at most n + bit_length(entries[0]) bits, so each tuple
    counts once per 64-bit word of that width: one word while the width is
    under 64 bits, as on every box the tests and the benchmark fill, and
    1,562,501 words at n = 10^8, where 40 tuples took 2.8 s and 548 MB.
    Above _MAX_LOWER_SET this raises ValueError naming the estimate and
    the limit.

    Both methods also store a count under every tuple.  Each step up
    raises one of m entries, so a count is at most m^dim, dim = sum(a_l - l)
    of `entries`: dim * ceil(log2 m) bits.  Counted in 64-bit words per
    tuple, above _MAX_COUNT_WORDS this raises ValueError naming the
    tuples, the bits per count, the words and the limit.
    """
    m = len(entries)
    tuples = entries[0] * math.comb(n - 1, m - 1)
    words = (n + entries[0].bit_length()) // 64 + 1
    if tuples * words > _MAX_LOWER_SET:
        raise ValueError(
            f"lower set too large: an estimated {tuples} tuples below {entries} mod {n}, "
            f"times {words} 64-bit words per cell, exceed the limit {_MAX_LOWER_SET}"
        )
    bits = (sum(entries) - m * (m + 1) // 2) * (m - 1).bit_length()
    count_words = tuples * (bits // 64 + 1)
    if count_words > _MAX_COUNT_WORDS:
        raise ValueError(
            f"counts too large: an estimated {tuples} tuples below {entries} mod {n}, "
            f"each holding a count of up to {bits} bits, take {count_words} 64-bit words, "
            f"past the limit {_MAX_COUNT_WORDS}"
        )


def lower_covers(alpha: CompositeIndex) -> list[CompositeIndex]:
    """All indices alpha covers: the single-entry decrements that stay
    strictly increasing, positive and in-window."""
    _require_window(alpha)
    entries, n = alpha.entries, alpha.n
    out = []
    for l, a in enumerate(entries):
        v = a - 1
        if l == 0:
            if v < 1 or entries[-1] - v >= n:
                continue
        elif v <= entries[l - 1]:
            continue
        out.append(CompositeIndex(entries[:l] + (v,) + entries[l + 1 :], n))
    return out
