"""Degrees as the unique solution of a decrement recurrence.

d(alpha) = sum over positions l of d(alpha with entry l decremented), on
strictly increasing positive tuples spanning less than one period, pinned
by d(1, ..., m) = 1 and by zero on the boundary: a repeated entry, a
leading entry at 0, or a span reaching the period.  This module solves
the recurrence by dynamic programming over the box below the queried
tuple, keeping its own bookkeeping (no index types) so that agreement
with the chain count is a real cross-check.

`values` is keyed by cell: the first entry f above n bits that mark each
entry's offset a - f.  Decrementing an entry at offset o >= 1 is one
subtraction, of 2^(o-1), when o - 1 is free; otherwise two entries meet,
a boundary zero the fill skips.  Decrementing the first entry moves every
offset up, cell - 2^n + offsets - 1.  The box is filled in the
lexicographic order of its tuples.  A single-entry decrement is
lexicographically smaller than the tuple it came from, and when it is in
the region it is also in the box, so every value a cell sums is filled
before the cell is reached.  Of the decrements the fill reads, only the
first entry's can leave the region, to 0 or to a span of n (which drops
an offset bit); neither is ever a key of `values`, so it reads 0 with no
test.
"""

from __future__ import annotations

from collections.abc import Iterator

from .indices import SchubertSymbol, check_lower_set, schubert_to_composite


class RecurrenceTable:
    """Lazily filled table of recurrence values for fixed m and period n.

    A table may be reused across queries; values accumulate.
    """

    def __init__(self, m: int, n: int) -> None:
        if m < 1:
            raise ValueError(f"m must be positive, got {m}")
        if n < 2:
            raise ValueError(f"period must be at least 2, got {n}")
        self.m = m
        self.n = n
        self.values: dict[int, int] = {}
        self._bottom = tuple(range(1, m + 1))

    def _pinned(self, t: tuple[int, ...]) -> int | None:
        # a query probe's initial value at the bottom, then boundary zeros
        if t == self._bottom:
            return 1
        if any(b <= a for a, b in zip(t, t[1:])):
            return 0
        if t[0] < 1:
            return 0
        if t[-1] - t[0] >= self.n:
            return 0
        return None

    def _box(self, top: tuple[int, ...]) -> Iterator[int]:
        # cells of the in-region tuples componentwise <= top, i.e. strictly
        # increasing, positive, spanning under one period, in lexicographic
        # order (degree relies on it): extending each prefix in turn keeps
        # it.  Entry l lies past the previous one, at most top[l], and leaves
        # room for the m - 1 - l after it under first + n.  The prefixes are
        # (cell, last, first) lists; the last entry's cells are generated,
        # never stored.
        m, n = self.m, self.n
        if m == 1:
            return ((v << n) + 1 for v in range(1, top[0] + 1))
        prefixes = [((v << n) + 1, v, v) for v in range(1, top[0] + 1)]
        for l in range(1, m - 1):
            room = n - m + l
            prefixes = [
                (cell + (1 << (v - first)), v, first)
                for cell, last, first in prefixes
                for v in range(last + 1, min(top[l], first + room) + 1)
            ]
        return (
            cell + (1 << (v - first))
            for cell, last, first in prefixes
            for v in range(last + 1, min(top[-1], first + n - 1) + 1)
        )

    def degree(self, entries: tuple[int, ...]) -> int:
        """Recurrence value at `entries`; 0 for any boundary or outside probe.
        A box too large to fill is refused up front (indices.check_lower_set)."""
        t = tuple(int(x) for x in entries)
        if len(t) != self.m:
            raise ValueError(f"expected {self.m} entries, got {t}")
        pinned = self._pinned(t)
        if pinned is not None:
            return pinned
        n, values = self.n, self.values
        key = (t[0] << n) + sum(1 << (a - t[0]) for a in t)
        if key in values:
            return values[key]
        check_lower_set(t, n)
        # the bottom leads every box; its only decrement leaves the region
        unit = 1 << n
        values.setdefault(unit + (1 << self.m) - 1, 1)
        for cur in self._box(t):
            if cur in values:
                continue
            offsets = cur & (unit - 1)
            acc = values.get(cur - unit + offsets - 1, 0)
            movable = (offsets & ~(offsets << 1)) ^ 1
            while movable:
                bit = movable & -movable
                acc += values.get(cur - (bit >> 1), 0)
                movable ^= bit
            values[cur] = acc
        return values[key]


def quot_degree(m: int, p: int, q: int) -> int:
    """Degree of the full order-q space in its ambient projective embedding."""
    if m < 1 or p < 1:
        raise ValueError(f"m and p must be positive, got m={m} p={p}")
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    n = m + p
    top = schubert_to_composite(SchubertSymbol(tuple(range(p + 1, n + 1)), q), n)
    return RecurrenceTable(m, n).degree(top.entries)
