"""Degrees as the unique solution of a decrement recurrence.

d(alpha) = sum over positions l of d(alpha with entry l decremented), on
strictly increasing positive tuples spanning less than one period, pinned
by d(1, ..., m) = 1 and by zero on the boundary: a repeated entry, a
leading entry at 0, or a span reaching the period.  This module solves
the recurrence by dynamic programming over the box below the queried
tuple, keeping its own bookkeeping (no index types) so that agreement
with the chain count is a real cross-check.

A tuple is its first entry f, its level, and its offset pattern P, one
bit for each entry's offset a - f (bit 0 always set).  `values` is keyed
by cell, f * 2^n + P.  A tuple with pattern P lies below the top t
exactly when f <= cap(P) = min over l of (t_l - o_l), so the box is every
pattern with cap >= 1, each on the levels 1..cap.  The fill lists those
patterns once and then runs up the levels, holding one list per level:
- Decrementing an entry at offset o >= 1 into a free o - 1 stays on the
  level, at the smaller pattern P - 2^(o-1), filled earlier in the level
  because each level runs through its patterns in ascending order.  When
  o - 1 is taken, two entries meet: a boundary zero, never summed.
- Decrementing the first entry moves every offset up one, to the pattern
  (P << 1) - 1 on the level below.  From level 1 it reaches a leading 0,
  and from P >= 2^(n-1) a span of n; both read a slot that stays 0.
Each target is componentwise below the tuple, so when it is in the region
it is in the box.  Both moves are therefore indices into the pattern
list, fixed for the query, and a level reads only itself and the level
below it.
"""

from __future__ import annotations

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

    def _box(self, top: tuple[int, ...]) -> list[tuple[int, int]]:
        # the box below top as (pattern, cap) pairs in ascending pattern
        # order: offset l lies past the previous one, at most top[l] - 1 so
        # that level 1 fits, and leaves room under n for the m - 1 - l after
        # it.  The bottom's pattern 2^m - 1 is the least, and its cap top[0]
        # the greatest.
        m, n = self.m, self.n
        box = [(1, 0, top[0])]  # (pattern, last offset, cap)
        for l in range(1, m):
            reach = min(top[l] - 1, n - m + l)
            box = [
                (pattern | 1 << o, o, min(cap, top[l] - o))
                for pattern, last, cap in box
                for o in range(last + 1, reach + 1)
            ]
        return sorted((pattern, cap) for pattern, _, cap in box)

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
        check_lower_set(t, n)
        key = (t[0] << n) + sum(1 << (a - t[0]) for a in t)
        if key in values:
            return values[key]
        box = self._box(t)
        index = {pattern: j for j, (pattern, _) in enumerate(box)}
        # slot `zero` of every level stays 0.  A first-entry move reads it
        # when it reaches the span-n boundary (its pattern has bit n set, so
        # it is no pattern at all) or when it leaves the box, which happens
        # only from level 1, where it reaches a leading 0 anyway.
        zero = len(box)
        rows = []
        for j, (pattern, cap) in enumerate(box):
            down = index.get((pattern << 1) - 1, zero)
            movable = (pattern & ~(pattern << 1)) ^ 1
            across = []
            while movable:
                bit = movable & -movable
                across.append(index[pattern - (bit >> 1)])
                movable ^= bit
            rows.append((j, pattern, cap, down, across))
        # the bottom's pattern 2^m - 1 leads the box and lives on every
        # level; it has no in-level move, and level 1 pins it to 1
        _, bottom, _, bottom_down, _ = rows.pop(0)
        below = [0] * (zero + 1)
        for f in range(1, t[0] + 1):
            rows = [row for row in rows if row[2] >= f]  # patterns whose cap is below f drop out
            base = f << n
            level = [0] * (zero + 1)
            level[0] = values[base + bottom] = below[bottom_down] if f > 1 else 1
            for j, pattern, _, down, across in rows:
                acc = below[down]
                for k in across:
                    acc += level[k]
                level[j] = values[base + pattern] = acc
            below = level
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
