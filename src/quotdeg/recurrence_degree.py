"""Degrees as the unique solution of a decrement recurrence.

d(alpha) = sum over positions l of d(alpha with entry l decremented), on
strictly increasing positive tuples spanning less than one period, pinned
by d(1, ..., m) = 1 and by zero on the boundary: a repeated entry, a
leading entry at 0, or a span reaching the period.  This module solves
the recurrence by dynamic programming over the box below the queried
tuple, keeping its own bookkeeping (plain entry tuples, no index types)
so that agreement with the chain count is a real cross-check.

The box is filled in the lexicographic order in which it is generated.
A single-entry decrement is lexicographically smaller than the tuple it
came from, and when it is in the region it is also in the box, so every
value a tuple sums is filled before the tuple is reached.  A decrement
outside the region is on the boundary and reads 0.
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
        self.values: dict[tuple[int, ...], int] = {}
        self._bottom = tuple(range(1, m + 1))

    def _pinned(self, t: tuple[int, ...]) -> int | None:
        # initial value at the bottom, then boundary zeros
        if t == self._bottom:
            return 1
        if any(b <= a for a, b in zip(t, t[1:])):
            return 0
        if t[0] < 1:
            return 0
        if t[-1] - t[0] >= self.n:
            return 0
        return None

    def _box(self, top: tuple[int, ...]) -> list[tuple[int, ...]]:
        # in-region tuples componentwise <= top, i.e. strictly increasing,
        # positive, spanning under one period; degree relies on the output
        # staying in lexicographic order
        m, n = self.m, self.n
        out: list[tuple[int, ...]] = []

        def rec(prefix: tuple[int, ...]) -> None:
            l = len(prefix)
            if l == m:
                out.append(prefix)
                return
            lo = prefix[-1] + 1 if prefix else 1
            hi = top[l]
            if prefix:
                hi = min(hi, prefix[0] + n - 1 - (m - 1 - l))
            for v in range(lo, hi + 1):
                rec(prefix + (v,))

        rec(())
        return out

    def degree(self, entries: tuple[int, ...]) -> int:
        """Recurrence value at `entries`; 0 for any boundary or outside probe.
        A box too large to fill is refused up front (indices.check_lower_set)."""
        t = tuple(int(x) for x in entries)
        if len(t) != self.m:
            raise ValueError(f"expected {self.m} entries, got {t}")
        pinned = self._pinned(t)
        if pinned is not None:
            return pinned
        if t in self.values:
            return self.values[t]
        check_lower_set(t, self.n)
        values, bottom = self.values, self._bottom
        for cur in self._box(t):
            if cur in values:
                continue
            if cur == bottom:
                values[cur] = 1
            else:
                # an in-region decrement lies in the box before cur, so it is
                # filled; any other one is on the boundary and never in values
                acc = 0
                for l, a in enumerate(cur):
                    dec = cur[:l] + (a - 1,) + cur[l + 1 :]
                    acc += values.get(dec, 0)
                values[cur] = acc
        return values[t]


def quot_degree(m: int, p: int, q: int) -> int:
    """Degree of the full order-q space in its ambient projective embedding."""
    if m < 1 or p < 1:
        raise ValueError(f"m and p must be positive, got m={m} p={p}")
    if q < 0:
        raise ValueError(f"q must be nonnegative, got {q}")
    n = m + p
    top = schubert_to_composite(SchubertSymbol(tuple(range(p + 1, n + 1)), q), n)
    return RecurrenceTable(m, n).degree(top.entries)
