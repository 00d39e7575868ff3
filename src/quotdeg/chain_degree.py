"""Degrees as counts of saturated chains up from the bottom index.

The degree of the subvariety named by a windowed index alpha equals the
number of maximal chains in the componentwise order below alpha.  Every
cover step decrements a single entry, so the count satisfies a sum over
lower covers; degree_chain evaluates that sum in a single iterative
post-order walk down from alpha (each visited tuple's covers are
generated once, when the walk first reaches it, the stack holds only the
current path, and there is no recursion depth limit).  The walk sees a
tuple as one int, its cell: the first entry f above n bits that mark
each entry's offset a - f.  Moving an entry at offset o >= 1 down to a
free o - 1 is one subtraction, of 2^(o-1), and no tuple is built.  The
memo is keyed by cell alone, and the same cell names different tuples
under different periods: a memo holds one period.  enumerate_chains
lists the chains themselves by a plain depth-first walk upward from the
bottom, and degree_bruteforce counts every path of that upward walk,
sharing no code with degree_chain's walk.

Note the bottom (1, ..., m) is automatically <= any valid index: strictly
increasing positive entries force alpha_l >= l, so there is no reachable
"empty lower set" case; tuples failing validation raise instead.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .indices import CompositeIndex, _OwnTypeEquality, _require_window
from .indices import check_lower_set, dimension

DEFAULT_CHAIN_CAP = 100_000
DEFAULT_BRUTEFORCE_BOUND = 10

# The deepest walk admitted: each step down lowers the dimension by one, so
# the stack holds up to dimension(alpha) frames.  Per process on a 2-vCPU VM,
# (10^6,) mod 2, whose lower set check_lower_set admits, took 5.2 s and
# 370 MB, (200000,) mod 2 1.0 s and 89 MB, and (100000,) mod 2 0.4 s and 52 MB.
_MAX_DEPTH = 10**5

# The most chain steps enumerate_chains lists: min(total, cap) chains of
# dimension + 1 steps each.  On a 2-vCPU VM (Python 3.11), `chains` at the
# limit, (60, 61) mod 4 with cap 16,806, took 1.2-2.3 s and 68-236 MB per
# process over the three formats; the default cap once let (60, 61) list
# 12 * 10^6 steps (5.7 s, 543 MB) and (200, 201) mod 4 40 * 10^6 (31.6 s,
# 4.7 GB).  The benchmark deck lists at most 19,000.
_MAX_LISTED_STEPS = 2 * 10**6

# chain counts by cell, for one period n
MemoTable = dict[int, int]


def _lower_cells(cell: int, n: int) -> list[int]:
    # the lower covers of a cell, in lower_covers order: the first entry
    # while it stays >= 1 and the span under n (every offset moves up one),
    # then each other entry with a free place below it
    offsets = cell & ((1 << n) - 1)
    out = []
    if cell >> n > 1 and offsets < 1 << (n - 1):
        out.append(cell - (1 << n) + offsets - 1)
    movable = (offsets & ~(offsets << 1)) ^ 1
    while movable:
        bit = movable & -movable
        out.append(cell - (bit >> 1))
        movable ^= bit
    return out


def degree_chain(alpha: CompositeIndex, memo: MemoTable | None = None) -> int:
    """Number of saturated chains from (1, ..., m) up to alpha.

    Pass a dict as `memo` to reuse partial counts across calls of one
    period n: keys are cells, entries[0] * 2^n + sum(2^(a - entries[0])
    for a in entries), and the same cell names different tuples under
    different periods, so a memo holds one period.  Every cell the walk
    reaches without a memo entry gets its cover list from _lower_cells
    once, the bottom's empty list included, and is summed over it; a cell
    already in the memo is a leaf.  A lower set too large to walk
    (indices.check_lower_set) or a walk deeper than _MAX_DEPTH steps is
    refused up front with ValueError.
    """
    _require_window(alpha)
    check_lower_set(alpha.entries, alpha.n)
    depth = dimension(alpha)
    if depth > _MAX_DEPTH:
        raise ValueError(
            f"chain walk too deep: {depth} steps down from {alpha.entries} mod {alpha.n} "
            f"exceed the limit {_MAX_DEPTH}"
        )
    if memo is None:
        memo = {}
    n = alpha.n
    first = alpha.entries[0]
    top = (first << n) + sum(1 << (a - first) for a in alpha.entries)
    if top in memo:
        return memo[top]
    bottom = (1 << n) + (1 << alpha.m) - 1

    # one post-order walk: a frame is summed once every cover has a memo
    # entry; the stack holds only the current path down from alpha, and a
    # frame resumes after the cover it last descended into.  The bottom has
    # no covers, so its frame pops at once and is pinned to 1.
    covers = _lower_cells(top, n)
    stack = [(top, covers, iter(covers))]
    while stack:
        cur, covers, rest = stack[-1]
        for cover in rest:
            if cover not in memo:
                below = _lower_cells(cover, n)
                stack.append((cover, below, iter(below)))
                break
        else:
            stack.pop()
            memo[cur] = 1 if cur == bottom else sum(map(memo.__getitem__, covers))
    return memo[top]


class ChainEnumeration(_OwnTypeEquality, namedtuple("ChainEnumeration", "chains total capped")):
    """Chains listed up to a cap, plus the exact total regardless of the cap
    (an immutable named tuple)."""

    __slots__ = ()


def _upward_steps(
    cur: tuple[int, ...], target: tuple[int, ...], n: int
) -> list[tuple[int, ...]]:
    # single-entry increments staying componentwise below target and in-window,
    # in lexicographic order: raising a later entry gives the smaller tuple
    out = []
    m = len(cur)
    for l in range(m - 1, -1, -1):
        v = cur[l] + 1
        if v > target[l]:
            continue
        if l + 1 < m and v >= cur[l + 1]:
            continue
        t = cur[:l] + (v,) + cur[l + 1 :]
        if t[-1] - t[0] >= n:
            continue
        out.append(t)
    return out


def _iter_chain_tuples(target: tuple[int, ...], n: int):
    # yields chains bottom -> target as tuples of entry tuples, in lex order
    bottom = tuple(range(1, len(target) + 1))
    if bottom == target:
        yield (bottom,)
        return
    stack: list[tuple[tuple[int, ...], Iterator[tuple[int, ...]]]] = [
        (bottom, iter(_upward_steps(bottom, target, n)))
    ]
    while stack:
        cur, it = stack[-1]
        nxt = next(it, None)
        if nxt is None:
            stack.pop()
        elif nxt == target:
            yield tuple(frame[0] for frame in stack) + (target,)
        else:
            stack.append((nxt, iter(_upward_steps(nxt, target, n))))


def enumerate_chains(alpha: CompositeIndex, cap: int = DEFAULT_CHAIN_CAP) -> ChainEnumeration:
    """List the saturated chains below alpha in lexicographic order.

    At most `cap` chains are materialized; `total` is always the exact
    count and `capped` flags a truncated listing.  Chains share their
    steps: each distinct entry tuple becomes one CompositeIndex.  A listing
    of more than _MAX_LISTED_STEPS steps is refused with ValueError once
    the total is known, before any chain is built.
    """
    _require_window(alpha)
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    total = degree_chain(alpha)
    listed, length = min(total, cap), dimension(alpha) + 1
    if listed * length > _MAX_LISTED_STEPS:
        raise ValueError(
            f"chain listing too large: {listed} chains of {length} steps each exceed "
            f"the limit {_MAX_LISTED_STEPS} listed steps; lower --cap"
        )
    chains = []
    steps: dict[tuple[int, ...], CompositeIndex] = {}
    for tup in _iter_chain_tuples(alpha.entries, alpha.n):
        if len(chains) >= cap:
            break
        for t in tup:
            if t not in steps:
                steps[t] = CompositeIndex(t, alpha.n)
        chains.append(tuple(map(steps.__getitem__, tup)))
    return ChainEnumeration(tuple(chains), total, total > len(chains))


def degree_bruteforce(alpha: CompositeIndex, max_dim: int = DEFAULT_BRUTEFORCE_BOUND) -> int:
    """Uncached path count from the bottom, as an oracle for degree_chain.

    Counts the chains of enumerate_chains' upward walk, one increment at a
    time with no memo table, so its cost is the degree itself; refuses
    indices of dimension above max_dim.
    """
    _require_window(alpha)
    dim = dimension(alpha)
    if dim > max_dim:
        raise ValueError(f"dimension {dim} exceeds the brute-force bound {max_dim}")
    return sum(1 for _ in _iter_chain_tuples(alpha.entries, alpha.n))
