"""Degrees as counts of saturated chains up from the bottom index.

The degree of the subvariety named by a windowed index alpha equals the
number of maximal chains in the componentwise order below alpha.  Every
cover step decrements a single entry, so the count satisfies a sum over
lower covers; degree_chain evaluates that sum in a single iterative
post-order walk down from alpha (each visited tuple's covers are
generated once, in the walk's own loop, when the walk first reaches it;
the stack holds only the current path, and there is no recursion depth
limit).  The walk sees a tuple as one int, its cell: the first entry f
above n bits that mark each entry's offset a - f.  Moving an entry at
offset o >= 1 down to a free o - 1 is one subtraction, of 2^(o-1), and
no tuple is built.  The memo is keyed by cell alone, and the same cell
names different tuples under different periods: a memo holds one period.
enumerate_chains lists the chains themselves by a plain depth-first walk
upward from the bottom, which builds each tuple's upward steps once per
listing, and degree_bruteforce counts every path of that upward walk,
sharing no code with degree_chain's walk.

Note the bottom (1, ..., m) is automatically <= any valid index: strictly
increasing positive entries force alpha_l >= l, so there is no reachable
"empty lower set" case; tuples failing validation raise instead.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .indices import CompositeIndex, _OwnTypeEquality, _integer, _require_window
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


def _cell(entries: tuple[int, ...], n: int) -> int:
    # a tuple's cell, the memo key: its first entry above n offset bits
    first = entries[0]
    return (first << n) + sum(1 << (a - first) for a in entries)


def _check_walk(alpha: CompositeIndex) -> None:
    """Refuse with ValueError, before any cell is visited, a lower set too
    large to walk (indices.check_lower_set) or a walk deeper than
    _MAX_DEPTH steps."""
    _require_window(alpha)
    check_lower_set(alpha.entries, alpha.n)
    depth = dimension(alpha)
    if depth > _MAX_DEPTH:
        raise ValueError(
            f"chain walk too deep: {depth} steps down from {alpha.entries} mod {alpha.n} "
            f"exceed the limit {_MAX_DEPTH}"
        )


def degree_chain(alpha: CompositeIndex, memo: MemoTable | None = None) -> int:
    """Number of saturated chains from (1, ..., m) up to alpha.

    Pass a dict as `memo` to reuse partial counts across calls of one
    period n: keys are cells, entries[0] * 2^n + sum(2^(a - entries[0])
    for a in entries), and the same cell names different tuples under
    different periods, so a memo holds one period.  Every cell the walk
    reaches without a memo entry has its lower covers generated once and
    is summed over them; a cell already in the memo is a leaf.  A walk
    that _check_walk refuses raises its ValueError before any cell is
    visited.
    """
    _check_walk(alpha)
    if memo is None:
        memo = {}
    n = alpha.n
    top = _cell(alpha.entries, n)
    if top in memo:
        return memo[top]
    mask = (1 << n) - 1  # a cell's offset bits
    span = 1 << (n - 1)  # the offset bit of a span of n - 1
    second = 2 << n  # the least cell with first entry 2
    drop = (1 << n) + 1  # a first-entry move takes a cell c to c + offsets - drop
    bottom = (1 << n) + (1 << alpha.m) - 1
    value = memo.__getitem__

    # one post-order walk: `cur` is summed once every cover has a memo
    # entry.  On reaching a cell (covers None) the walk lists its lower
    # covers, in lower_covers order: the first entry while it stays >= 1
    # and the span under n (every offset moves up one), then each other
    # entry with a free place below it, at offset o >= 1, moved down by
    # 2^(o-1).  The stack holds the frames of the path down to `cur`, each
    # to resume after the cover it descended into.  A cell with no covers
    # is the bottom, pinned to 1, or, when m = n and nothing can move, a
    # tuple no chain reaches, which counts 0.
    stack = []
    cur, covers = top, None
    while True:
        if covers is None:
            offsets = cur & mask
            covers = [cur + offsets - drop] if cur >= second and offsets < span else []
            movable = (offsets & ~(offsets << 1)) ^ 1
            while movable:
                bit = movable & -movable
                covers.append(cur - (bit >> 1))
                movable ^= bit
            rest = iter(covers)
        for cover in rest:
            if cover not in memo:
                stack.append((cur, covers, rest))
                cur, covers = cover, None
                break
        else:
            memo[cur] = sum(map(value, covers)) if covers else int(cur == bottom)
            if not stack:
                return memo[top]
            cur, covers, rest = stack.pop()


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
    # yields chains bottom -> target as tuples of entry tuples, in lex order;
    # each tuple's upward steps are built once per listing, however many
    # paths reach it
    bottom = tuple(range(1, len(target) + 1))
    if bottom == target:
        yield (bottom,)
        return
    steps: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    path = [bottom]
    stack: list[Iterator[tuple[int, ...]]] = [iter(_upward_steps(bottom, target, n))]
    while stack:
        nxt = next(stack[-1], None)
        if nxt is None:
            stack.pop()
            path.pop()
        elif nxt == target:
            yield (*path, target)
        else:
            up = steps.get(nxt)
            if up is None:
                up = steps[nxt] = _upward_steps(nxt, target, n)
            path.append(nxt)
            stack.append(iter(up))


def enumerate_chains(alpha: CompositeIndex, cap: int = DEFAULT_CHAIN_CAP) -> ChainEnumeration:
    """List the saturated chains below alpha in lexicographic order.

    At most `cap` chains are materialized; `total` is always the exact
    count and `capped` flags a truncated listing.  Chains share their
    steps: each distinct entry tuple becomes one CompositeIndex.  A listing
    of more than _MAX_LISTED_STEPS steps is refused with ValueError once
    the total is known, before any chain is built.
    """
    _require_window(alpha)
    cap = _integer(cap)
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


def degree_bruteforce(alpha: CompositeIndex) -> int:
    """Uncached path count from the bottom, as an oracle for degree_chain.

    Counts the chains of enumerate_chains' upward walk, one increment at a
    time with no memo table, so its cost is the degree itself; refuses
    indices of dimension above DEFAULT_BRUTEFORCE_BOUND.
    """
    _require_window(alpha)
    dim = dimension(alpha)
    if dim > DEFAULT_BRUTEFORCE_BOUND:
        raise ValueError(
            f"dimension {dim} exceeds the brute-force bound {DEFAULT_BRUTEFORCE_BOUND}"
        )
    return sum(1 for _ in _iter_chain_tuples(alpha.entries, alpha.n))
