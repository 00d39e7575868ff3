"""Degrees as counts of saturated chains up from the bottom index.

The degree of the subvariety named by a windowed index alpha equals the
number of maximal chains in the componentwise order below alpha.  Every
cover step decrements a single entry, so the count satisfies a sum over
lower covers; degree_chain evaluates that sum in a single iterative
post-order walk down from alpha (each tuple's decrements are generated
once, the stack holds only the current path, and there is no recursion
depth limit), enumerate_chains lists the chains themselves by a plain
depth-first walk upward from the bottom, and degree_bruteforce counts every
path of that upward walk, sharing no code with degree_chain's walk.

Note the bottom (1, ..., m) is automatically <= any valid index: strictly
increasing positive entries force alpha_l >= l, so there is no reachable
"empty lower set" case; tuples failing validation raise instead.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator

from .indices import CompositeIndex, _decrement_tuples, _OwnTypeEquality, _require_window
from .indices import check_lower_set, dimension

DEFAULT_CHAIN_CAP = 100_000
DEFAULT_BRUTEFORCE_BOUND = 10

MemoTable = dict[tuple[tuple[int, ...], int], int]


def degree_chain(alpha: CompositeIndex, memo: MemoTable | None = None) -> int:
    """Number of saturated chains from (1, ..., m) up to alpha.

    Pass a dict as `memo` to reuse partial counts across calls; keys are
    (entries, n) so one table can serve several periods.  A lower set too
    large to walk is refused up front (indices.check_lower_set).
    """
    _require_window(alpha)
    check_lower_set(alpha.entries, alpha.n)
    if memo is None:
        memo = {}
    n = alpha.n
    key = (alpha.entries, n)
    if key in memo:
        return memo[key]
    bottom = tuple(range(1, alpha.m + 1))

    # one post-order walk: a frame is summed once every decrement has a memo
    # entry; the stack holds only the current path down from alpha
    stack = [(alpha.entries, _decrement_tuples(alpha.entries, n))]
    while stack:
        cur, decs = stack[-1]
        for dec in decs:
            if (dec, n) not in memo:
                if dec == bottom:
                    memo[(dec, n)] = 1
                else:
                    stack.append((dec, _decrement_tuples(dec, n)))
                    break
        else:
            stack.pop()
            memo[(cur, n)] = 1 if cur == bottom else sum(memo[(dec, n)] for dec in decs)
    return memo[key]


class ChainEnumeration(_OwnTypeEquality, namedtuple("ChainEnumeration", "chains total capped")):
    """Chains listed up to a cap, plus the exact total regardless of the cap
    (an immutable named tuple)."""

    __slots__ = ()


def _upward_steps(
    cur: tuple[int, ...], target: tuple[int, ...], n: int
) -> list[tuple[int, ...]]:
    # single-entry increments staying componentwise below target and in-window
    out = []
    m = len(cur)
    for l in range(m):
        v = cur[l] + 1
        if v > target[l]:
            continue
        if l + 1 < m and v >= cur[l + 1]:
            continue
        t = cur[:l] + (v,) + cur[l + 1 :]
        if t[-1] - t[0] >= n:
            continue
        out.append(t)
    out.sort()
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
    steps: each distinct entry tuple becomes one CompositeIndex.
    """
    _require_window(alpha)
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    total = degree_chain(alpha)
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
