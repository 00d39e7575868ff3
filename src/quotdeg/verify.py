"""Cross-method and identity sweeps behind the verify command.

Each suite exhaustively checks one contract over a bounded grid, which its
docstring states.  It is written as a generator that yields once per case,
None for a pass or else the failure message, and _suite tallies the yields
into its SuiteResult.  Results are plain data with deterministic ordering
so the CLI can emit byte-identical reports for identical inputs.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from collections.abc import Iterator

from .chain_degree import MemoTable, _cell, degree_bruteforce, degree_chain
from .indices import (
    CompositeIndex,
    SchubertSymbol,
    _OwnTypeEquality,
    _integer,
    bottom_index,
    composite_to_schubert,
    covers,
    dimension,
    leq_componentwise,
    leq_sequence,
    lower_covers,
    schubert_to_composite,
    symbol_dimension,
)
from .recurrence_degree import RecurrenceTable
from .vafa import (
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCE,
    ToleranceError,
    check_precision,
    check_tolerance,
    lg_roots,  # unused here; kept as the name perfbench's tracer patches on this module
    powersum_determinant,
    vi_degree,
)


class SuiteResult(_OwnTypeEquality, namedtuple("SuiteResult", "name cases failures")):
    """One suite's case count and failure messages, built once the suite has
    run.  An immutable named tuple."""

    __slots__ = ()


class VerifyReport(_OwnTypeEquality, namedtuple("VerifyReport", "suites")):
    """The suites' results in run order; the bounds and settings that
    produced them stay with the caller.  An immutable named tuple."""

    __slots__ = ()

    @property
    def total_cases(self) -> int:
        return sum(s.cases for s in self.suites)

    @property
    def total_failures(self) -> int:
        return sum(len(s.failures) for s in self.suites)

    @property
    def ok(self) -> bool:
        return self.total_failures == 0


def _suite(name: str):
    """Make a generator that yields once per case, None for a pass or else
    the failure message, into a suite function returning its SuiteResult."""

    def decorate(checks):
        @functools.wraps(checks)
        def suite(*args, **kwargs) -> SuiteResult:
            cases, failures = 0, []
            for cases, failure in enumerate(checks(*args, **kwargs), start=1):
                if failure is not None:
                    failures.append(failure)
            return SuiteResult(name, cases, failures)
        return suite
    return decorate


def _spaces(max_n: int) -> Iterator[tuple[int, int]]:
    """Each (n, m) with 2 <= n <= max_n and 1 <= m < n, in that order."""
    return ((n, m) for n in range(2, max_n + 1) for m in range(1, n))


def _column_sets(m: int, p: int, max_dim: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each column set of base dimension b <= max_dim, with its shift count
    (max_dim - b) // n + 1: its symbols take d = 0 up to (max_dim - b) // n."""
    n = m + p
    for cols in itertools.combinations(range(1, n + 1), m):
        base = sum(c - l for l, c in enumerate(cols, start=1))
        if base <= max_dim:
            yield cols, (max_dim - base) // n + 1


def valid_symbols(m: int, p: int, max_dim: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """All (columns, d) naming a subvariety with dimension <= max_dim."""
    column_sets = _column_sets(_integer(m), _integer(p), _integer(max_dim))
    return ((cols, d) for cols, shifts in column_sets for d in range(shifts))


# The most symbols admitted, summed over every (m, n) with n <= max_n: the
# roundtrip and cross_method suites run one case per symbol and pieri one
# per index but each space's bottom.  1,643 at max_n = 8, max_dim = 24; the limit
# admits max_dim up to 28 there, 87 at max_n = 6 and 1,999 at max_n = 2,
# where a verify process took 0.8-1.4 s on a 2-vCPU VM (Python 3.11).  It
# refuses max_n = 3, max_dim = 2000 (6,003 symbols, 1.6-2.6 s), and so every
# larger max_dim, which once ran unbounded.
_MAX_SYMBOLS = 2000


def windowed_indices(n: int, m: int, max_dim: int) -> list[tuple[int, ...]]:
    """All windowed index tuples of length m mod n with dimension <= max_dim,
    in lexicographic order, read off the symbol sweep of valid_symbols."""
    n = _integer(n)
    return sorted(
        schubert_to_composite(SchubertSymbol(cols, d), n).entries
        for cols, d in valid_symbols(m, n - m, max_dim)
    )


@_suite("base_case")
def base_case_suite(max_mp: int, precision: int, tolerance: float):
    """Bottom index has degree 1 in every space with 1 <= m, p <= max_mp, by
    all three methods.  run_verify passes min(max_n - 1, 4), so the periods
    m + p run up to 8, past max_n."""
    for m, p in itertools.product(range(1, max_mp + 1), repeat=2):
        n = m + p
        bot = bottom_index(m, n)
        ch = degree_chain(bot)
        rec = RecurrenceTable(m, n).degree(bot.entries)
        try:
            vi = vi_degree(
                tuple(range(1, m + 1)), 0, m, p, precision=precision, tolerance=tolerance
            ).value
        except ToleranceError as exc:
            yield f"m={m} p={p} bottom vi failed: {exc}"
            continue
        yield None if ch == rec == vi == 1 else (
            f"m={m} p={p} bottom degrees chain={ch} recurrence={rec} vi={vi}"
        )


@_suite("roundtrip")
def roundtrip_suite(max_n: int, max_dim: int):
    """Symbol <-> index conversions invert each other and match dimensions,
    on every symbol with n <= max_n and dimension <= max_dim."""
    for n, m in _spaces(max_n):
        for cols, d in valid_symbols(m, n - m, max_dim):
            s = SchubertSymbol(cols, d)
            alpha = schubert_to_composite(s, n)
            back = composite_to_schubert(alpha)
            if back != s:
                yield f"n={n} {s} -> {alpha} -> {back}"
                continue
            got, want = dimension(alpha), symbol_dimension(s, n)
            yield None if got == want else f"n={n} {s}: dimension {got} != {want}"


@_suite("cross_method")
def cross_method_suite(
    max_n: int, max_dim: int, precision: int, tolerance: float, memos: dict[int, MemoTable]
):
    """chain = recurrence = fixed-point sum on every symbol with n <= max_n
    and dimension <= max_dim; `memos` holds one chain memo per period n."""
    for n, m in _spaces(max_n):
        memo, table = memos.setdefault(n, {}), RecurrenceTable(m, n)
        for cols, d in valid_symbols(m, n - m, max_dim):
            alpha = schubert_to_composite(SchubertSymbol(cols, d), n)
            ch = degree_chain(alpha, memo)
            rec = table.degree(alpha.entries)
            try:
                vi = vi_degree(cols, d, m, n - m, precision=precision, tolerance=tolerance).value
            except ToleranceError as exc:
                yield f"n={n} i={cols} d={d}: vi failed: {exc}"
                continue
            yield None if ch == rec == vi else (
                f"n={n} i={cols} d={d}: chain={ch} recurrence={rec} vi={vi}"
            )


@_suite("pieri")
def pieri_suite(max_n: int, max_dim: int, memos: dict[int, MemoTable]):
    """degree(alpha) equals the sum of degrees over its lower covers, on
    every windowed index with n <= max_n and dimension <= max_dim but each
    space's bottom."""
    for n, m in _spaces(max_n):
        memo = memos.setdefault(n, {})
        # all but the first, the bottom (1, ..., m), which covers nothing
        for entries in windowed_indices(n, m, max_dim)[1:]:
            alpha = CompositeIndex(entries, n)
            total = sum(degree_chain(b, memo) for b in lower_covers(alpha))
            got = degree_chain(alpha, memo)
            yield None if got == total else (
                f"n={n} alpha={entries}: degree {got} != cover sum {total}"
            )


@_suite("chain_oracle")
def chain_oracle_suite(max_n: int, max_dim: int, memos: dict[int, MemoTable]):
    """Memoized post-order walk agrees with the uncached upward walk behind
    enumerate_chains, on every windowed index with n <= min(max_n, 5) and
    dimension <= min(max_dim, 8)."""
    for n, m in _spaces(min(max_n, 5)):
        memo = memos.setdefault(n, {})
        for entries in windowed_indices(n, m, min(max_dim, 8)):
            alpha = CompositeIndex(entries, n)
            fast = degree_chain(alpha, memo)
            slow = degree_bruteforce(alpha)
            yield None if fast == slow else f"n={n} alpha={entries}: worklist {fast} != walk {slow}"


def _order_pool(n: int, m: int) -> list[tuple[int, ...]]:
    """The windowed indices with entries <= 3n, in lexicographic order; each
    has dimension below 3nm, so windowed_indices lists them all."""
    return [e for e in windowed_indices(n, m, 3 * n * m) if e[-1] <= 3 * n]


@_suite("order_agreement")
def order_agreement_suite(max_n: int):
    """Merged-progression order restricted to the window is the componentwise
    order: checked on all pairs of _order_pool indices, in lexicographic
    order, for n <= max_n.  The pool holds entries <= 3n, whatever the
    dimension bound of the other suites."""
    for n, m in _spaces(max_n):
        pool = [CompositeIndex(entries, n) for entries in _order_pool(n, m)]
        for a, b in itertools.product(pool, repeat=2):
            seq = leq_sequence(a, b)
            comp = leq_componentwise(a.entries, b.entries)
            yield None if seq == comp else (
                f"n={n} {a.entries} vs {b.entries}: sequence={seq} componentwise={comp}"
            )


# The most order_agreement pairs admitted: 1,389,400 at max_n = 8, where the
# suite took 2.3-3.2 s (median 2.6 s over 12 fresh processes) in process on
# a 2-vCPU Xeon VM (Python 3.11).  The count grows about 5x per period, to
# 6,482,698 at max_n = 9.
_MAX_ORDER_PAIRS = 2 * 10**6


@_suite("powersum_identity")
def powersum_suite(max_mp: int):
    """Exact determinant identity: 1 on the full rectangle, 0 on every other
    partition of the same weight (each such mu has mu_m < p), for every
    1 <= m, p <= max_mp.  run_verify passes min(max_n - 2, 3), or 1 at
    max_n = 2."""
    for m, p in itertools.product(range(1, max_mp + 1), repeat=2):
        for mu in itertools.combinations_with_replacement(range(m * p, -1, -1), m):
            if sum(mu) == m * p:
                val = powersum_determinant(mu, m, m + p)
                want = 1 if mu == (p,) * m else 0  # the full rectangle
                yield None if val == want else f"m={m} p={p} mu={mu}: {val} != {want}"


@_suite("cover_soundness")
def cover_soundness_suite(max_n: int):
    """covers() matches the order-theoretic definition on every pair b < a
    of windowed indices with n <= min(max_n, 5) and dimension <= 6, whatever
    the dimension bound of the other suites."""
    for n, m in _spaces(min(max_n, 5)):
        pool = [CompositeIndex(entries, n) for entries in windowed_indices(n, m, 6)]
        for a in pool:
            below = [b for b in pool if b != a and leq_componentwise(b.entries, a.entries)]
            for b in below:
                want = not any(  # no index strictly between b and a
                    leq_componentwise(b.entries, c.entries)
                    and leq_componentwise(c.entries, a.entries)
                    for c in below
                    if c != b
                )
                got = covers(a, b)
                yield None if got == want else (
                    f"n={n} {a.entries} covers {b.entries}: got {got}, order says {want}"
                )


def run_verify(
    max_n: int = 5,
    max_dim: int = 14,
    precision: int = DEFAULT_PRECISION,
    tolerance: float = DEFAULT_TOLERANCE,
    inject_fault: bool = False,
) -> VerifyReport:
    """Run every suite, each on the grid its docstring states from max_n and
    max_dim, and return the suites' results only.

    Raises ValueError, before any suite runs, when max_n or max_dim is not
    an integer, when max_n < 2 or max_dim < 0,
    when precision is outside vafa.check_precision's range or tolerance
    outside vafa.check_tolerance's, when order_agreement_suite would check
    more than _MAX_ORDER_PAIRS pairs (max_n >= 9), or when the symbol
    sweeps would run more than _MAX_SYMBOLS symbols.
    With inject_fault, one chain memo entry is poisoned so a healthy
    detector must report at least one failure.
    """
    max_n, max_dim = _integer(max_n), _integer(max_dim)
    if max_n < 2:
        raise ValueError(f"max_n must be at least 2, got {max_n}")
    if max_dim < 0:
        raise ValueError(f"max_dim must be nonnegative, got {max_dim}")
    check_precision(precision)
    check_tolerance(tolerance)
    pairs = 0
    for n in range(2, max_n + 1):  # ends by n = 9 however large max_n is
        pairs += sum(len(_order_pool(n, m)) ** 2 for m in range(1, n))
        if pairs > _MAX_ORDER_PAIRS:
            raise ValueError(
                f"max_n={max_n} is too large: the order-agreement sweep would check "
                f"{pairs} pairs for n <= {n} alone, over the limit {_MAX_ORDER_PAIRS}"
            )
    symbols = sum(
        shifts for n, m in _spaces(max_n) for _, shifts in _column_sets(m, n - m, max_dim)
    )
    if symbols > _MAX_SYMBOLS:
        raise ValueError(
            f"max_dim={max_dim} is too large: the symbol sweeps would run {symbols} symbols "
            f"for n <= {max_n}, over the limit {_MAX_SYMBOLS}"
        )
    memos: dict[int, MemoTable] = {}  # one chain memo per period, shared by three suites
    if inject_fault:
        # the smallest nontrivial index, (2,) mod 2, whose true chain count is 1
        memos[2] = {_cell((2,), 2): 2}
    return VerifyReport([
        base_case_suite(min(max_n - 1, 4), precision, tolerance),
        roundtrip_suite(max_n, max_dim),
        cross_method_suite(max_n, max_dim, precision, tolerance, memos),
        pieri_suite(max_n, max_dim, memos),
        chain_oracle_suite(max_n, max_dim, memos),
        cover_soundness_suite(max_n),
        order_agreement_suite(max_n),
        powersum_suite(min(max_n - 2, 3) if max_n >= 3 else 1),
    ])
