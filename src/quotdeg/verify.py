"""Cross-method and identity sweeps behind the verify command.

Each suite exhaustively checks one contract over a bounded range and
reports (cases, failures).  Results are plain data with deterministic
ordering so the CLI can emit byte-identical reports for identical inputs.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator

from .chain_degree import MemoTable, degree_bruteforce, degree_chain
from .indices import (
    CompositeIndex,
    SchubertSymbol,
    _OwnTypeEquality,
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
    for cols, shifts in _column_sets(m, p, max_dim):
        for d in range(shifts):
            yield cols, d


# The most symbols admitted, summed over every (m, n) with n <= max_n: the
# roundtrip and cross_method suites run one case per symbol and pieri one
# per index of the same count.  1,643 at max_n = 8, max_dim = 24; the limit
# admits max_dim up to 28 there, 87 at max_n = 6 and 1,999 at max_n = 2,
# where a verify process took 0.8-1.4 s on a 2-vCPU VM (Python 3.11).  It
# refuses max_n = 3, max_dim = 2000 (6,003 symbols, 1.6-2.6 s), and so every
# larger max_dim, which once ran unbounded.
_MAX_SYMBOLS = 2000


def windowed_indices(n: int, m: int, max_dim: int) -> list[tuple[int, ...]]:
    """All windowed index tuples of length m mod n with dimension <= max_dim,
    in lexicographic order, read off the symbol sweep of valid_symbols."""
    return sorted(
        schubert_to_composite(SchubertSymbol(cols, d), n).entries
        for cols, d in valid_symbols(m, n - m, max_dim)
    )


def base_case_suite(max_mp: int, precision: int, tolerance: float) -> SuiteResult:
    """Bottom index has degree 1 in every space, all three methods."""
    cases, failures = 0, []
    for m in range(1, max_mp + 1):
        for p in range(1, max_mp + 1):
            n = m + p
            cases += 1
            bot = bottom_index(m, n)
            ch = degree_chain(bot)
            rec = RecurrenceTable(m, n).degree(bot.entries)
            try:
                vi = vi_degree(
                    tuple(range(1, m + 1)), 0, m, p, precision=precision, tolerance=tolerance
                ).value
            except ToleranceError as exc:
                failures.append(f"m={m} p={p} bottom vi failed: {exc}")
                continue
            if not ch == rec == vi == 1:
                failures.append(f"m={m} p={p} bottom degrees chain={ch} recurrence={rec} vi={vi}")
    return SuiteResult("base_case", cases, failures)


def roundtrip_suite(max_n: int, max_dim: int) -> SuiteResult:
    """Symbol <-> index conversions invert each other and match dimensions."""
    cases, failures = 0, []
    for n in range(2, max_n + 1):
        for m in range(1, n):
            p = n - m
            for cols, d in valid_symbols(m, p, max_dim):
                cases += 1
                s = SchubertSymbol(cols, d)
                alpha = schubert_to_composite(s, n)
                back = composite_to_schubert(alpha)
                if back != s:
                    failures.append(f"n={n} {s} -> {alpha} -> {back}")
                    continue
                if dimension(alpha) != symbol_dimension(s, n):
                    failures.append(
                        f"n={n} {s}: dimension {dimension(alpha)} != "
                        f"{symbol_dimension(s, n)}"
                    )
    return SuiteResult("roundtrip", cases, failures)


def cross_method_suite(
    max_n: int, max_dim: int, precision: int, tolerance: float, memos: dict[int, MemoTable]
) -> SuiteResult:
    """chain = recurrence = fixed-point sum on every subvariety in range;
    `memos` holds one chain memo per period n."""
    cases, failures = 0, []
    for n in range(2, max_n + 1):
        memo = memos.setdefault(n, {})
        for m in range(1, n):
            p = n - m
            table = RecurrenceTable(m, n)
            for cols, d in valid_symbols(m, p, max_dim):
                cases += 1
                alpha = schubert_to_composite(SchubertSymbol(cols, d), n)
                ch = degree_chain(alpha, memo)
                rec = table.degree(alpha.entries)
                try:
                    vi = vi_degree(cols, d, m, p, precision=precision, tolerance=tolerance).value
                except ToleranceError as exc:
                    failures.append(f"n={n} i={cols} d={d}: vi failed: {exc}")
                    continue
                if not ch == rec == vi:
                    failures.append(f"n={n} i={cols} d={d}: chain={ch} recurrence={rec} vi={vi}")
    return SuiteResult("cross_method", cases, failures)


def pieri_suite(max_n: int, max_dim: int, memos: dict[int, MemoTable]) -> SuiteResult:
    """degree(alpha) equals the sum of degrees over its lower covers."""
    cases, failures = 0, []
    for n in range(2, max_n + 1):
        memo = memos.setdefault(n, {})
        for m in range(1, n):
            bottom = bottom_index(m, n)
            for entries in windowed_indices(n, m, max_dim):
                alpha = CompositeIndex(entries, n)
                if alpha == bottom:
                    continue
                cases += 1
                total = sum(degree_chain(b, memo) for b in lower_covers(alpha))
                got = degree_chain(alpha, memo)
                if got != total:
                    failures.append(f"n={n} alpha={entries}: degree {got} != cover sum {total}")
    return SuiteResult("pieri", cases, failures)


def chain_oracle_suite(max_n: int, max_dim: int, memos: dict[int, MemoTable]) -> SuiteResult:
    """Memoized post-order walk agrees with the uncached upward walk behind
    enumerate_chains (small range)."""
    cases, failures = 0, []
    for n in range(2, min(max_n, 5) + 1):
        memo = memos.setdefault(n, {})
        for m in range(1, n):
            for entries in windowed_indices(n, m, min(max_dim, 8)):
                alpha = CompositeIndex(entries, n)
                cases += 1
                fast = degree_chain(alpha, memo)
                slow = degree_bruteforce(alpha)
                if fast != slow:
                    failures.append(f"n={n} alpha={entries}: worklist {fast} != walk {slow}")
    return SuiteResult("chain_oracle", cases, failures)


def _order_pool(n: int, m: int) -> list[tuple[int, ...]]:
    """The windowed indices with entries <= 3n, in lexicographic order; each
    has dimension below 3nm, so windowed_indices lists them all."""
    return [e for e in windowed_indices(n, m, 3 * n * m) if e[-1] <= 3 * n]


def order_agreement_suite(max_n: int) -> SuiteResult:
    """Merged-progression order restricted to the window is the componentwise
    order: checked on all pairs of _order_pool indices, in lexicographic
    order."""
    cases, failures = 0, []
    for n in range(2, max_n + 1):
        for m in range(1, n):
            pool = [CompositeIndex(entries, n) for entries in _order_pool(n, m)]
            for a in pool:
                for b in pool:
                    cases += 1
                    seq = leq_sequence(a, b)
                    comp = leq_componentwise(a.entries, b.entries)
                    if seq != comp:
                        failures.append(
                            f"n={n} {a.entries} vs {b.entries}: "
                            f"sequence={seq} componentwise={comp}"
                        )
    return SuiteResult("order_agreement", cases, failures)


# The most order_agreement pairs admitted: 1,389,400 at max_n = 8, about 16 s
# on a 2-vCPU VM (Python 3.11).  The count grows about 5x per period, to
# 6,482,698 at max_n = 9.
_MAX_ORDER_PAIRS = 2 * 10**6


def powersum_suite(max_mp: int) -> SuiteResult:
    """Exact determinant identity: 1 on the full rectangle, 0 on every other
    partition of the same weight (each such mu has mu_m < p)."""
    cases, failures = 0, []
    for m in range(1, max_mp + 1):
        for p in range(1, max_mp + 1):
            n = m + p
            rect = (p,) * m
            for mu in itertools.combinations_with_replacement(range(m * p, -1, -1), m):
                if sum(mu) != m * p:
                    continue
                cases += 1
                val = powersum_determinant(mu, m, n)
                want = 1 if mu == rect else 0
                if val != want:
                    failures.append(f"m={m} p={p} mu={mu}: {val} != {want}")
    return SuiteResult("powersum_identity", cases, failures)


def cover_soundness_suite(max_n: int) -> SuiteResult:
    """covers() matches the order-theoretic definition on every windowed
    index with n <= 5 and dimension <= 6."""
    cases, failures = 0, []
    for n in range(2, min(max_n, 5) + 1):
        for m in range(1, n):
            pool = [CompositeIndex(entries, n) for entries in windowed_indices(n, m, 6)]
            for a in pool:
                below = [b for b in pool if b != a and leq_componentwise(b.entries, a.entries)]
                for b in below:
                    cases += 1
                    strict_between = any(
                        leq_componentwise(b.entries, c.entries)
                        and leq_componentwise(c.entries, a.entries)
                        for c in below
                        if c != b
                    )
                    want = not strict_between
                    got = covers(a, b)
                    if got != want:
                        failures.append(
                            f"n={n} {a.entries} covers {b.entries}: "
                            f"got {got}, order says {want}"
                        )
    return SuiteResult("cover_soundness", cases, failures)


def run_verify(
    max_n: int = 5,
    max_dim: int = 14,
    precision: int = DEFAULT_PRECISION,
    tolerance: float = DEFAULT_TOLERANCE,
    inject_fault: bool = False,
) -> VerifyReport:
    """Run every suite up to period max_n and dimension max_dim (some suites
    cap both lower) and return the suites' results only.

    Raises ValueError, before any suite runs, when max_n < 2 or max_dim < 0,
    when precision is outside vafa.check_precision's range or tolerance
    outside vafa.check_tolerance's, when order_agreement_suite would check
    more than _MAX_ORDER_PAIRS pairs (max_n >= 9), or when the symbol
    sweeps would run more than _MAX_SYMBOLS symbols.
    With inject_fault, one chain memo entry is poisoned so a healthy
    detector must report at least one failure.
    """
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
        shifts
        for n in range(2, max_n + 1)
        for m in range(1, n)
        for _, shifts in _column_sets(m, n - m, max_dim)
    )
    if symbols > _MAX_SYMBOLS:
        raise ValueError(
            f"max_dim={max_dim} is too large: the symbol sweeps would run {symbols} symbols "
            f"for n <= {max_n}, over the limit {_MAX_SYMBOLS}"
        )
    memos: dict[int, MemoTable] = {}  # one chain memo per period, shared by three suites
    if inject_fault:
        # the smallest nontrivial index, (2,) mod 2 as its chain-walk cell
        # 2 * 2^2 + 2^0: its true chain count is 1
        memos[2] = {(2 << 2) + 1: 2}
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
