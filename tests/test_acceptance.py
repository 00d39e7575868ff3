"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every check is exact integer agreement except where a floating
tolerance is stated on the line itself.
"""

import itertools
import json
import time

from quotdeg.chain_degree import degree_bruteforce, degree_chain
from quotdeg.cli import main
from quotdeg.indices import (
    SchubertSymbol,
    bottom_index,
    leq_componentwise,
    leq_sequence,
    schubert_to_composite,
    validate_index,
)
from quotdeg.recurrence_degree import RecurrenceTable, quot_degree
from quotdeg.vafa import (
    CorrelatorSpec,
    powersum_determinant,
    vi_correlator,
    vi_degree,
)
from quotdeg.verify import valid_symbols, windowed_indices

from oracles import rectangle_syt_count, top_degree


def _report(cid, claim, ok, detail):
    line = f"[{cid}] {claim}: {detail} ... {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, line


def test_c01_bottom_index_is_a_point():
    start = time.perf_counter()
    failures = []
    cases = 0
    for m in range(1, 5):
        for p in range(1, 5):
            n = m + p
            alpha = bottom_index(m, n)
            got = (
                degree_chain(alpha),
                RecurrenceTable(m, n).degree(alpha.entries),
                vi_degree(tuple(range(1, m + 1)), 0, m, p).value,
            )
            cases += 1
            if got != (1, 1, 1):
                failures.append((m, p, got))
    elapsed = time.perf_counter() - start
    _report(
        "C01",
        "degree at the bottom index is 1 by all three methods (m,p <= 4)",
        not failures and elapsed < 1.0,
        f"{cases} cases, {elapsed:.2f}s",
    )


def test_c02_classical_degrees_match_tableau_counts():
    start = time.perf_counter()
    failures = []
    for m in range(1, 5):
        for p in range(1, 5):
            if quot_degree(m, p, 0) != rectangle_syt_count(m, p):
                failures.append((m, p))
            for q in range(5):
                if quot_degree(m, p, q) != top_degree(m, p, q):
                    failures.append((m, p, q))
    frozen = (
        quot_degree(2, 2, 0) == 2
        and quot_degree(2, 3, 0) == 5
        and quot_degree(3, 3, 0) == 42
    )
    elapsed = time.perf_counter() - start
    _report(
        "C02",
        "order-0 degree equals the hook-length tableau count, and every order "
        "q <= 4 the closed form (m,p <= 4)",
        not failures and frozen and elapsed < 1.0,
        f"16 + 80 cases incl. 2/5/42, {elapsed:.2f}s",
    )


def test_c03_three_methods_agree():
    start = time.perf_counter()
    failures = []
    cases = 0
    worst = 0.0
    for n in range(2, 7):
        memo = {}  # a chain memo holds one period
        for m in range(1, n):
            p = n - m
            table = RecurrenceTable(m, n)
            for cols, d in valid_symbols(m, p, 18):
                alpha = schubert_to_composite(SchubertSymbol(cols, d), n)
                ch = degree_chain(alpha, memo)
                rec = table.degree(alpha.entries)
                vi = vi_degree(cols, d, m, p)
                worst = max(worst, vi.residual, vi.imag)
                cases += 1
                if not (ch == rec == vi.value):
                    failures.append((cols, d, m, p, ch, rec, vi.value))
    elapsed = time.perf_counter() - start
    _report(
        "C03",
        "chain, recurrence, and fixed-point degrees agree (n <= 6, dim <= 18)",
        not failures and worst < 1e-6 and elapsed < 60.0,
        f"{cases} cases, max residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_c04_degree_sums_over_lower_covers():
    from quotdeg.indices import lower_covers

    start = time.perf_counter()
    failures = []
    cases = 0
    for n in range(2, 7):
        memo = {}  # a chain memo holds one period
        for m in range(1, n):
            for entries in windowed_indices(n, m, 20):
                alpha = validate_index(entries, n)
                if entries == tuple(range(1, m + 1)):
                    continue
                cases += 1
                total = sum(degree_chain(b, memo) for b in lower_covers(alpha))
                if degree_chain(alpha, memo) != total:
                    failures.append(alpha)
    elapsed = time.perf_counter() - start
    _report(
        "C04",
        "degree equals the sum over lower covers (n <= 6, dim <= 20)",
        not failures and elapsed < 30.0,
        f"{cases} cases, {elapsed:.2f}s",
    )


def test_c05_chain_count_matches_uncached_enumeration():
    start = time.perf_counter()
    failures = []
    cases = 0
    for n in range(2, 6):
        memo = {}  # a chain memo holds one period
        for m in range(1, n):
            for entries in windowed_indices(n, m, 8):
                alpha = validate_index(entries, n)
                cases += 1
                if degree_bruteforce(alpha, max_dim=8) != degree_chain(alpha, memo):
                    failures.append(alpha)
    elapsed = time.perf_counter() - start
    _report(
        "C05",
        "memoized chain count matches uncached DFS (n <= 5, dim <= 8)",
        not failures and elapsed < 30.0,
        f"{cases} cases, {elapsed:.2f}s",
    )


def test_c06_first_quantum_degree():
    start = time.perf_counter()
    deg = quot_degree(2, 2, 1)
    cor = vi_correlator(CorrelatorSpec.from_powers((8, 0), 2, 2)).value
    elapsed = time.perf_counter() - start
    _report(
        "C06",
        "order-1 degree for m=p=2 is 8, matching the eighth hyperplane power",
        deg == 8 and cor == 8 and elapsed < 1.0,
        f"degree {deg}, correlator {cor}, {elapsed:.2f}s",
    )


def test_c07_rank_one_degrees_pin_the_sign():
    start = time.perf_counter()
    failures = []
    for p in range(1, 5):
        for q in range(0, 5):
            rec = quot_degree(1, p, q)
            vi = vi_degree((p + 1,), q, 1, p).value
            if not rec == vi == 1:
                failures.append((p, q, rec, vi))
    elapsed = time.perf_counter() - start
    _report(
        "C07",
        "rank-one spaces have degree 1 by both methods (p,q <= 4)",
        not failures and elapsed < 1.0,
        f"20 cases, {elapsed:.2f}s",
    )


def _partitions(weight, max_parts, max_size):
    if max_parts == 0:
        if weight == 0:
            yield ()
        return
    for first in range(min(weight, max_size), -1, -1):
        if first == 0:
            if weight == 0:
                yield (0,) * max_parts
            return
        for rest in _partitions(weight - first, max_parts - 1, first):
            yield (first,) + rest


def test_c08_power_sum_determinant_selects_the_rectangle():
    start = time.perf_counter()
    failures = []
    cases = 0
    for m in range(1, 4):
        for p in range(1, 4):
            n = m + p
            for mu in _partitions(m * p, m, m * p):
                cases += 1
                expected = 1 if mu == (p,) * m else 0
                if powersum_determinant(mu, m, n) != expected:
                    failures.append((m, p, mu))
    elapsed = time.perf_counter() - start
    _report(
        "C08",
        "power-sum determinant is 1 on the rectangle, 0 elsewhere (m,p <= 3)",
        not failures and elapsed < 1.0,
        f"{cases} partitions, {elapsed:.2f}s",
    )


def test_c09_sequence_and_componentwise_orders_agree():
    start = time.perf_counter()
    failures = []
    cases = 0
    for n in range(2, 6):
        for m in range(1, n):
            pool = []
            for entries in itertools.combinations(range(1, 3 * n + 1), m):
                try:
                    alpha = validate_index(entries, n)
                except ValueError:
                    continue
                if alpha.in_window:
                    pool.append(alpha)
            for a in pool:
                for b in pool:
                    cases += 1
                    if leq_sequence(a, b) != leq_componentwise(a.entries, b.entries):
                        failures.append((a, b))
    elapsed = time.perf_counter() - start
    _report(
        "C09",
        "sequence order coincides with componentwise order (n <= 5, entries <= 3n)",
        not failures and elapsed < 10.0,
        f"{cases} ordered pairs, {elapsed:.2f}s",
    )


def test_c10_verify_output_is_byte_identical(capsys):
    start = time.perf_counter()
    argv = ["verify", "--max-n", "4", "--max-dim", "10"]
    code_a = main(list(argv))
    first = capsys.readouterr().out
    code_b = main(list(argv))
    second = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    ok = code_a == code_b == 0 and first == second and json.loads(first)["status"] == "pass"
    with capsys.disabled():
        _report(
            "C10",
            "repeated verify runs emit byte-identical passing JSON",
            ok,
            f"{len(first)} bytes x2, {elapsed:.2f}s",
        )
