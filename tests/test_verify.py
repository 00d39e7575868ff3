import itertools

import pytest

from quotdeg.indices import SchubertSymbol, dimension, validate_index
from quotdeg.verify import (
    _MAX_ORDER_PAIRS,
    _MAX_SYMBOLS,
    _column_sets,
    _order_pool,
    order_agreement_suite,
    run_verify,
    valid_symbols,
    windowed_indices,
)


def test_windowed_indices_enumeration():
    got = list(windowed_indices(4, 2, 3))
    assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    for entries in got:
        assert dimension(validate_index(entries, 4)) <= 3
    assert (3, 4) in list(windowed_indices(4, 2, 4))


def test_windowed_indices_is_exhaustive():
    # exactly the increasing tuples with span < n and dimension <= D, in
    # lexicographic order; an entry above D + m alone would exceed D
    for n in range(2, 7):
        for m in range(1, n):
            for cap in range(13):
                want = sorted(
                    entries
                    for entries in itertools.combinations(range(1, cap + m + 1), m)
                    if entries[-1] - entries[0] < n
                    and dimension(validate_index(entries, n)) <= cap
                )
                assert list(windowed_indices(n, m, cap)) == want, (n, m, cap)


def test_valid_symbols_respects_bounds():
    pairs = list(valid_symbols(2, 2, 7))
    assert (((1, 2), 0)) in pairs
    assert (((3, 4), 0)) in pairs
    for cols, d in pairs:
        assert all(c <= 2 + l for l, c in enumerate(cols, start=1))
        assert d >= 0
    # dimension 4 + 4d stays under 7, so only d = 0 for the top cell
    assert (((3, 4), 1)) not in pairs
    assert (((1, 2), 1)) in pairs


def test_run_verify_passes_at_small_bounds():
    report = run_verify(max_n=4, max_dim=8)
    assert report.ok
    assert report.total_failures == 0
    assert report.total_cases > 100
    names = [s.name for s in report.suites]
    assert len(names) == len(set(names))
    for suite in report.suites:
        assert suite.cases > 0
        assert suite.failures == []


def test_run_verify_detects_injected_fault():
    report = run_verify(max_n=4, max_dim=8, inject_fault=True)
    assert not report.ok
    assert report.total_failures > 0
    # the healthy run and the poisoned run see the same case count
    clean = run_verify(max_n=4, max_dim=8)
    assert clean.total_cases == report.total_cases


def test_run_verify_checks_its_bounds():
    # a period below 2 or a negative dimension names no case; refuse
    # rather than report a vacuous pass
    with pytest.raises(ValueError, match="max_n must be at least 2, got 1"):
        run_verify(max_n=1, max_dim=-3)
    with pytest.raises(ValueError, match="max_dim must be nonnegative, got -1"):
        run_verify(max_n=4, max_dim=-1)


def _reference_order_pool(n, m):
    # the m-subsets of 1..3n spanning less than n, in lexicographic order
    return [e for e in itertools.combinations(range(1, 3 * n + 1), m) if e[-1] - e[0] < n]


def _order_pairs(max_n):
    return sum(len(_order_pool(n, m)) ** 2 for n in range(2, max_n + 1) for m in range(1, n))


def test_order_pool_matches_the_subset_filter():
    for n in range(2, 9):
        for m in range(1, n):
            assert _order_pool(n, m) == _reference_order_pool(n, m), (n, m)
    assert _order_pairs(5) == order_agreement_suite(5).cases == 11820
    assert [_order_pairs(top) for top in (6, 8, 9)] == [59950, 1389400, 6482698]


def test_order_agreement_pairs_the_reference_pool_in_order(monkeypatch):
    import quotdeg.verify as verify

    seen = []
    real = verify.leq_sequence

    def recording(a, b):
        seen.append((a.n, a.entries, b.entries))
        return real(a, b)

    monkeypatch.setattr(verify, "leq_sequence", recording)
    order_agreement_suite(6)
    want = [
        (n, a, b)
        for n in range(2, 7)
        for m in range(1, n)
        for pool in [_reference_order_pool(n, m)]
        for a in pool
        for b in pool
    ]
    assert seen == want


def test_run_verify_refuses_an_oversized_grid_up_front():
    # max_n = 8 (1,389,400 pairs) is admitted, 9 (6,482,698) is not
    pairs = [_order_pairs(top) for top in (8, 9)]
    assert pairs == [1389400, 6482698]
    assert pairs[0] <= _MAX_ORDER_PAIRS < pairs[1]
    for max_n in (9, 12, 10**12):
        with pytest.raises(ValueError, match="6482698 pairs for n <= 9 alone"):
            run_verify(max_n=max_n, max_dim=0)


def _symbols(max_n, max_dim):
    return sum(
        len(list(valid_symbols(m, n - m, max_dim)))
        for n in range(2, max_n + 1)
        for m in range(1, n)
    )


def test_symbol_bound_counts_the_sweep():
    # the bound sums the shift counts of the column sets valid_symbols sweeps
    for n in range(2, 7):
        for m in range(1, n):
            for max_dim in (0, 1, 7, 30):
                shifts = sum(k for _, k in _column_sets(m, n - m, max_dim))
                assert shifts == len(list(valid_symbols(m, n - m, max_dim))), (n, m, max_dim)
    assert [_symbols(8, 24), _symbols(3, 2000), _symbols(2, 2000)] == [1643, 6003, 2001]


def test_run_verify_refuses_too_many_symbols_up_front(monkeypatch):
    # max_n = 8, max_dim = 24 (1,643 symbols) is admitted; max_n = 3,
    # max_dim = 2000 (6,003) is refused before any suite runs
    import quotdeg.verify as verify

    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    assert _symbols(8, 24) == 1643 <= _MAX_SYMBOLS < _symbols(3, 2000) == 6003
    monkeypatch.setattr(verify, "base_case_suite", admitted)
    with pytest.raises(Admitted):
        run_verify(max_n=8, max_dim=24)
    with pytest.raises(Admitted):
        run_verify(max_n=2, max_dim=1999)
    with pytest.raises(ValueError, match="would run 6003 symbols for n <= 3, over the limit 2000"):
        run_verify(max_n=3, max_dim=2000)
    with pytest.raises(ValueError, match="would run 2001 symbols for n <= 2"):
        run_verify(max_n=2, max_dim=2000)


def test_run_verify_refuses_bad_precision_and_tolerance_up_front(monkeypatch):
    # checked before base_case runs its first chain and recurrence
    import quotdeg.verify as verify

    def ran(*args):
        pytest.fail("a suite ran")

    monkeypatch.setattr(verify, "base_case_suite", ran)
    for kwargs, message in (
        ({"precision": 2}, "precision must be at least 4 bits, got 2"),
        ({"precision": 5000}, "precision must be at most 1024 bits, got 5000"),
        ({"precision": 53.5}, "^53.5 is not an integer$"),
        ({"tolerance": float("nan")}, r"tolerance must be finite and in \(0, 0.5\), got nan"),
        ({"tolerance": 0.5}, r"tolerance must be finite and in \(0, 0.5\), got 0.5"),
        ({"max_dim": 14.5}, "^14.5 is not an integer$"),
        ({"max_n": 4.5}, "^4.5 is not an integer$"),
    ):
        with pytest.raises(ValueError, match=message):
            run_verify(**{"max_n": 3, "max_dim": 4, **kwargs})


def test_every_suite_reports_each_failing_case(monkeypatch):
    # break what four suites check, which no other test makes fail: every
    # case fails, the case counts stay those of a healthy run, and each
    # suite's first message names its first case
    import quotdeg.verify as verify

    covers, leq_sequence = verify.covers, verify.leq_sequence
    monkeypatch.setattr(verify, "dimension", lambda alpha: -1)
    monkeypatch.setattr(verify, "covers", lambda a, b: not covers(a, b))
    monkeypatch.setattr(verify, "leq_sequence", lambda a, b: not leq_sequence(a, b))
    monkeypatch.setattr(verify, "powersum_determinant", lambda mu, m, n: 2)
    suites = {s.name: s for s in run_verify(4, 8).suites}
    for name, cases, first in (
        ("roundtrip", 58, "n=2 (1;0): dimension -1 != 0"),
        ("cover_soundness", 147, "n=2 (2,) covers (1,): got False, order says True"),
        ("order_agreement", 2170, "n=2 (1,) vs (1,): sequence=False componentwise=True"),
        ("powersum_identity", 7, "m=1 p=1 mu=(1,): 2 != 1"),
    ):
        assert suites[name].cases == len(suites[name].failures) == cases, name
        assert suites[name].failures[0] == first


def test_run_verify_base_case_honours_precision():
    # 12 bits cannot certify any sum, so every suite that runs one must say so
    report = run_verify(max_n=3, max_dim=4, precision=12)
    suites = {s.name: s for s in report.suites}
    assert suites["base_case"].failures
    assert all("vi failed" in f for f in suites["base_case"].failures)
    assert len(suites["cross_method"].failures) == suites["cross_method"].cases
    assert not report.ok


def test_base_case_and_roundtrip_report_each_failing_case(monkeypatch):
    # a chain count of 0 and a conversion that gains a period shift are the
    # two faults these suites alone name: every case fails, and the first
    # message names the first case with all three degrees or all three forms
    import quotdeg.verify as verify

    to_symbol = verify.composite_to_schubert

    def shifted(alpha):
        s = to_symbol(alpha)
        return SchubertSymbol(s.columns, s.offset + 1)

    monkeypatch.setattr(verify, "degree_chain", lambda alpha, *args, **kwargs: 0)
    monkeypatch.setattr(verify, "composite_to_schubert", shifted)
    suites = {s.name: s for s in run_verify(4, 8).suites}
    for name, cases, first in (
        ("base_case", 9, "m=1 p=1 bottom degrees chain=0 recurrence=1 vi=1"),
        ("roundtrip", 58, "n=2 (1;0) -> 1 -> (1;1)"),
    ):
        assert suites[name].cases == len(suites[name].failures) == cases, name
        assert suites[name].failures[0] == first
