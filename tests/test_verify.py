import itertools

import pytest

from quotdeg.indices import dimension, validate_index
from quotdeg.verify import (
    _MAX_ORDER_PAIRS,
    _MAX_SYMBOLS,
    _order_pool_size,
    _symbol_count,
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


def test_order_pool_closed_form_counts_the_sweep():
    for n in range(2, 8):
        for m in range(1, n):
            pool = [e for e in windowed_indices(n, m, 3 * n * m) if e[-1] <= 3 * n]
            assert _order_pool_size(n, m) == len(pool), (n, m)
    pairs = sum(_order_pool_size(n, m) ** 2 for n in range(2, 6) for m in range(1, n))
    assert pairs == order_agreement_suite(5).cases == 11820


def test_run_verify_refuses_an_oversized_grid_up_front():
    # max_n = 8 (1,389,400 pairs) is admitted, 9 (6,482,698) is not
    pairs = [sum(_order_pool_size(n, m) ** 2 for n in range(2, top + 1) for m in range(1, n))
             for top in (8, 9)]
    assert pairs == [1389400, 6482698]
    assert pairs[0] <= _MAX_ORDER_PAIRS < pairs[1]
    for max_n in (9, 12, 10**12):
        with pytest.raises(ValueError, match="6482698 pairs for n <= 9 alone"):
            run_verify(max_n=max_n, max_dim=0)


def test_symbol_closed_form_counts_the_sweep():
    for n in range(2, 7):
        for m in range(1, n):
            for max_dim in (0, 1, 7, 30):
                want = len(list(valid_symbols(m, n - m, max_dim)))
                assert _symbol_count(m, n - m, max_dim) == want


def test_run_verify_refuses_too_many_symbols_up_front(monkeypatch):
    # max_n = 8, max_dim = 24 (1,643 symbols) is admitted; max_n = 3,
    # max_dim = 2000 (6,003) is refused before any suite runs
    import quotdeg.verify as verify

    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    def count(max_n, max_dim):
        return sum(
            _symbol_count(m, n - m, max_dim) for n in range(2, max_n + 1) for m in range(1, n)
        )

    assert count(8, 24) == 1643 <= _MAX_SYMBOLS < count(3, 2000) == 6003
    monkeypatch.setattr(verify, "base_case_suite", admitted)
    with pytest.raises(Admitted):
        run_verify(max_n=8, max_dim=24)
    with pytest.raises(Admitted):
        run_verify(max_n=2, max_dim=1999)
    with pytest.raises(ValueError, match="would run 6003 symbols for n <= 3, over the limit 2000"):
        run_verify(max_n=3, max_dim=2000)
    with pytest.raises(ValueError, match="would run 2001 symbols for n <= 2"):
        run_verify(max_n=2, max_dim=2000)


def test_run_verify_base_case_honours_precision():
    # 12 bits cannot certify any sum, so every suite that runs one must say so
    report = run_verify(max_n=3, max_dim=4, precision=12)
    suites = {s.name: s for s in report.suites}
    assert suites["base_case"].failures
    assert all("vi failed" in f for f in suites["base_case"].failures)
    assert len(suites["cross_method"].failures) == suites["cross_method"].cases
    assert not report.ok
