import hashlib
import itertools
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf, workprec

from quotdeg.chain_degree import degree_chain
from quotdeg.indices import (
    InvalidIndexError,
    SchubertSymbol,
    schubert_to_composite,
    symbol_dimension,
)
from quotdeg.recurrence_degree import RecurrenceTable, quot_degree
from quotdeg.vafa import (
    DEFAULT_PRECISION,
    CorrelatorSpec,
    DimensionMismatchError,
    ToleranceError,
    _correlator_sum,
    _degree_sum,
    _det,
    _det_coefficients,
    _elementary_all,
    _elementary_errors,
    _root_errors,
    _rotation_orbits,
    check_tolerance,
    lg_roots,
    power_sum,
    powersum_determinant,
    vi_correlator,
    vi_degree,
)
from quotdeg.verify import valid_symbols

from fixed_point_sweep import sweep
from oracles import leibniz_coefficients, leibniz_det, top_degree
from shared import partitions


def _recurrence_degree(columns, d, m, p):
    alpha = schubert_to_composite(SchubertSymbol(columns, d), m + p)
    return RecurrenceTable(m, m + p).degree(alpha.entries)


def test_roots_satisfy_defining_equation():
    for m in (1, 2, 3, 4):
        for n in (2, 3, 4, 5, 6):
            sys = lg_roots(m, n)
            assert len(sys.roots) == n
            assert len(set(sys.roots)) == n
            target = (-1) ** (m + 1)
            for q in map(mp.make_mpc, sys.roots):
                assert abs(abs(q) - 1) < 1e-12
                assert abs(q**n - target) < 1e-10


def test_roots_parity_only_depends_on_m_mod_2():
    a = lg_roots(1, 5)
    b = lg_roots(3, 5)
    assert a.roots == b.roots
    assert lg_roots(2, 5).roots != a.roots


def test_lg_roots_validation(monkeypatch):
    import quotdeg.vafa as vafa

    with pytest.raises(ValueError):
        lg_roots(0, 4)
    with pytest.raises(ValueError):
        lg_roots(2, 1)
    with pytest.raises(ValueError):
        lg_roots(2, 4, precision=3)
    with pytest.raises(ValueError, match="precision must be at most 1024 bits, got 1025"):
        lg_roots(2, 4, precision=1025)
    with pytest.raises(ValueError, match="precision must be at most 1024 bits, got 200000"):
        vi_degree((3, 4), 1, 2, 2, precision=200000)
    assert lg_roots(2, 4, precision=1024).precision == 1024
    # a non-integral precision once reached the kernel's shifts as a TypeError
    monkeypatch.setattr(vafa, "_zeta_table", lambda *args: pytest.fail("a table was built"))
    for request in (
        lambda: lg_roots(2, 4, precision=53.5),
        lambda: vi_degree((3, 4), 1, 2, 2, precision=53.5),
        lambda: vi_correlator(CorrelatorSpec((8, 0), 2, 2), precision=53.5),
    ):
        with pytest.raises(ValueError, match="^53.5 is not an integer$"):
            request()


def test_zeta_table_entries_are_the_roots_bit_for_bit():
    for m in (1, 2, 3, 4):
        parity = 1 - m % 2
        for n in (2, 3, 5, 6, 10):
            for precision in (53, 104, 200):
                sys = lg_roots(m, n, precision)
                assert len(sys.powers) == 2 * n
                with workprec(precision):
                    direct = [mp.expjpi(mpf(2 * k + parity) / n) for k in range(n)]
                assert list(sys.roots) == [q._mpc_ for q in direct]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exponent_det_matches_leibniz_over_root_powers(data):
    m = data.draw(st.integers(1, 5))
    n = m + data.draw(st.integers(1, 4))
    ks = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m, unique=True))
    parts = sorted(
        data.draw(st.lists(st.integers(0, 2 * n), min_size=m, max_size=m)), reverse=True
    )
    lams = [parts[j] + m - j for j in range(m)]
    sys = lg_roots(m, n, precision=200)
    roots = [mp.make_mpc(q) for q in sys.roots]
    with workprec(200):
        coeffs = _det_coefficients([2 * k + 1 - m % 2 for k in ks], lams, n)
        got = mp.fdot(zip(coeffs, map(mp.make_mpc, sys.powers)))
        want = leibniz_det([[roots[k] ** lam for lam in lams] for k in ks])
        # every Leibniz term has modulus 1, so m! is the scale of the sum
        assert abs(got - want) <= mpf(2) ** -150 * math.factorial(m)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_det_matches_leibniz_on_int_matrices(data):
    m = data.draw(st.integers(0, 6))
    entry = st.integers(-(10**6), 10**6)
    rows = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    assert _det(rows) == leibniz_det(rows)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_det_coefficients_match_leibniz_exponent_sums(data):
    # up to 6 x 6 at short periods, and up to 3 x 3 at periods up to about 400
    most_m, most_p = data.draw(st.sampled_from([(6, 5), (3, 400)]))
    m = data.draw(st.integers(0, most_m))
    n = m + data.draw(st.integers(1, most_p))
    exponents = data.draw(st.lists(st.integers(0, 2 * n - 1), min_size=m, max_size=m))
    lams = data.draw(st.lists(st.integers(0, 4 * n), min_size=m, max_size=m))
    assert _det_coefficients(exponents, lams, n) == leibniz_coefficients(exponents, lams, n)


def test_large_m_degree_sum_matches_chain():
    # out of reach of an m!-term determinant: 10! terms took about 50 s and 762 MB
    cols = tuple(range(1, 11))
    want = degree_chain(schubert_to_composite(SchubertSymbol(cols, 1), 12))
    assert want == 10
    assert vi_degree(cols, 1, 10, 2).value == want


def test_partition_normalization_rejects_bad_shapes():
    with pytest.raises(ValueError):
        powersum_determinant((1, 2), 2, 4)  # parts must weakly decrease
    with pytest.raises(ValueError):
        powersum_determinant((2, 1, 1), 2, 4)  # more nonzero parts than m
    with pytest.raises(ValueError, match=r"parts must be nonnegative: \(1, -1\)"):
        powersum_determinant((1, -1), 2, 4)
    assert powersum_determinant((2, 2, 0), 2, 4) == 1  # trailing zeros are fine


@pytest.mark.parametrize(
    "k,m,n,expected",
    [
        (0, 2, 4, 4),
        (1, 2, 4, 0),
        (2, 2, 4, 0),
        (3, 2, 4, 0),
        (4, 2, 4, -4),
        (8, 2, 4, 4),
        (4, 3, 4, 4),
        (5, 1, 5, 5),
        (10, 1, 5, 5),
    ],
)
def test_power_sum_closed_form(k, m, n, expected):
    assert power_sum(k, m, n) == expected


def test_power_sum_matches_roots_numerically():
    for m in (1, 2):
        for n in (2, 3, 4, 5):
            sys = lg_roots(m, n)
            for k in range(0, 2 * n + 1):
                direct = sum(mp.make_mpc(q) ** k for q in sys.roots)
                assert abs(direct - power_sum(k, m, n)) < 1e-9


def test_power_sum_rejects_negative_exponent():
    with pytest.raises(ValueError):
        power_sum(-1, 2, 4)
    # and a period below 1, which once returned -3.0 or divided by zero
    for n in (0, -3):
        with pytest.raises(ValueError, match=f"n must be positive, got {n}"):
            power_sum(6, 2, n)
        with pytest.raises(ValueError, match=f"n must be positive, got {n}"):
            powersum_determinant((1,), 1, n)


def test_powersum_determinant_selects_the_rectangle():
    # weight m*p forces the full rectangle; everything else vanishes
    for m in (1, 2, 3):
        for p in (1, 2, 3):
            n = m + p
            rectangle = (p,) * m
            seen = 0
            for mu in partitions(m * p, m, m * p):
                expected = Fraction(1 if mu == rectangle else 0)
                assert powersum_determinant(mu, m, n) == expected
                seen += 1
            assert seen >= 1


def test_powersum_determinant_known_values():
    assert powersum_determinant((2, 2), 2, 4) == 1
    assert powersum_determinant((3, 1), 2, 4) == 0
    assert powersum_determinant((4, 0), 2, 4) == 0


@pytest.mark.parametrize(
    "columns,d,m,p,expected",
    [
        ((3, 4), 0, 2, 2, 2),
        ((3, 4), 1, 2, 2, 8),
        ((2, 4), 0, 2, 2, 2),
        ((1, 2), 0, 2, 2, 1),
        ((4, 5), 0, 2, 3, 5),
        ((2,), 0, 1, 1, 1),
        ((4,), 3, 1, 3, 1),
    ],
)
def test_vi_degree_values(columns, d, m, p, expected):
    result = vi_degree(columns, d, m, p)
    assert result.value == expected
    assert result.residual <= result.tolerance
    assert result.imag <= result.tolerance
    assert result.precision == DEFAULT_PRECISION


def test_vi_degree_validation():
    with pytest.raises(InvalidIndexError):
        vi_degree((3, 4), -1, 2, 2)
    with pytest.raises(InvalidIndexError):
        vi_degree((3,), 0, 2, 2)
    with pytest.raises(InvalidIndexError):
        vi_degree((1, 5), 0, 2, 2)  # column above n
    with pytest.raises(TypeError):
        vi_degree(SchubertSymbol((3, 4), 1), 0, 2, 2)  # columns only, never a symbol


def test_vi_degree_accepts_prebuilt_roots():
    # the table lg_roots built beforehand is the one the sum reads; the sum
    # builds only _root_errors' reference table at 2 * 64 + 20 bits
    import quotdeg.vafa as vafa

    vafa._zeta_table.cache_clear()
    vafa._root_errors.cache_clear()
    sys = lg_roots(2, 4, precision=64)
    result = vi_degree((3, 4), 1, 2, 2, precision=64)
    assert result.value == 8
    assert result.precision == 64
    assert vafa._zeta_table.cache_info().misses == 2
    assert lg_roots(2, 4, precision=64).powers is sys.powers


@pytest.mark.parametrize(
    "top",
    [
        lambda m, p, **kw: vi_degree(tuple(range(p + 1, m + p + 1)), 1, m, p, **kw),
        lambda m, p, **kw: vi_correlator(
            CorrelatorSpec.from_powers((m * p + m + p,) + (0,) * (m - 1), m, p), **kw
        ),
    ],
    ids=["vi_degree", "vi_correlator"],
)
def test_vi_sums_refuse_mismatched_roots(top):
    # the degree of the whole order-1 space, as a degree and as <sigma_1^dim>;
    # no root system can be handed in, so each sum builds the one its n,
    # parity and precision name
    with pytest.raises(TypeError):
        top(2, 2, roots=lg_roots(2, 4, precision=64))
    assert top(2, 2).precision == 53
    for precision in (64, 100):
        result = top(2, 2, precision=precision)
        assert result.value == 8
        assert result.precision == precision
    assert top(2, 3).value == top_degree(2, 3, 1)  # another n
    assert top(3, 1).value == top_degree(3, 1, 1)  # another parity


def test_correlator_shares_root_systems():
    # the working table and the one _root_errors measures it against
    import quotdeg.vafa as vafa

    vafa._zeta_table.cache_clear()
    vafa._root_errors.cache_clear()
    first = vi_degree((3, 4), 1, 2, 2, precision=64)
    assert vi_correlator(CorrelatorSpec.from_powers((8, 0), 2, 2), precision=64).value == 8
    assert vi_degree((3, 4), 1, 2, 2, precision=64) == first
    # built: (4, 64) by lg_roots and (4, 148) by _root_errors; every other
    # lookup, _root_errors' first of (4, 64) and two lg_roots calls, hits
    info = vafa._zeta_table.cache_info()
    assert (info.misses, info.hits) == (2, 3)


@pytest.mark.parametrize(
    "request_sum,orbits,weight",
    [
        (
            lambda: vi_degree(tuple(range(31, 61)), 0, 30, 30),
            -(-math.comb(60, 30) // 60),
            2**30 * 30 + 30,
        ),
        (lambda: vi_degree(tuple(range(10, 19)), 0, 9, 9), 2702, 2**9 * 9 + 9),
        # ran past two minutes while a term's n coefficients weighed nothing
        (lambda: vi_degree((3, 5), 0, 2, 14998), 7500, 2**2 * 2 + 7500),
        (
            lambda: vi_correlator(CorrelatorSpec.from_powers((900,) + (0,) * 29, 30, 30)),
            -(-math.comb(60, 30) // 60),
            8 * 30**2,
        ),
        # the hyperplane correlator admitted, at 11-33 s, while a term weighed m^2
        (
            lambda: vi_correlator(CorrelatorSpec.from_powers((110,) + (0,) * 9, 10, 11)),
            16796,
            8 * 10**2,
        ),
    ],
    ids=["degree-30,30", "degree-9,9", "degree-2,14998", "correlator-30,30", "correlator-10,11"],
)
def test_oversized_sums_are_refused_before_any_work(request_sum, orbits, weight, monkeypatch):
    import quotdeg.vafa as vafa

    monkeypatch.setattr(vafa, "lg_roots", lambda *args: pytest.fail("roots were built"))
    monkeypatch.setattr(vafa, "_rotation_orbits", lambda *args: pytest.fail("a sum ran"))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large") as refusal:
        request_sum()
    assert time.perf_counter() - start < 1
    assert f"estimated {orbits * weight} units" in str(refusal.value)
    assert f"limit {vafa._MAX_WORK}" in str(refusal.value)


def test_root_table_counts_toward_the_work(monkeypatch):
    # at m = 1 the 2n-entry zeta table is nearly the whole cost: 2 * 15,564
    # entries at 64 units and one term of 2 + 15,564 / 2 are admitted, one
    # period more is not
    import quotdeg.vafa as vafa

    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(vafa, "lg_roots", admitted)
    assert 2 * 15564 * vafa._ENTRY_WEIGHT + 2 + 15564 // 2 <= vafa._MAX_WORK
    with pytest.raises(Admitted):
        vi_degree((1,), 0, 1, 15563)
    with pytest.raises(ValueError, match=r"7784 units of work \(1 rotation orbits times 7784 per "
                       r"term\) and 1992320 for the root table \(31130 entries times 64\) "
                       r"exceed the limit 2000000$"):
        vi_degree((1,), 0, 1, 15564)


@pytest.mark.parametrize(
    "powers,m,p,precision",
    [
        ((8, 0), 2, 2, 53),
        ((0, 6), 2, 2, 53),
        ((6, 1, 0, 4), 4, 4, 53),
        ((1, 1, 1, 1, 1), 5, 3, 53),
        ((25, 0, 0, 0, 0), 5, 5, 80),
    ],
)
def test_benchmark_and_ci_correlators_are_admitted(powers, m, p, precision):
    # every correlator the benchmark decks and CI request, at its rung
    spec = CorrelatorSpec.from_powers(powers, m, p)
    assert vi_correlator(spec, precision=precision).precision == precision


def test_vi_degree_precision_sharpens_residual():
    coarse = vi_degree((3, 4), 1, 2, 2)
    fine = vi_degree((3, 4), 1, 2, 2, precision=200)
    assert coarse.value == fine.value == 8
    assert fine.residual <= coarse.residual
    assert fine.residual < 1e-40


def test_vi_degree_tolerance_failure_is_reported():
    with pytest.raises(ToleranceError):
        vi_degree((3, 4), 1, 2, 2, precision=12, tolerance=1e-9)


def test_vi_degree_refuses_unsafe_rounding():
    # the value needs 37 bits; 16 working bits cannot certify an integer
    with pytest.raises(ToleranceError):
        vi_degree((5, 6, 7, 8), 2, 4, 4, precision=16)
    result = vi_degree((5, 6, 7, 8), 2, 4, 4, precision=80)
    assert result.value == _recurrence_degree((5, 6, 7, 8), 2, 4, 4)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1e-6, 0.5])
def test_vi_sums_reject_unusable_tolerance(tolerance):
    # NaN used to certify a wrong integer: residual > nan is False
    with pytest.raises(ValueError, match="tolerance"):
        vi_degree((4, 5, 6), 4, 3, 3, precision=31, tolerance=tolerance)
    with pytest.raises(ValueError, match="tolerance"):
        vi_correlator(CorrelatorSpec.from_powers((8, 0), 2, 2), tolerance=tolerance)


def test_vi_sums_refuse_non_numeric_tolerance_up_front(monkeypatch):
    import quotdeg.vafa as vafa

    # a comparison with a str or None once escaped as a TypeError; every
    # number still passes as given
    for usable in (0.1, Fraction(1, 10)):
        assert check_tolerance(usable) is usable
    monkeypatch.setattr(vafa, "_zeta_table", lambda *args: pytest.fail("a table was built"))
    for tolerance, shown in (("0.1", "'0.1'"), (None, "None")):
        for request in (
            lambda: check_tolerance(tolerance),
            lambda: vi_degree((3, 4), 1, 2, 2, tolerance=tolerance),
            lambda: vi_correlator(CorrelatorSpec.from_powers((8, 0), 2, 2), tolerance=tolerance),
        ):
            with pytest.raises(ValueError, match=f"^tolerance must be a real number, got {shown}$"):
                request()


def test_vi_degree_refuses_last_place_noise():
    # at 404 bits the sum rounds to an integer 68 above the true degree
    with pytest.raises(ToleranceError, match="noise bound"):
        vi_degree((3, 4), 200, 2, 2, precision=404)
    assert vi_degree((3, 4), 200, 2, 2, precision=460).value == quot_degree(2, 2, 200)


def test_certified_sum_off_an_integer_is_refused():
    # an exact, error-free sum of 2.3 after scaling: the noise bound passes
    # and the residual 0.3 does not
    import quotdeg.vafa as vafa

    lib = vafa._kernel()
    subset_sum = (lib.from_float(-2.3 * 4**2), lib.fzero)
    with pytest.raises(ToleranceError, match="is not within 1e-06 of an integer"):
        vafa._finalize(subset_sum, lib.fzero, 2, 4, 53, 1e-6)


def test_missing_mpmath_is_refused(monkeypatch):
    # __wrapped__ runs the loader afresh and leaves the cached kernel alone
    import importlib.util

    import quotdeg.vafa as vafa

    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ModuleNotFoundError) as refusal:
        vafa._kernel.__wrapped__()
    assert refusal.value.name == "mpmath"


@pytest.mark.parametrize(
    "run",
    [
        lambda: vi_correlator(CorrelatorSpec((40_000_000, 0), 2, 2)),
        lambda: vi_degree((1, 2), 10**10, 2, 2),
    ],
    ids=["correlator-4e7", "degree-1e10"],
)
def test_oversized_sum_refuses_before_it_rounds(monkeypatch, run):
    # a sum with about as many bits as its dimension is refused by its noise
    # bound alone; rounding it to an integer first once took quadratic time
    import quotdeg.vafa as vafa

    monkeypatch.setattr(vafa._kernel(), "to_int", lambda *a: pytest.fail("sum rounded"))
    start = time.perf_counter()
    with pytest.raises(ToleranceError, match="^noise bound "):
        run()
    assert time.perf_counter() - start < 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 8), st.integers(20, 520))
@example(2, 2, 200, 404)
def test_vi_degree_certifies_or_refuses(m, p, d, precision):
    n = m + p
    cols = tuple(range(p + 1, n + 1))
    want = degree_chain(schubert_to_composite(SchubertSymbol(cols, d), n))
    try:
        got = vi_degree(cols, d, m, p, precision=precision).value
    except ToleranceError:
        return
    assert got == want


@st.composite
def symbols(draw):
    m = draw(st.integers(1, 3))
    p = draw(st.integers(1, 3))
    parts = tuple(
        sorted((draw(st.integers(0, p)) for _ in range(m)), reverse=True)
    )
    columns = tuple(p + l - parts[l - 1] for l in range(1, m + 1))
    d = draw(st.integers(0, 2))
    return columns, d, m, p


@settings(max_examples=50, deadline=None)
@given(symbols())
def test_vi_degree_matches_recurrence(sym):
    columns, d, m, p, = sym
    assert vi_degree(columns, d, m, p).value == _recurrence_degree(columns, d, m, p)


@pytest.mark.parametrize(
    "call,raw,residual,imag",
    [
        (
            lambda: vi_degree((6, 7, 8, 9, 10), 2, 5, 5, precision=104),
            "(1.2420850714050832e+19+4.415077683009295e-11j)",
            "5.1901383854367474e-11",
            "4.415077683009295e-11",
        ),
        (
            lambda: vi_degree((3, 4), 1, 2, 2, precision=64),
            "(8+0j)",
            "2.168404344971009e-18",
            "0.0",
        ),
        (
            lambda: vi_correlator(CorrelatorSpec.from_powers((6, 1, 0, 4), 4, 4)),
            "(10+4.5900783174346316e-15j)",
            "4.5900783174346316e-15",
            "4.5900783174346316e-15",
        ),
        (
            lambda: vi_correlator(
                CorrelatorSpec.from_powers((25, 0, 0, 0, 0), 5, 5), precision=80
            ),
            "(701149020+1.83478315891477e-14j)",
            "2.320757022525851e-14",
            "1.83478315891477e-14",
        ),
    ],
    ids=[
        "degree-6,7,8,9,10;2@104",
        "degree-3,4;1@64",
        "correlator-6,1,0,4@53",
        "correlator-25,0,0,0,0@80",
    ],
)
def test_verbose_evidence_is_pinned(call, raw, residual, imag):
    # the unrounded sum --verbose reports, bit for bit; the golden file skips --verbose
    result = call()
    assert (repr(result.raw), repr(result.residual), repr(result.imag)) == (raw, residual, imag)


@pytest.mark.parametrize(
    "subset_sum,want",
    [
        (
            lambda: _degree_sum([5, 4, 3, 2, 1], 45, lg_roots(5, 10, 104)),  # (6,7,8,9,10;2)
            (
                (0, 10419364766669253296259072000023, -23, 104),
                (0, 11737289719642309061762199602547, -121, 104),
                (0, 1733614459111027, -66, 51),
            ),
        ),
        (
            lambda: _degree_sum([2, 1], 8, lg_roots(2, 4, 12)),  # (3,4;1), noise bound 0.0917
            ((1, 1023, -3, 10), (0, 0, 0, 0), (0, 6044441374106861, -52, 53)),
        ),
        (
            lambda: _degree_sum(list(range(10, 1, -1)), 10, lg_roots(9, 10, 80)),  # (1..9;1)
            (
                (0, 1125899906842623999999981, -50, 80),
                (0, 682292555636748337391963, -123, 80),
                (0, 4165883002965921, -93, 52),
            ),
        ),
        (
            # noise bound 2.49
            lambda: _correlator_sum(CorrelatorSpec((8, 0), 2, 2), lg_roots(2, 4, 8)),
            ((1, 1, 7, 1), (0, 0, 0, 0), (0, 5318394990142009, -47, 53)),
        ),
        (
            lambda: _correlator_sum(CorrelatorSpec((6, 1, 0, 4), 4, 4), lg_roots(4, 8, 53)),
            ((0, 5, 13, 3), (0, 1323, -46, 11), (0, 1213029322648433, -80, 51)),
        ),
        (
            lambda: _correlator_sum(CorrelatorSpec((1, 1, 1, 1, 1), 5, 3), lg_roots(5, 8, 53)),
            (
                (0, 4503599627370497, -36, 53),
                (0, 5117267796480057, -91, 53),
                (0, 1154361272017785, -79, 51),
            ),
        ),
        (
            lambda: _correlator_sum(
                CorrelatorSpec((25, 0, 0, 0, 0), 5, 5), lg_roots(5, 10, 80)
            ),
            (
                (0, 150570605526122495999997, -31, 77),
                (0, 148855294251965139231455, -106, 77),
                (0, 293368334644605, -73, 49),
            ),
        ),
    ],
    ids=[
        "degree-6,7,8,9,10;2@104",
        "degree-3,4;1@12",
        "degree-1..9;1@80",
        "correlator-8,0@8",
        "correlator-6,1,0,4@53",
        "correlator-1,1,1,1,1@53",
        "correlator-25,0,0,0,0@80",
    ],
)
def test_subset_sums_are_pinned(subset_sum, want):
    # every bit of the unscaled sum and of its rounding bound, as (sign, mantissa,
    # exponent, bit count); the refusals in the golden file hang on these
    total, bound = subset_sum()
    assert (total[0], total[1], bound) == want


def _power_vectors(m, weight):
    # every (a_1..a_m) >= 0 with sum l * a_l = weight
    if m == 0:
        if weight == 0:
            yield ()
        return
    for top in range(weight // m + 1):
        for rest in _power_vectors(m - 1, weight - m * top):
            yield rest + (top,)


def _grid_sums():
    for n in range(2, 7):
        for m in range(1, n):
            for precision in (8, 24, 53, 104):
                roots = lg_roots(m, n, precision)
                for cols, d in valid_symbols(m, n - m, 2 * n):
                    exponent = symbol_dimension(SchubertSymbol(cols, d), n)
                    yield _degree_sum([n + 1 - c for c in cols], exponent, roots)
                for q in (0, 1):
                    for powers in _power_vectors(m, m * (n - m) + n * q):
                        yield _correlator_sum(CorrelatorSpec(powers, m, n - m), roots)


def test_subset_sums_on_a_grid_are_pinned():
    # every bit of every sum and bound over the grid, as the sha256 of their
    # (sign, mantissa, exponent, bit count) tuples; the mantissa goes through
    # int so that a gmpy backend hashes the same
    digest = hashlib.sha256()
    count = 0
    for total, bound in _grid_sums():
        bits = [tuple(int(x) for x in v) for v in (total[0], total[1], bound)]
        digest.update(repr(bits).encode())
        count += 1
    assert (count, digest.hexdigest()) == (
        1924, "b4d4f405df179be4b0d8906c55feebd35edfd33f3ddbce1768e699f08fd44a63"
    )


def test_correlator_spec_infers_order():
    spec = CorrelatorSpec.from_powers((8, 0), 2, 2)
    assert spec.q == 1
    assert CorrelatorSpec.from_powers((4, 0), 2, 2).q == 0
    assert CorrelatorSpec.from_powers((0, 2), 2, 2).q == 0


def test_correlator_spec_rejects_mismatch():
    with pytest.raises(DimensionMismatchError):
        CorrelatorSpec.from_powers((3, 0), 2, 2)
    with pytest.raises(ValueError):
        CorrelatorSpec.from_powers((1, 2, 3), 2, 2)
    with pytest.raises(ValueError):
        CorrelatorSpec.from_powers((-1, 2), 2, 2)
    with pytest.raises(ValueError, match="m and p must be positive"):
        CorrelatorSpec.from_powers((1, 1, 0), 3, -1)  # weight 3 = 3*(-1) + 2*3
    with pytest.raises(ValueError, match="m and p must be positive"):
        CorrelatorSpec((), 0, 2)


@pytest.mark.parametrize(
    "powers,m,p,expected",
    [
        ((4, 0), 2, 2, 2),
        ((0, 2), 2, 2, 1),
        ((8, 0), 2, 2, 8),
        ((2, 1), 2, 2, 1),
        ((3,), 1, 3, 1),
        ((9, 0, 0), 3, 3, 42),
    ],
)
def test_vi_correlator_values(powers, m, p, expected):
    spec = CorrelatorSpec.from_powers(powers, m, p)
    assert vi_correlator(spec).value == expected


def test_correlator_of_hyperplane_powers_is_the_degree():
    # <sigma_1^dim> over the order-q space equals its embedding degree, here
    # against the closed form, which shares nothing with the fixed-point sum
    for m in range(1, 5):
        for p in range(1, 5):
            n = m + p
            for q in range(4):
                dim = m * p + n * q
                powers = (dim,) + (0,) * (m - 1)
                spec = CorrelatorSpec.from_powers(powers, m, p)
                assert spec.q == q
                assert vi_correlator(spec, precision=80).value == top_degree(m, p, q)


def _all_subsets_sum(m, sys, term):
    """Compensated sum of term(roots) over all C(n, m) subsets of the roots:
    the loop the orbit sum replaced, kept as an oracle."""
    with workprec(sys.precision):
        total = comp = mpc(0)
        for subset in itertools.combinations(range(sys.n), m):
            y = term([2 * k + 1 - m % 2 for k in subset]) - comp
            tmp = total + y
            comp = (tmp - total) - y
            total = tmp
    return total


def _differences_product(qs):
    # the Vandermonde factor: product of q_j - q_k over j < k
    return math.prod(a - b for a, b in itertools.combinations(qs, 2))


def _reference_degree_sum(lams, exponent, m, sys):
    powers = [mp.make_mpc(z) for z in sys.powers]

    def term(exponents):
        qs = [powers[e] for e in exponents]
        det = mp.fdot(zip(_det_coefficients(exponents, lams, sys.n), powers))
        return _differences_product(qs) * det * sum(qs[1:], qs[0]) ** exponent

    return _all_subsets_sum(m, sys, term)


def _reference_correlator_sum(spec, sys):
    def term(exponents):
        qs = [sys.powers[e] for e in exponents]
        e = [mp.make_mpc(x) for x in _elementary_all(qs, sys.precision)]
        value = _differences_product(map(mp.make_mpc, qs)) ** 2 * e[spec.m]
        for l, a in enumerate(spec.powers, start=1):
            value = value * e[l] ** a
        return value

    return _all_subsets_sum(spec.m, sys, term)


def _within_bound(got, bound, reference, precision):
    # the reference runs at 3 * precision + 40 bits, so its own error is far
    # below 2^-20 of any bound at `precision`
    with workprec(3 * precision + 40):
        return abs(mp.make_mpc(got) - reference) <= mp.make_mpf(bound) * (1 + mpf(2) ** -20)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_orbit_degree_sum_is_within_its_bound_of_all_subsets(data):
    m = data.draw(st.integers(1, 4))
    p = data.draw(st.integers(1, 4))
    n = m + p
    parts = sorted((data.draw(st.integers(0, p)) for _ in range(m)), reverse=True)
    cols = tuple(p + l - parts[l - 1] for l in range(1, m + 1))
    d = data.draw(st.integers(0, 2))
    precision = data.draw(st.integers(4, 80))
    lams = [n + 1 - c for c in cols]
    exponent = symbol_dimension(SchubertSymbol(cols, d), n)
    got, bound = _degree_sum(lams, exponent, lg_roots(m, n, precision))
    reference = _reference_degree_sum(lams, exponent, m, lg_roots(m, n, 3 * precision + 40))
    assert _within_bound(got, bound, reference, precision)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_orbit_correlator_sum_is_within_its_bound_of_all_subsets(data):
    m = data.draw(st.integers(1, 3))
    p = data.draw(st.integers(1, 3))
    n = m + p
    weight = m * p + n * data.draw(st.integers(0, 2))
    powers = [0] * m
    for l in range(m, 1, -1):
        powers[l - 1] = data.draw(st.integers(0, weight // l))
        weight -= l * powers[l - 1]
    powers[0] = weight
    spec = CorrelatorSpec.from_powers(powers, m, p)
    precision = data.draw(st.integers(4, 80))
    got, bound = _correlator_sum(spec, lg_roots(m, n, precision))
    reference = _reference_correlator_sum(spec, lg_roots(m, n, 3 * precision + 40))
    assert _within_bound(got, bound, reference, precision)


def test_rotation_orbits_partition_the_subsets():
    for n in range(2, 13):
        for m in range(1, n):
            least = {}
            for subset in itertools.combinations(range(n), m):
                rotations = [tuple(sorted((k + r) % n for k in subset)) for r in range(n)]
                rep = min(rotations)
                least[rep] = least.get(rep, 0) + 1
            orbits = dict(_rotation_orbits(n, m))
            assert orbits == least
            assert sum(orbits.values()) == math.comb(n, m)
    assert [len(list(_rotation_orbits(n, m))) for n, m in [(10, 5), (8, 4), (8, 3), (6, 3), (4, 2)]] == [
        26, 10, 7, 4, 2
    ]


def test_every_degree_term_of_an_orbit_has_weight_divisible_by_n():
    # rotating all roots by e^(2 pi i / n) scales a term by that root to its weight
    for n in range(2, 9):
        for m in range(1, n):
            for cols, d in valid_symbols(m, n - m, 3 * n):
                exponent = symbol_dimension(SchubertSymbol(cols, d), n)
                weight = m * (m - 1) // 2 + sum(n + 1 - c for c in cols) + exponent
                assert weight == m * n + n * d
                assert weight % n == 0


def test_root_errors_bound_the_table():
    for n in range(2, 13):
        for precision in (4, 5, 12, 53, 104):
            sys = lg_roots(1, n, precision)
            errs = _root_errors(n, precision)
            with workprec(4 * precision + 40):
                for r, z in enumerate(sys.powers):
                    exact = mp.expjpi(mpf(r) / n)
                    assert abs(mp.make_mpc(z) - exact) <= errs[r] * mpf(2) ** (1 - precision)
            # within pi + sqrt 2 (or 3 pi + sqrt 2, once r needs more bits) of 2^-precision
            assert max(errs) <= (2.3 if 2 * n <= 2**precision else 5.5)


def test_elementary_errors_bound_the_computed_e():
    for m in range(1, 5):
        for n in (m + 1, m + 3):
            for precision in (4, 12, 53):
                parity = 1 - m % 2
                sys = lg_roots(m, n, precision)
                errs = _root_errors(n, precision)[parity::2]
                bounds = _elementary_errors(m, max(errs), precision)
                exact_roots = lg_roots(m, n, 4 * precision + 40).roots
                for subset in itertools.combinations(range(n), m):
                    got = _elementary_all([sys.roots[k] for k in subset], precision)
                    want = _elementary_all([exact_roots[k] for k in subset], 4 * precision + 40)
                    with workprec(4 * precision + 40):
                        unit = mpf(2) ** (1 - precision)
                        for l in range(m + 1):
                            error = abs(mp.make_mpc(got[l]) - mp.make_mpc(want[l]))
                            assert error <= bounds[l] * unit


def test_low_precision_sweep_prints_no_wrong_integer():
    sums, certified, wrong = sweep(4, 12, range(4, 25), (0.49,))
    assert wrong == []
    assert certified[0.49] > sums // 2
