"""The chain count, the recurrence and the fixed-point sum against the
closed form of oracles.symbol_degree, which reads each degree off Aitken's
determinant and knows nothing of any of the three methods; and the `degree`
command, where the methods, their admission and the rendering meet."""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quotdeg.chain_degree import degree_chain
from quotdeg.cli import main
from quotdeg.indices import CompositeIndex, SchubertSymbol, composite_to_schubert
from quotdeg.indices import schubert_to_composite
from quotdeg.recurrence_degree import RecurrenceTable
from quotdeg.vafa import ToleranceError, vi_degree

from oracles import symbol_degree, top_degree


@st.composite
def symbols(draw, max_n=10, max_m=5, max_dim=40):
    """(columns, d, n) with n <= max_n, m <= max_m and dimension <= max_dim."""
    n = draw(st.integers(2, max_n))
    m = draw(st.integers(1, min(max_m, n - 1)))
    columns = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=m, max_size=m))))
    base = sum(c - j for j, c in enumerate(columns, start=1))
    return columns, draw(st.integers(0, (max_dim - base) // n)), n


@settings(max_examples=150, deadline=None)
@given(symbols())
@example(((1, 3, 5, 7), 2, 8))
@example(((6, 7, 8, 9, 10), 1, 10))
def test_chain_and_recurrence_equal_the_closed_form(symbol):
    columns, d, n = symbol
    alpha = schubert_to_composite(SchubertSymbol(columns, d), n)
    chain = degree_chain(alpha)
    assert chain == RecurrenceTable(len(columns), n).degree(alpha.entries)
    assert chain == symbol_degree(columns, d, n)


@st.composite
def degree_requests(draw):
    """A `degree` request and the (columns, d, n) whose closed form is its
    degree, or None where the request names no windowed index.  Half are
    symbols() draws; half are tiny walks, an --alpha of at most three
    entries up to 6, at a period up to 10^8, where each integer method
    refuses at once or answers from a few cells.  No tuple below such an
    alpha spans more than alpha_m - 1, so past that period its degree no
    longer depends on n and is read off at n = alpha_m + 1."""
    if draw(st.booleans()):
        columns, d, n = draw(symbols())
        m = len(columns)
        argv = ["--m", str(m), "--p", str(n - m), "--i", ",".join(map(str, columns)),
                "--d", str(d)]
        return argv, (columns, d, n)
    entries = tuple(sorted(draw(st.sets(st.integers(1, 6), min_size=1, max_size=3))))
    # no period from 100 to 15,999: there the fixed-point sum of a two- or
    # three-entry walk is admitted and takes up to about 3 s, which would
    # multiply this test's time; test_vafa's refusal tests pin its boundary
    n = draw(st.one_of(st.integers(2, 12), st.integers(13, 99), st.integers(16_000, 10**8)))
    argv = ["--n", str(n), "--alpha", ",".join(map(str, entries))]
    if entries[-1] - entries[0] >= n or len(entries) >= n:
        return argv, None
    symbol = composite_to_schubert(CompositeIndex(entries, min(n, entries[-1] + 1)))
    return argv, (symbol.columns, symbol.offset, min(n, entries[-1] + 1))


@settings(max_examples=150, deadline=None)
@given(degree_requests())
@example((["--n", "100000000", "--alpha", "1"], ((1,), 0, 2)))
@example((["--m", "4", "--p", "4", "--i", "1,3,5,7", "--d", "2"], ((1, 3, 5, 7), 2, 8)))
def test_degree_command_prints_the_closed_form_or_refuses(drawn):
    # every method prints the closed form, or the command refuses in one
    # stderr line; exit 4 is a report too, naming the sum it refused
    request, symbol = drawn
    codes = {}
    for method in ("chain", "recurrence", "vi", "all"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = codes[method] = main(["degree", *request, "--method", method])
        out, err = out.getvalue(), err.getvalue()
        if code in (0, 4):
            degrees = [entry["degree"] for entry in json.loads(out)["methods"].values()]
            assert (None in degrees) == (code == 4) and err == ""
            assert set(degrees) - {None} <= {str(symbol_degree(*symbol))}, method
        else:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n"), method
            assert "Traceback" not in err
    assert codes["chain"] == codes["recurrence"], codes


def test_closed_form_values():
    # the request a 53-bit fixed-point sum refuses
    assert symbol_degree((1, 3, 5, 7), 2, 8) == 77922304
    # the whole space, where the determinant has product form
    for m in range(1, 5):
        for p in range(1, 5):
            top = tuple(range(p + 1, m + p + 1))
            for q in range(6):
                assert symbol_degree(top, q, m + p) == top_degree(m, p, q)


def test_fixed_point_sum_certifies_the_closed_form_or_refuses():
    # every symbol with n <= 8, m <= 4 and dimension <= 24, at three
    # precisions: the sum may refuse, but never rounds to another integer
    certified = refused = 0
    for n in range(2, 9):
        for m in range(1, min(4, n - 1) + 1):
            for columns in itertools.combinations(range(1, n + 1), m):
                base = sum(c - j for j, c in enumerate(columns, start=1))
                for d in range((24 - base) // n + 1):
                    want = symbol_degree(columns, d, n)
                    for bits in (24, 53, 64):
                        try:
                            got = vi_degree(columns, d, m, n - m, precision=bits).value
                        except ToleranceError:
                            refused += 1
                            continue
                        assert got == want, (columns, d, n, bits)
                        certified += 1
    assert certified + refused == 3 * 1273
    assert certified > refused > 0


def test_fixed_point_sum_refuses_at_53_bits_and_certifies_at_64():
    with pytest.raises(ToleranceError, match="noise bound 1.33e-6 exceeds the tolerance"):
        vi_degree((1, 3, 5, 7), 2, 4, 4, precision=53)
    assert vi_degree((1, 3, 5, 7), 2, 4, 4, precision=64).value == 77922304
