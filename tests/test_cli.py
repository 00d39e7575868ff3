import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import quotdeg
from quotdeg.cli import main
from quotdeg.recurrence_degree import RecurrenceTable, quot_degree


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_degree_by_order_json(capsys):
    code, out, err = run_cli(capsys, "degree", "--m", "2", "--p", "2", "--q", "1")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "degree"
    assert doc["request"] == {
        "m": "2",
        "p": "2",
        "q": "1",
        "n": "4",
        "i": "3,4",
        "d": "1",
        "alpha": "4,7",
        "dim": "8",
    }
    assert set(doc["methods"]) == {"chain", "recurrence", "vi"}
    for entry in doc["methods"].values():
        assert entry == {"degree": "8", "status": "ok"}
    assert doc["agreement"] is True


def test_degree_json_round_trips_byte_identically(capsys):
    code, out, _ = run_cli(capsys, "degree", "--n", "4", "--alpha", "4,7")
    assert code == 0
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_degree_request_forms_agree(capsys):
    _, by_q, _ = run_cli(capsys, "degree", "--m", "2", "--p", "2", "--q", "1")
    _, by_symbol, _ = run_cli(
        capsys, "degree", "--m", "2", "--p", "2", "--i", "3,4", "--d", "1"
    )
    _, by_alpha, _ = run_cli(capsys, "degree", "--n", "4", "--alpha", "4,7")
    docs = [json.loads(s) for s in (by_q, by_symbol, by_alpha)]
    assert docs[0]["methods"] == docs[1]["methods"] == docs[2]["methods"]
    # the q echo is the one field that depends on the request form
    assert docs[0]["request"]["q"] == "1"
    assert docs[1]["request"]["q"] is None
    assert docs[2]["request"]["q"] is None


def test_degree_single_method(capsys):
    code, out, _ = run_cli(
        capsys, "degree", "--m", "1", "--p", "3", "--q", "2", "--method", "chain"
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc["methods"]) == ["chain"]
    assert doc["methods"]["chain"]["degree"] == "1"
    assert doc["agreement"] is True


def test_degree_symbol_defaults_to_zero_offset(capsys):
    code, out, _ = run_cli(capsys, "degree", "--m", "2", "--p", "2", "--i", "3,4")
    assert code == 0
    doc = json.loads(out)
    assert doc["request"]["d"] == "0"
    assert doc["methods"]["chain"]["degree"] == "2"


def test_degree_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "degree", "--m", "2", "--p", "2", "--q", "1", "--format", "text"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "request: m=2 p=2 q=1 n=4 i=3,4 d=1 alpha=4,7 dim=8"
    assert "chain: 8" in lines
    assert lines[-1] == "agreement: true"


def test_degree_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "degree", "--m", "2", "--p", "2", "--q", "1", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["method", "degree", "status"]
    assert ["chain", "8", "ok"] in rows


@pytest.mark.parametrize(
    "argv",
    [
        ("degree",),  # no request form at all
        ("degree", "--n", "4", "--alpha", "4,7", "--m", "2"),  # mixed forms
        ("degree", "--m", "2", "--i", "3,4"),  # --i without --p
        ("degree", "--m", "2", "--p", "2", "--i", "2,5"),  # column above n
        ("degree", "--n", "4", "--alpha", "1,6"),  # wide index, no symbol
        ("degree", "--n", "4", "--alpha", "1,5"),  # residue clash
        ("degree", "--m", "2", "--p", "2", "--q", "-1"),  # negative order
        ("degree", "--m", "2", "--p", "2", "--q", "1", "--nonsense"),
        ("nonsense",),
        # tolerances that would certify anything, or nothing
        ("degree", "--m", "3", "--p", "3", "--q", "4", "--method", "vi",
         "--precision", "31", "--tolerance", "nan"),
        ("degree", "--m", "2", "--p", "2", "--q", "1", "--tolerance", "inf"),
        ("degree", "--m", "2", "--p", "2", "--q", "1", "--tolerance", "0"),
        ("correlator", "--m", "2", "--p", "2", "--powers", "8,0", "--tolerance=-1e-6"),
        # flags from a second request form
        ("degree", "--m", "2", "--p", "2", "--q", "1", "--d", "7"),
        ("degree", "--m", "2", "--p", "2", "--q", "1", "--n", "9"),
        ("degree", "--m", "2", "--p", "2", "--i", "3,4", "--q", "5"),
        ("degree", "--m", "2", "--p", "2", "--i", "3,4", "--n", "11"),
        ("degree", "--n", "4", "--alpha", "4,7", "--q", "1"),
        # numeric options where no fixed-point sum runs
        ("table", "--m", "2", "--p", "2", "--max-q", "1", "--precision", "3",
         "--tolerance", "0.1"),
        ("chains", "--n", "4", "--alpha", "3,4", "--precision", "60"),
        # precision below 4 bits, refused before any method runs
        ("degree", "--m", "6", "--p", "6", "--q", "20", "--precision", "3"),
        ("degree", "--m", "2", "--p", "2", "--q", "1", "--method", "chain",
         "--precision", "-5"),
        ("correlator", "--m", "2", "--p", "2", "--powers", "8,0", "--precision", "3"),
        ("verify", "--max-n", "3", "--max-dim", "4", "--precision", "2"),
        # precision above the 1,024-bit ceiling, refused before any method runs
        ("degree", "--m", "2", "--p", "2", "--q", "1", "--method", "vi",
         "--precision", "200000"),
        ("correlator", "--m", "2", "--p", "2", "--powers", "8,0", "--precision", "1025"),
        ("verify", "--precision", "200000"),
        # no --duality option: tests/test_duality.py asserts the duality
        ("verify", "--max-n", "4", "--max-dim", "8", "--duality"),
        # p <= 0 in the --i form, refused like the --q and --alpha forms
        ("degree", "--m", "2", "--p", "0", "--i", "1,2"),
        ("degree", "--m", "2", "--p", "-1", "--i", "1,2"),
        # a column count other than m names nothing for that m
        ("degree", "--m", "3", "--p", "2", "--i", "2,3", "--d", "1", "--method", "chain"),
        ("degree", "--m", "2", "--p", "2", "--i", "3", "--method", "chain"),
        ("degree", "--m", "2", "--p", "2", "--i", "1,2,3"),
        # a verify grid whose order-agreement sweep alone would check
        # 609,388,548 pairs, refused before any suite runs
        ("verify", "--max-n", "12"),
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err != ""


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["degree", "-h"], ["correlator", "-h"], ["table", "-h"], ["chains", "-h"],
     ["verify", "-h"]],
)
def test_help_exits_zero_on_stdout(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: quotdeg") and err == ""


def test_argparse_error_exits_one_with_usage(capsys):
    # argparse's own refusals (here a bad int) exit 1, not argparse's 2
    code, out, err = run_cli(capsys, "degree", "--m", "x")
    assert code == 1 and out == ""
    assert err.startswith("usage: quotdeg degree")
    assert "quotdeg degree: error:" in err


@pytest.mark.parametrize(
    "argv, line",
    [
        (("degree", "--n", "4", "--alpha", "3,x"),
         "quotdeg degree: error: argument --alpha: expected comma-separated integers, got '3,x'"),
        (("degree", "--m", "2", "--p", "2", "--q", "1", "--precision", "abc"),
         "quotdeg degree: error: argument --precision: invalid int value: 'abc'"),
        (("table", "--m", "2", "--p", "2", "--max-q", "-1"),
         "quotdeg: error: --max-q must be nonnegative, got -1"),
        (("verify", "--max-dim", "-1"),
         "quotdeg: error: --max-dim must be nonnegative, got -1"),
    ],
    ids=["alpha", "precision", "table.max_q", "verify.max_dim"],
)
def test_refusal_ends_with_its_error_line(capsys, argv, line):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == line


def test_low_precision_is_refused_before_any_method_runs(capsys, monkeypatch):
    import quotdeg.cli as cli

    monkeypatch.setattr(cli, "degree_chain", lambda *args: pytest.fail("a method ran"))
    code, out, err = run_cli(
        capsys, "degree", "--m", "6", "--p", "6", "--q", "20", "--precision", "3"
    )
    assert code == 1 and out == ""
    assert "precision must be at least 4 bits, got 3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("degree", "--m", "30", "--p", "30", "--q", "0", "--method", "vi"),
        ("correlator", "--m", "30", "--p", "30", "--powers", ",".join(["900"] + ["0"] * 29)),
        # the walk and the box would pass their own checks: under --method
        # all the fixed-point estimate refuses before either starts
        ("degree", "--m", "10", "--p", "9", "--q", "1"),
    ],
    ids=["degree", "correlator", "degree-all-methods"],
)
def test_oversized_fixed_point_sum_exits_one_at_once(capsys, monkeypatch, argv):
    # about 2 * 10^15 orbit terms: refused from m and n alone, before any root
    import quotdeg.chain_degree as chain_degree

    monkeypatch.setattr(chain_degree, "_cell", lambda *a: pytest.fail("walk ran"))
    monkeypatch.setattr(RecurrenceTable, "_box", lambda *a: pytest.fail("box was filled"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("quotdeg: error: fixed-point sum too large: an estimated ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("degree", "--m", "30", "--p", "30", "--q", "0"),
        ("degree", "--m", "30", "--p", "30", "--q", "0", "--method", "recurrence"),
        ("table", "--m", "30", "--p", "30", "--max-q", "0"),
    ],
    ids=["degree", "degree-recurrence", "table"],
)
def test_oversized_lower_set_exits_one_at_once(capsys, monkeypatch, argv):
    # 31 * C(59, 29) tuples could lie below (31, ..., 60): refused from the
    # top index alone, so neither the chain walk nor the box fill starts
    import quotdeg.chain_degree as chain_degree

    monkeypatch.setattr(chain_degree, "_cell", lambda *a: pytest.fail("walk ran"))
    monkeypatch.setattr(RecurrenceTable, "_box", lambda *a: pytest.fail("box was filled"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith(
        f"quotdeg: error: lower set too large: an estimated {31 * math.comb(59, 29)} tuples"
    )
    assert err.rstrip().endswith("exceed the limit 1000000")


def test_table_fills_its_largest_box_first(capsys, monkeypatch):
    # the q = 20 box holds every smaller one, so a sweep fills one box and
    # reads q = 0..19 back from the chain memo and the recurrence values
    boxes = []
    real = RecurrenceTable._box

    def counting(self, top):
        boxes.append(top)
        return real(self, top)

    monkeypatch.setattr(RecurrenceTable, "_box", counting)
    code, out, _ = run_cli(
        capsys, "table", "--m", "6", "--p", "6", "--max-q", "20", "--format", "csv"
    )
    assert code == 0
    assert [row[2] for row in csv.reader(io.StringIO(out))][1:] == [str(q) for q in range(21)]
    assert len(boxes) == 1

    # so an oversized --max-q is refused before any box or walk: q = 200 at
    # (8, 8) is over the lower-set limit, though q = 0..74 are not
    import quotdeg.chain_degree as chain_degree

    monkeypatch.setattr(chain_degree, "_cell", lambda *a: pytest.fail("walk ran"))
    monkeypatch.setattr(RecurrenceTable, "_box", lambda *a: pytest.fail("box was filled"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "table", "--m", "8", "--p", "8", "--max-q", "200")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("quotdeg: error: lower set too large: an estimated ")


def test_too_deep_chain_walk_exits_one_at_once(capsys, monkeypatch):
    # (10^6,) mod 2 passes the lower-set bound with exactly 10^6 tuples, but
    # the walk would be 999,999 steps deep: refused from the index alone
    import quotdeg.chain_degree as chain_degree

    monkeypatch.setattr(chain_degree, "_cell", lambda *a: pytest.fail("walk ran"))
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "degree", "--n", "2", "--alpha", "1000000", "--method", "chain"
    )
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == (
        "quotdeg: error: chain walk too deep: 999999 steps down from (1000000,) mod 2 "
        "exceed the limit 100000\n"
    )


@pytest.mark.parametrize(
    "n,alpha,method,message",
    [
        ("100000000", "40", "chain", "lower set too large: an estimated 40 tuples below (40,) "
         "mod 100000000, times 1562501 64-bit words per cell, exceed the limit 1000000"),
        ("100000000", "40", "recurrence", "lower set too large: an estimated 40 tuples below "
         "(40,) mod 100000000, times 1562501 64-bit words per cell, exceed the limit 1000000"),
        ("1000000000", "40", "chain", "lower set too large: an estimated 40 tuples below (40,) "
         "mod 1000000000, times 15625001 64-bit words per cell, exceed the limit 1000000"),
        ("100000000", "40", "vi", "fixed-point sum too large: an estimated 2 units of work (1 "
         "rotation orbits times 2 per term) and 12800000000 for the root table (200000000 "
         "entries times 64) exceed the limit 2000000"),
        # the bottom is weighed like any other top, by both integer methods
        *(("100000000", "1", method, "lower set too large: an estimated 1 tuples below (1,) "
           "mod 100000000, times 1562501 64-bit words per cell, exceed the limit 1000000")
          for method in ("chain", "recurrence", "all")),
    ],
    ids=["chain-1e8", "recurrence-1e8", "chain-1e9", "vi-1e8",
         "bottom-chain-1e8", "bottom-recurrence-1e8", "bottom-all-1e8"],
)
def test_oversized_period_exits_one_at_once(capsys, monkeypatch, n, alpha, method, message):
    # (40,) has 40 tuples below it, but each cell holds n bits, and the
    # fixed-point sum's root table has 2n entries: refused from n alone,
    # where these requests once ran for seconds and hundreds of megabytes
    import quotdeg.chain_degree as chain_degree
    import quotdeg.vafa as vafa

    monkeypatch.setattr(chain_degree, "_cell", lambda *a: pytest.fail("walk ran"))
    monkeypatch.setattr(RecurrenceTable, "_box", lambda *a: pytest.fail("box was filled"))
    monkeypatch.setattr(vafa, "lg_roots", lambda *a: pytest.fail("roots were built"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "degree", "--n", n, "--alpha", alpha, "--method", method)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == f"quotdeg: error: {message}\n"


def test_oversized_counts_exit_one_at_once(capsys, monkeypatch):
    # 600,009 tuples pass the cell-word bound, but their counts reach 400,004
    # bits: about 5 GB by the trend of the 852 MB that q = 40,000 once took
    monkeypatch.setattr(RecurrenceTable, "_box", lambda *a: pytest.fail("box was filled"))
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "degree", "--m", "2", "--p", "2", "--q", "100000", "--method", "recurrence"
    )
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == (
        "quotdeg: error: counts too large: an estimated 600009 tuples below (200003, 200004) "
        "mod 4, each holding a count of up to 400004 bits, take 3750656259 64-bit words, "
        "past the limit 200000000\n"
    )


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_oversized_chain_listing_exits_one_at_once(capsys, monkeypatch, fmt):
    # under the default cap this listed 40 * 10^6 steps: 31.6 s, 4.7 GB and
    # 637 MB of JSON, with exit 0
    import quotdeg.chain_degree as chain_degree

    monkeypatch.setattr(chain_degree, "_iter_chain_tuples", lambda *a: pytest.fail("chain built"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "chains", "--n", "4", "--alpha", "200,201", "--format", fmt)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == (
        "quotdeg: error: chain listing too large: 100000 chains of 399 steps each "
        "exceed the limit 2000000 listed steps; lower --cap\n"
    )


def test_oversized_fixed_point_sum_exits_four_at_once(capsys, monkeypatch):
    # the sum's value has about 4 * 10^10 bits; rounding it first once took
    # gigabytes and ended in a MemoryError traceback
    import quotdeg.vafa as vafa

    monkeypatch.setattr(vafa._kernel(), "to_int", lambda *a: pytest.fail("sum rounded"))
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "degree", "--m", "2", "--p", "2", "--i", "1,2", "--d", "10000000000",
        "--method", "vi",
    )
    assert time.perf_counter() - start < 1
    assert code == 4 and err == ""
    status = json.loads(out)["methods"]["vi"]["status"]
    assert status.startswith("tolerance failure: noise bound "), status


def test_degree_tolerance_failure_exits_four(capsys):
    code, out, err = run_cli(
        capsys,
        "degree", "--m", "2", "--p", "2", "--q", "1",
        "--precision", "12", "--tolerance", "1e-9",
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["methods"]["chain"]["degree"] == "8"
    assert doc["methods"]["vi"]["degree"] is None
    assert doc["methods"]["vi"]["status"].startswith("tolerance failure")
    assert doc["agreement"] is False


@pytest.mark.parametrize(
    "argv,degree",
    [
        # the max|term| * #terms noise bound let these two print 17 and 0
        ("degree --m 2 --p 2 --i 1,3 --d 2 --precision 7 --tolerance 0.49 --method vi", 16),
        ("degree --m 1 --p 2 --i 1 --d 8 --precision 4 --tolerance 0.25 --method vi", 1),
        # and with one term per orbit, this one print 0
        ("degree --m 5 --p 1 --i 1,2,3,4,5 --d 5 --precision 4 --tolerance 0.1 --method vi", 1),
    ],
)
def test_low_precision_vi_prints_the_degree_or_refuses(capsys, argv, degree):
    code, out, _ = run_cli(capsys, *argv.split())
    vi = json.loads(out)["methods"]["vi"]
    assert (code, vi["degree"]) in ((0, str(degree)), (4, None))


def test_degree_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "degree", "--m", "3", "--p", "2", "--q", "1")
    _, second, _ = run_cli(capsys, "degree", "--m", "3", "--p", "2", "--q", "1")
    assert first == second


def test_degree_verbose_adds_evidence(capsys):
    code, out, _ = run_cli(
        capsys, "degree", "--m", "2", "--p", "2", "--q", "1", "--verbose"
    )
    assert code == 0
    doc = json.loads(out)
    assert "elapsed_ms" in doc["methods"]["chain"]
    assert "raw" in doc["methods"]["vi"]
    assert "residual" in doc["methods"]["vi"]


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "--m", "2", "--p", "2", "--max-q", "2"),
        ("chains", "--n", "4", "--alpha", "3,6"),
        ("verify", "--max-n", "3", "--max-dim", "4"),
    ],
    ids=["table", "chains", "verify"],
)
def test_verbose_adds_only_elapsed_ms(capsys, argv):
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, _ = run_cli(capsys, *argv, "--verbose")
    assert code == 0
    doc = json.loads(out)
    assert list(doc)[-1] == "elapsed_ms"
    assert float(doc.pop("elapsed_ms")) >= 0
    assert doc == json.loads(plain)


@pytest.mark.parametrize(
    "argv",
    [
        ("degree", "--m", "2", "--p", "2", "--q", "1"),
        ("correlator", "--m", "2", "--p", "2", "--powers", "8,0"),
    ],
    ids=["degree", "correlator"],
)
def test_verbose_json_ends_with_elapsed_ms(capsys, argv):
    # besides the whole command's time, only the fixed-point evidence and
    # degree's per-method times are added
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, _ = run_cli(capsys, *argv, "--verbose")
    assert code == 0
    doc = json.loads(out)
    assert list(doc)[-1] == "elapsed_ms"
    assert float(doc.pop("elapsed_ms")) >= 0
    evidence = ("raw", "residual", "imag", "elapsed_ms")
    for entry in [doc, *doc.get("methods", {}).values()]:
        for key in evidence:
            entry.pop(key, None)
    assert doc == json.loads(plain)


def test_precision_environment_variable_is_ignored(capsys, monkeypatch):
    # precision comes from --precision alone; an integer-only request runs no
    # fixed-point sum and must not read any precision setting
    monkeypatch.setenv("QUOTDEG_PRECISION", "abc")
    code, _, _ = run_cli(capsys, "degree", "--m", "2", "--p", "2", "--q", "1", "--method", "chain")
    assert code == 0
    code, out, _ = run_cli(capsys, "degree", "--m", "2", "--p", "2", "--q", "1")
    assert code == 0
    assert json.loads(out)["precision"] == "53"


def test_correlator_json(capsys):
    code, out, err = run_cli(
        capsys, "correlator", "--m", "2", "--p", "2", "--powers", "8,0"
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "correlator"
    assert doc["q"] == "1"
    assert doc["value"] == "8"
    assert json.dumps(doc, indent=2) + "\n" == out


def test_correlator_csv(capsys):
    code, out, _ = run_cli(
        capsys, "correlator", "--m", "2", "--p", "2", "--powers", "4,0",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "p", "powers", "q", "n", "value"]
    assert rows[1] == ["2", "2", "4,0", "0", "4", "2"]


def test_correlator_dimension_mismatch_exits_three(capsys):
    code, out, err = run_cli(
        capsys, "correlator", "--m", "2", "--p", "2", "--powers", "3,0"
    )
    assert code == 3
    assert out == ""
    assert "dimension mismatch" in err


def test_table_csv(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--m", "2", "--p", "2", "--max-q", "2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "p", "q", "n", "dim", "degree"]
    assert rows[1] == ["2", "2", "0", "4", "4", "2"]
    assert rows[2] == ["2", "2", "1", "4", "8", "8"]
    assert rows[3] == ["2", "2", "2", "4", "12", str(quot_degree(2, 2, 2))]
    assert len(rows) == 4


def test_table_text_alignment(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--m", "2", "--p", "3", "--max-q", "1", "--format", "text"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].split() == ["m", "p", "q", "n", "dim", "degree"]
    assert lines[1].split() == ["2", "3", "0", "5", "6", "5"]
    assert all(len(line) == len(lines[0]) for line in lines[1:])


def test_table_disagreement_exits_two(capsys, monkeypatch):
    import quotdeg.cli as cli

    monkeypatch.setattr(cli, "degree_chain", lambda alpha, memo=None: 0)
    code, out, err = run_cli(capsys, "table", "--m", "2", "--p", "2", "--max-q", "1")
    assert code == 2
    assert out == ""
    assert err == "quotdeg: methods disagree at q=0: chain=0 recurrence=2\n"


def test_chains_text(capsys):
    code, out, _ = run_cli(
        capsys, "chains", "--n", "4", "--alpha", "3,4", "--format", "text"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines == [
        "1,2 -> 1,3 -> 1,4 -> 2,4 -> 3,4",
        "1,2 -> 1,3 -> 2,3 -> 2,4 -> 3,4",
        "count=2",
    ]


def test_chains_json_with_cap(capsys):
    code, out, _ = run_cli(
        capsys, "chains", "--n", "4", "--alpha", "4,7", "--cap", "3"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == "8"
    assert doc["capped"] is True
    assert len(doc["chains"]) == 3
    assert doc["chains"][0][0] == "1,2"
    assert doc["chains"][0][-1] == "4,7"


def test_chains_csv_has_trailing_count_row(capsys):
    code, out, _ = run_cli(
        capsys, "chains", "--n", "4", "--alpha", "3,4", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["chain", "steps"]
    assert rows[1] == ["1", "1,2 -> 1,3 -> 1,4 -> 2,4 -> 3,4"]
    assert rows[-1] == ["count", "2"]


@pytest.mark.parametrize("alpha", ["2,3,4,5", "1,2,3,4"])
def test_chains_refuses_an_index_with_no_room_for_p(capsys, alpha):
    # m = n leaves p = 0: refused with degree's message, not listed
    want = "quotdeg: error: index length 4 needs period at least 5\n"
    assert run_cli(capsys, "chains", "--n", "4", "--alpha", alpha) == (1, "", want)
    assert run_cli(capsys, "degree", "--n", "4", "--alpha", alpha) == (1, "", want)


def test_verify_passes(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--max-n", "4", "--max-dim", "8"
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["total_failures"] == "0"
    assert "duality" not in doc


def test_verify_is_deterministic(capsys):
    args = ("verify", "--max-n", "4", "--max-dim", "8")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_injected_fault_exits_two(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--max-n", "4", "--max-dim", "8", "--inject-fault"
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "fail"
    assert doc["fault_injected"] is True
    assert int(doc["total_failures"]) > 0


def test_degrees_of_any_length_print(capsys):
    # 4,817 digits, past CPython's 4,300-digit limit on int -> str
    values = {}
    for method in ("chain", "recurrence"):
        code, out, err = run_cli(
            capsys, "degree", "--m", "2", "--p", "2", "--q", "8000", "--method", method
        )
        assert code == 0 and err == ""
        values[method] = json.loads(out)["methods"][method]["degree"]
    assert values["chain"] == values["recurrence"]
    assert len(values["chain"]) == 4817
    # main() puts the limit back, and it still guards integer arguments
    if hasattr(sys, "get_int_max_str_digits"):
        assert sys.get_int_max_str_digits() > 0
        code, _, err = run_cli(capsys, "degree", "--m", "2", "--p", "2", "--q", "9" * 5000)
        assert code == 1 and "invalid int value" in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "quotdeg", "degree", "--m", "2", "--p", "2", "--q", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["methods"]["chain"]["degree"] == "2"


def _run_to_stdout(stdout, *argv, **kwargs):
    """Run `python -m quotdeg argv` with the given stdout and block-buffered
    stdio, the default outside a terminal, so any report the exit flush
    retries would show on stderr."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "quotdeg", *argv],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, **kwargs,
    )


def _assert_unwritable(proc, reason):
    assert proc.returncode == 1
    assert proc.stderr == f"quotdeg: error: cannot write output: {reason}\n"
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_closed_pipe_ends_in_one_error_line():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_to_stdout(write_end, "chains", "--n", "6", "--alpha", "5,9,10", "--cap", "1000")
    finally:
        os.close(write_end)
    _assert_unwritable(proc, "[Errno 32] Broken pipe")


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_pipe_closed_mid_report_ends_in_one_error_line(unbuffered):
    # the report (about 300 KB) outgrows the pipe, so the reader closes it
    # while the write is blocked; unbuffered stdio then sees a short write
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "quotdeg", "chains", "--n", "6", "--alpha", "5,9,10", "--cap", "1000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    assert proc.stdout.read(1) == "{"
    proc.stdout.close()
    with proc.stderr:
        stderr = proc.stderr.read()
    proc.wait(timeout=60)
    done = subprocess.CompletedProcess(proc.args, proc.returncode, None, stderr)
    _assert_unwritable(done, "[Errno 32] Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_full_device_ends_in_one_error_line(fmt):
    with open("/dev/full", "w") as full:
        proc = _run_to_stdout(
            full, "degree", "--m", "2", "--p", "2", "--q", "1", "--method", "chain", "--format", fmt
        )
    _assert_unwritable(proc, "[Errno 28] No space left on device")


@pytest.mark.skipif(os.name != "posix", reason="closes the child's fd 1 before it starts")
def test_closed_stdout_ends_in_one_error_line():
    proc = _run_to_stdout(
        None, "degree", "--m", "2", "--p", "2", "--q", "1", "--method", "chain",
        preexec_fn=lambda: os.close(1),
    )
    _assert_unwritable(proc, "[Errno 9] stdout is closed")


IMPORT_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from quotdeg.cli import main

loaded = []
for argv in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv.split()) == 0, argv
    loaded.append(sorted(sys.modules))
print(json.dumps(loaded))
"""

INTEGER_REQUESTS = (
    "degree --m 3 --p 3 --q 4 --method chain",
    "degree --m 3 --p 3 --q 4 --method recurrence",
    "table --m 2 --p 2 --max-q 3",
    "chains --n 4 --alpha 4,7",
)


def _modules_after(*requests, flags=()):
    """sys.modules of a fresh interpreter, sorted, after each request in
    turn; this one has imported mpmath already."""
    src = str(Path(quotdeg.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", IMPORT_PROBE, src, *requests],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _float_stack(modules):
    return [
        name for name in modules
        if name == "fractions" or name.partition(".")[0] == "mpmath"
        or name.split(".")[:2] == ["quotdeg", "_libmp"]
    ]


def test_integer_commands_never_load_the_float_stack():
    *integer, vi = _modules_after(
        *INTEGER_REQUESTS, "degree --m 3 --p 3 --q 4 --method vi --precision 80"
    )
    assert [_float_stack(modules) for modules in integer] == [[], [], [], []]
    # the sum runs on five of mpmath's kernel modules, loaded without
    # mpmath/__init__ or libmp's own __init__, so neither the special
    # functions (gammazeta, libhyper) nor the intervals (libmpi) load
    kernel = ["backend", "libelefun", "libintmath", "libmpc", "libmpf"]
    want = ["quotdeg._libmp", *(f"quotdeg._libmp.{name}" for name in kernel)]
    assert _float_stack(vi) == want
    # and so do a whole degree request and a correlator, each on its own
    for request in (
        "degree --m 5 --p 5 --q 2 --precision 104",
        "correlator --m 4 --p 4 --powers 6,1,0,4 --precision 53",
    ):
        [modules] = _modules_after(request)
        assert _float_stack(modules) == want, request


def test_integer_commands_never_load_the_introspection_stack():
    # -S: no site hooks, so every module loaded is one the program asked for
    *_, modules = _modules_after(*INTEGER_REQUESTS, flags=("-S",))
    assert sorted({"csv", "dataclasses", "inspect", "typing"} & set(modules)) == []
