"""Tests of the benchmark itself (not collected by the package's test run).

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from check import check, parse_op, rectangle_syt
from spans import Instrumentation, Span, Tracer, layer_times, self_times
from workloads import PROBE, WORKLOADS, all_ops, decks

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
EXPECTED = json.loads(run.EXPECTED.read_text())["ops"]


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def test_every_op_has_an_expected_answer():
    assert set(all_ops()) == set(EXPECTED)


def test_decks_keep_their_composition_and_follow_the_seed():
    for name, ops in WORKLOADS.items():
        first = next(decks(name, 1))
        assert sorted(first) == sorted(ops)
        assert next(decks(name, 1)) == first
    assert next(decks("exact_queries", 1)) != next(decks("exact_queries", 2))
    assert next(decks("vi_queries", 1, PROBE))[-len(PROBE):] == list(PROBE)


def test_hook_length_count():
    assert [rectangle_syt(m, p) for m, p in ((1, 5), (2, 2), (3, 3), (4, 4), (5, 5))] == [
        1, 2, 42, 24024, 701149020]


def test_harrell_davis_quantiles():
    values = [float(v) for v in range(1, 101)]
    # on 1..n the estimate is E[ceil(n U)] for U ~ Beta(p(n+1), (1-p)(n+1)), i.e. n p + 1/2
    assert run.quantile(values, 0.9) == pytest.approx(90.5)
    assert run.quantile(values[::-1], 0.5) == pytest.approx(50.5)
    assert run.quantile([7.0], 0.9) == pytest.approx(7.0)
    assert run.quantile([3.0] * 12, 0.5) == pytest.approx(3.0)
    light_and_heavy = [100.0] * 85 + [1000.0] * 15
    assert 100 < run.quantile(light_and_heavy, 0.9) < 1000


def spans_of(*rows):
    return [Span(name, start, end, parent, 0) for name, start, end, parent in rows]


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = spans_of(
        ("verify.cross_method", 0, 100, -1),
        ("vafa.vi_degree", 10, 30, 0),
        ("vafa.vi_degree", 25, 50, 0),  # overlaps its sibling: counted once
        ("chain_degree.degree_chain", 90, 120, 0),  # runs past the parent: clipped
        ("vafa.lg_roots", 12, 20, 1),
    )
    assert self_times(spans) == [50, 12, 25, 30, 8]


def test_layer_times_split_inclusive_and_self():
    spans = spans_of(
        ("cli.main", 0, 10_000_000, -1),
        ("vafa.vi_degree", 1_000_000, 7_000_000, 0),
        ("vafa.lg_roots", 1_000_000, 2_000_000, 1),
    )
    assert layer_times(spans) == {
        "cli.main_ms": 10.0, "cli.self_ms": 4.0,
        "vafa.vi_degree_ms": 6.0, "vafa.lg_roots_ms": 1.0, "vafa.self_ms": 6.0,
    }


def test_tracer_links_nested_spans_to_their_parents():
    tracer = Tracer()
    inner = tracer.traced("b.inner", lambda: 1)
    outer = tracer.traced("a.outer", lambda: inner() + inner())
    assert outer() == 2
    assert [(s.name, s.parent) for s in tracer.spans] == [("a.outer", -1), ("b.inner", 0), ("b.inner", 0)]


@pytest.mark.parametrize("op", [op for op in all_ops() if op.split()[0] in ("table", "chains")])
def test_check_reads_every_format_and_catches_a_wrong_answer(op):
    cli = run.load_package()
    _, returncode, out = run.call_main(cli.main, op)
    assert check(op, returncode, out, EXPECTED[op])[0] == []
    assert check(op, 1, out, EXPECTED[op])[0] == ["exit code 1"]
    for key, value in EXPECTED[op].items():
        wrong = {**EXPECTED[op], key: value[:-1] if key == "rows" else "0"}
        assert check(op, returncode, out, wrong)[0], key


def test_check_compares_q0_points_with_the_hook_length_count():
    op = "degree --m 4 --p 4 --q 0 --method chain"
    cli = run.load_package()
    _, returncode, out = run.call_main(cli.main, op)
    assert check(op, returncode, out, EXPECTED[op]) == ([], 1)
    lying = {"degree": "24025"}
    problems, _ = check(op, returncode, out.replace("24024", "24025"), lying)
    assert problems == ["chain vs hook-length count: got '24025', expected '24024'"]


def test_parse_op():
    assert parse_op("table --m 2 --p 3 --max-q 4") == ("table", {"m": "2", "p": "3", "max-q": "4"})


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_work_counts_repeat_exactly_across_runs_and_seeds(workload):
    run.load_package()
    instrumentation = Instrumentation(Tracer())
    outcomes = run.Outcomes(EXPECTED)
    spent = {True: 0.0, False: 0.0}
    counts = [
        run.trace_deck(instrumentation, next(decks(workload, seed, PROBE)), outcomes, spent)
        for seed in (1, 2, 1)
    ]
    assert outcomes.failed == 0 and outcomes.attempted == 6 * (len(WORKLOADS[workload]) + len(PROBE))
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["chain_degree.memo_entries_added"] > 0
    assert counts[0]["verify.order_agreement_cases"] == counts[0]["indices.leq_sequence_calls"]
    assert all(s is not None for s in instrumentation.tracer.spans)
