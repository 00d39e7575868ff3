"""In-process tracing of quotdeg's layers, from outside the package.

Instrumentation replaces each traced public function where its caller
looks it up (a module attribute, or RecurrenceTable.degree on the class)
with a wrapper that records a span and the work counts visible at that
boundary.  Nothing in the package is edited, and uninstall() puts every
original back, so the same process can run ops with tracing off.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import Counter, defaultdict
from typing import NamedTuple

# Span names are "<layer>.<function>"; a layer is the module that owns it.
SUITES = {
    "base_case_suite": "base_case",
    "roundtrip_suite": "roundtrip",
    "cross_method_suite": "cross_method",
    "pieri_suite": "pieri",
    "chain_oracle_suite": "chain_oracle",
    "cover_soundness_suite": "cover_soundness",
    "order_agreement_suite": "order_agreement",
    "powersum_suite": "powersum_identity",
}


class Span(NamedTuple):
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index of the enclosing span in the same list, -1 at top level
    op: int  # which op of the run caused it


class Tracer:
    """Collects spans and work counts in memory for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._open: list[tuple[int, str, int]] = []  # (index, name, start)

    def begin(self, name: str) -> None:
        self._open.append((len(self.spans), name, time.perf_counter_ns()))
        self.spans.append(None)  # placeholder keeps parent indices stable

    def end(self) -> None:
        index, name, start = self._open.pop()
        parent = self._open[-1][0] if self._open else -1
        self.spans[index] = Span(name, start, time.perf_counter_ns(), parent, self.op)

    def traced(self, name: str, fn, after=None):
        """Wrap fn in a span; after(result) records counts when fn returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after:
                after(result)
            return result

        return wrapper


class Instrumentation:
    """The set of wrapped lookups; install() and uninstall() swap them in and out."""

    def __init__(self, tracer: Tracer) -> None:
        import quotdeg.chain_degree as chain_degree
        import quotdeg.cli as cli
        import quotdeg.recurrence_degree as recurrence_degree
        import quotdeg.vafa as vafa
        import quotdeg.verify as verify

        self.tracer = tracer
        counts = tracer.counts
        t = tracer.traced
        self.main = t("cli.main", cli.main)

        def degree_chain(fn):
            # supply the memo the function would otherwise create, so its growth shows
            @functools.wraps(fn)
            def with_memo(alpha, memo=None):
                memo = {} if memo is None else memo
                before = len(memo)
                result = fn(alpha, memo)
                counts["chain_degree.degree_chain_calls"] += 1
                counts["chain_degree.memo_entries_added"] += len(memo) - before
                return result

            return t("chain_degree.degree_chain", with_memo)

        def recurrence(fn):
            @functools.wraps(fn)
            def with_growth(table, entries):
                before = len(table.values)
                result = fn(table, entries)
                counts["recurrence_degree.values_filled"] += len(table.values) - before
                return result

            return t("recurrence_degree.degree", with_growth)

        def vi(name, fn, m_p, det):
            def counted(*args, **kwargs):
                m, p = m_p(*args, **kwargs)
                subsets = math.comb(m + p, m)
                counts["vafa.subsets_summed"] += subsets
                counts["vafa.det_terms"] += subsets * math.factorial(m) if det else 0
                try:
                    result = fn(*args, **kwargs)
                except vafa.ToleranceError:
                    counts["vafa.tolerance_failures"] += 1
                    raise
                bits = counts["vafa.precision_bits_max"]
                counts["vafa.precision_bits_max"] = max(bits, result.precision)
                return result

            return t(f"vafa.{name}", functools.wraps(fn)(counted))

        vi_sig = inspect.signature(vafa.vi_degree)

        def vi_degree_m_p(*args, **kwargs):
            bound = vi_sig.bind(*args, **kwargs)
            return bound.arguments["m"], bound.arguments["p"]

        def suite(fn):
            name = SUITES[fn.__name__]

            def cases(result):
                counts[f"verify.{name}_cases"] += result.cases

            return t(f"verify.{name}", fn, cases)

        def leq(fn):
            def calls(result):
                counts["indices.leq_sequence_calls"] += 1

            return t("indices.leq_sequence", fn, calls)

        def listed(result):
            counts["chain_degree.chains_listed"] += len(result.chains)

        vi_degree = vi("vi_degree", vafa.vi_degree, vi_degree_m_p, det=True)
        vi_correlator = vi(
            "vi_correlator", vafa.vi_correlator, lambda spec, **kw: (spec.m, spec.p), det=False
        )
        lg_roots = t("vafa.lg_roots", vafa.lg_roots)
        traced_chain = degree_chain(chain_degree.degree_chain)
        # (owner, attribute, wrapper): every place a caller looks a traced function up
        self.patches = [
            (cli, "degree_chain", traced_chain),
            (cli, "enumerate_chains", t("chain_degree.enumerate_chains", cli.enumerate_chains, listed)),
            (cli, "vi_degree", vi_degree),
            (cli, "vi_correlator", vi_correlator),
            (cli, "run_verify", t("verify.run_verify", cli.run_verify)),
            (chain_degree, "degree_chain", traced_chain),
            (recurrence_degree.RecurrenceTable, "degree",
             recurrence(recurrence_degree.RecurrenceTable.degree)),
            (vafa, "lg_roots", lg_roots),
            (verify, "degree_chain", traced_chain),
            (verify, "vi_degree", vi_degree),
            (verify, "lg_roots", lg_roots),
            (verify, "leq_sequence", leq(verify.leq_sequence)),
            *((verify, fn, suite(getattr(verify, fn))) for fn in SUITES),
        ]
        self.originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self.patches]

    def install(self) -> None:
        for owner, attr, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in self.originals:
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def layer_times(spans: list[Span]) -> dict[str, float]:
    """Milliseconds per span name (inclusive, '<name>_ms') and per layer
    (self time, '<layer>.self_ms')."""
    ms: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        ms[f"{span.name}_ms"] += (span.end - span.start) / 1e6
        ms[f"{span.name.split('.')[0]}.self_ms"] += own / 1e6
    return dict(ms)


def write_csv(spans: list[Span], path) -> None:
    with open(path, "w") as f:
        f.write("index,op,parent,name,start_ns,end_ns\n")
        for i, s in enumerate(spans):
            f.write(f"{i},{s.op},{s.parent},{s.name},{s.start},{s.end}\n")
