"""Regenerate expected.json, the answers the correctness gate compares against.

    PYTHONPATH=src python3 perfbench/make_expected.py

Every answer is computed in-process with the library and kept only where
its independent methods agree: chain count and recurrence always, the
fixed-point sum too wherever m <= 5 keeps it affordable (it is not for the
m >= 6 points of exact_queries).  Correlators have only the fixed-point
method; their value must repeat at twice the working precision, and
sigma_1 powers must equal the chain count.  Every q = 0 whole-space point
must match the hook-length count.  The script also re-derives each vi op's
precision rung and stops if the op string names another one.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from check import listing_digest, parse_op, rectangle_syt
from workloads import PRECISION_LADDER, RESIDUAL_MARGIN, all_ops

from quotdeg import (
    CorrelatorSpec,
    RecurrenceTable,
    SchubertSymbol,
    ToleranceError,
    composite_to_schubert,
    degree_chain,
    enumerate_chains,
    run_verify,
    schubert_to_composite,
    validate_index,
    vi_correlator,
    vi_degree,
)
from quotdeg.vafa import DEFAULT_TOLERANCE

VI_MAX_M = 5
OUT = Path(__file__).with_name("expected.json")


def smallest_rung(evaluate):
    """(bits, value) at the first ladder rung whose sum is well inside tolerance."""
    for bits in PRECISION_LADDER:
        try:
            result = evaluate(bits)
        except ToleranceError:
            continue
        if max(result.residual, result.imag) <= DEFAULT_TOLERANCE * RESIDUAL_MARGIN:
            return bits, result.value
    raise SystemExit("no ladder rung certifies the sum")


def symbol_of(flags):
    """(m, p, SchubertSymbol, alpha) for any of the degree request forms."""
    if "alpha" in flags:
        n = int(flags["n"])
        alpha = validate_index(tuple(int(a) for a in flags["alpha"].split(",")), n)
        return alpha.m, n - alpha.m, composite_to_schubert(alpha), alpha
    m, p = int(flags["m"]), int(flags["p"])
    if "q" in flags:
        symbol = SchubertSymbol(tuple(range(p + 1, m + p + 1)), int(flags["q"]))
    else:
        symbol = SchubertSymbol(tuple(int(c) for c in flags["i"].split(",")), int(flags["d"]))
    return m, p, symbol, schubert_to_composite(symbol, m + p)


def agreed_degree(m, p, symbol, alpha, precision=None):
    """Degree by every affordable method, refusing any disagreement."""
    values = {
        "chain": degree_chain(alpha),
        "recurrence": RecurrenceTable(m, m + p).degree(alpha.entries),
    }
    if m <= VI_MAX_M:
        bits, values["vi"] = smallest_rung(
            lambda b: vi_degree(symbol.columns, symbol.offset, m, p, precision=b)
        )
        if precision is not None and precision != bits:
            raise SystemExit(f"{symbol} for m={m} p={p}: ladder gives {bits} bits, op says {precision}")
    if len(set(values.values())) != 1:
        raise SystemExit(f"{symbol} for m={m} p={p}: methods disagree {values}")
    if symbol.offset == 0 and symbol.columns == tuple(range(p + 1, m + p + 1)):
        if values["chain"] != rectangle_syt(m, p):
            raise SystemExit(f"m={m} p={p} q=0: degree differs from the hook-length count")
    return values["chain"], sorted(values)


def expected_for(op: str) -> dict:
    cmd, flags = parse_op(op)
    if cmd == "degree":
        m, p, symbol, alpha = symbol_of(flags)
        precision = int(flags["precision"]) if "precision" in flags else None
        value, methods = agreed_degree(m, p, symbol, alpha, precision)
        return {"degree": str(value), "agreed": methods}
    if cmd == "correlator":
        m, p = int(flags["m"]), int(flags["p"])
        spec = CorrelatorSpec.from_powers([int(a) for a in flags["powers"].split(",")], m, p)
        bits, value = smallest_rung(lambda b: vi_correlator(spec, precision=b))
        if bits != int(flags["precision"]):
            raise SystemExit(f"{op}: ladder gives {bits} bits")
        if vi_correlator(spec, precision=2 * bits).value != value:
            raise SystemExit(f"{op}: value moves at {2 * bits} bits")
        agreed = ["vi"]
        if spec.powers[1:] == (0,) * (m - 1):
            top = SchubertSymbol(tuple(range(p + 1, m + p + 1)), spec.q)
            if degree_chain(schubert_to_composite(top, m + p)) != value:
                raise SystemExit(f"{op}: sigma_1 power differs from the chain count")
            agreed.append("chain")
        return {"value": str(value), "q": str(spec.q), "agreed": agreed}
    if cmd == "table":
        m, p = int(flags["m"]), int(flags["p"])
        rows = []
        for q in range(int(flags["max-q"]) + 1):
            symbol = SchubertSymbol(tuple(range(p + 1, m + p + 1)), q)
            value, _ = agreed_degree(m, p, symbol, schubert_to_composite(symbol, m + p))
            rows.append([str(q), str(m * p + (m + p) * q), str(value)])
        return {"rows": rows}
    if cmd == "chains":
        alpha = validate_index(tuple(int(a) for a in flags["alpha"].split(",")), int(flags["n"]))
        listing = enumerate_chains(alpha, cap=int(flags.get("cap", 100_000)))
        chains = [" -> ".join(str(step) for step in chain) for chain in listing.chains]
        return {"count": str(listing.total), "listed": len(chains), "sha256": listing_digest(chains)}
    if cmd == "verify":
        report = run_verify(max_n=int(flags["max-n"]), max_dim=int(flags["max-dim"]))
        if not report.ok:
            raise SystemExit(f"{op}: verify fails on this code")
        return {"suites": {s.name: str(s.cases) for s in report.suites}}
    raise SystemExit(f"no expected value for {op!r}")


def main() -> int:
    ops = {}
    for op in all_ops():
        ops[op] = expected_for(op)
        print(op, file=sys.stderr)
    OUT.write_text(json.dumps({"ops": ops}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
