"""Correctness gate: compare one op's output with the stored expected answer.

Expected answers live in expected.json, keyed by op string; make_expected.py
derives them from the library where its independent methods agree.  Every
whole-space point of order q = 0 is also checked against rectangle_syt,
a hook-length count that shares nothing with the package.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math


def rectangle_syt(m: int, p: int) -> int:
    """Standard Young tableaux of the m x p rectangle, by the hook-length formula."""
    hooks = 1
    for r in range(m):
        for c in range(p):
            hooks *= (p - c) + (m - r) - 1
    return math.factorial(m * p) // hooks


def parse_op(op: str) -> tuple[str, dict[str, str]]:
    """Split an op string into its subcommand and its --flag values."""
    cmd, *rest = op.split()
    flags = {}
    for i in range(0, len(rest), 2):
        flags[rest[i].removeprefix("--")] = rest[i + 1]
    return cmd, flags


def listing_digest(chains: list[str]) -> str:
    """Digest of a chain listing, each chain as its steps joined by ' -> '."""
    return hashlib.sha256("\n".join(chains).encode()).hexdigest()


def _table_rows(fmt: str, out: str) -> list[list[str]]:
    # canonical rows [q, dim, degree] from any of the three formats
    if fmt == "json":
        return [[r["q"], r["dim"], r["degree"]] for r in json.loads(out)["rows"]]
    if fmt == "csv":
        records = list(csv.DictReader(io.StringIO(out)))
    else:
        lines = [line.split() for line in out.splitlines()]
        records = [dict(zip(lines[0], line)) for line in lines[1:]]
    return [[r["q"], r["dim"], r["degree"]] for r in records]


def _chain_listing(fmt: str, out: str) -> tuple[list[str], str]:
    # (chains, count) from any of the three formats
    if fmt == "json":
        doc = json.loads(out)
        return [" -> ".join(c) for c in doc["chains"]], doc["count"]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))[1:]
        return [r[1] for r in rows[:-1]], rows[-1][1]
    lines = out.splitlines()
    return lines[:-1], lines[-1].removeprefix("count=")


def check(op: str, returncode: int, out: str, expected: dict) -> tuple[list[str], int]:
    """Return (problems, q=0 points checked against the hook-length count).

    An empty problem list means the op exited 0 and every answer in its
    output matches `expected`, the stored record for this op.
    """
    if returncode != 0:
        return [f"exit code {returncode}"], 0
    cmd, flags = parse_op(op)
    fmt = flags.get("format", "json")
    problems: list[str] = []
    hooks = 0

    def want(label, got, value):
        if got != value:
            problems.append(f"{label}: got {got!r}, expected {value!r}")

    def hook(label, m, p, got):
        nonlocal hooks
        hooks += 1
        want(f"{label} vs hook-length count", got, str(rectangle_syt(m, p)))

    try:
        if cmd == "degree":
            doc = json.loads(out)
            method = flags.get("method", "all")
            names = ["chain", "recurrence", "vi"] if method == "all" else [method]
            want("methods", list(doc["methods"]), names)
            for name in names:
                entry = doc["methods"].get(name, {})
                want(f"{name} status", entry.get("status"), "ok")
                want(f"{name} degree", entry.get("degree"), expected["degree"])
                if flags.get("q") == "0":
                    hook(name, int(flags["m"]), int(flags["p"]), entry.get("degree"))
            want("agreement", doc["agreement"], True)
        elif cmd == "correlator":
            doc = json.loads(out)
            want("q", doc["q"], expected["q"])
            want("value", doc["value"], expected["value"])
            m, p = int(flags["m"]), int(flags["p"])
            if flags["powers"].split(",") == [str(m * p)] + ["0"] * (m - 1):
                hook("value", m, p, doc["value"])
        elif cmd == "table":
            rows = _table_rows(fmt, out)
            want("rows", rows, expected["rows"])
            for q, _, degree in rows[:1]:
                if q == "0":
                    hook("q=0 row", int(flags["m"]), int(flags["p"]), degree)
        elif cmd == "chains":
            chains, count = _chain_listing(fmt, out)
            want("count", count, expected["count"])
            want("chains listed", len(chains), expected["listed"])
            want("listing digest", listing_digest(chains), expected["sha256"])
        elif cmd == "verify":
            doc = json.loads(out)
            want("status", doc["status"], "pass")
            want("total failures", doc["total_failures"], "0")
            want("suite cases", {s["name"]: s["cases"] for s in doc["suites"]},
                 expected["suites"])
        else:
            problems.append(f"no check for subcommand {cmd!r}")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems, hooks
