"""Command line front end: degree, correlator, table, chains, verify.

Reports default to JSON with every numeric value emitted as a string (the
integers here outgrow doubles quickly) and a fixed key order, so identical
invocations produce byte-identical output.  Timing and raw floating-point
evidence only appear under --verbose.  Exit codes: 0 success, 1 usage
error, 2 method disagreement or invariant failure, 3 dimension mismatch,
4 numeric tolerance failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from .chain_degree import DEFAULT_CHAIN_CAP, degree_chain, enumerate_chains
from .indices import (
    CompositeIndex,
    InvalidIndexError,
    SchubertSymbol,
    composite_to_schubert,
    schubert_to_composite,
    symbol_dimension,
    validate_index,
)
from .recurrence_degree import RecurrenceTable, quot_degree
from .vafa import (
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCE,
    CorrelatorSpec,
    DimensionMismatchError,
    ToleranceError,
    check_tolerance,
    vi_correlator,
    vi_degree,
)
from .verify import run_verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DISAGREEMENT = 2
EXIT_DIMENSION = 3
EXIT_TOLERANCE = 4

PRECISION_ENV = "QUOTDEG_PRECISION"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this interface reserves 2 for
    # disagreements, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _tolerance(text: str) -> float:
    try:
        return check_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _resolve_precision(args) -> int:
    if args.precision is not None:
        return args.precision
    env = os.environ.get(PRECISION_ENV)
    if env is not None and env != "":
        try:
            value = int(env)
        except ValueError:
            raise InvalidIndexError(f"{PRECISION_ENV}={env!r} is not an integer")
        if value < 4:
            raise InvalidIndexError(f"{PRECISION_ENV}={env!r} is below 4 bits")
        return value
    return DEFAULT_PRECISION


def _emit_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _emit_csv(header: list[str], rows: list[list[str]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _fmt_ms(seconds: float) -> str:
    return format(seconds * 1000.0, ".3f")


def _method_entry(degree: int | None, status: str, verbose_extra=None) -> dict:
    entry = {"degree": None if degree is None else str(degree), "status": status}
    if verbose_extra:
        entry.update(verbose_extra)
    return entry


def cmd_degree(args) -> int:
    precision = _resolve_precision(args)
    tolerance = args.tolerance

    # accept exactly one of the three request forms
    if args.alpha is not None:
        if args.n is None or args.m is not None or args.p is not None:
            raise InvalidIndexError("--alpha goes with --n and nothing else")
        alpha = validate_index(args.alpha, args.n)
        symbol = composite_to_schubert(alpha)
        m, n = alpha.m, alpha.n
        p = n - m
        if p < 1:
            raise InvalidIndexError(f"index length {m} needs period at least {m + 1}")
        q_echo = None
    elif args.i is not None:
        if args.m is None or args.p is None:
            raise InvalidIndexError("--i needs --m and --p")
        m, p = args.m, args.p
        n = m + p
        symbol = SchubertSymbol(args.i, args.d if args.d is not None else 0)
        alpha = schubert_to_composite(symbol, n)
        q_echo = None
    elif args.q is not None:
        if args.m is None or args.p is None:
            raise InvalidIndexError("--q needs --m and --p")
        m, p = args.m, args.p
        if m < 1 or p < 1:
            raise InvalidIndexError(f"m and p must be positive, got m={m} p={p}")
        n = m + p
        symbol = SchubertSymbol(tuple(range(p + 1, n + 1)), args.q)
        alpha = schubert_to_composite(symbol, n)
        q_echo = str(args.q)
    else:
        raise InvalidIndexError(
            "give --m/--p/--q, or --m/--p/--i/--d, or --n/--alpha"
        )
    if symbol.columns[-1] > n or any(
        c > p + l for l, c in enumerate(symbol.columns, start=1)
    ):
        raise InvalidIndexError(
            f"columns {symbol.columns} name nothing for m={m} p={p}"
        )

    dim = symbol_dimension(symbol, n)
    wanted = ["chain", "recurrence", "vi"] if args.method == "all" else [args.method]
    methods: dict[str, dict] = {}
    tolerance_failed = False
    for name in wanted:
        start = time.perf_counter()
        extra = {}
        try:
            if name == "chain":
                value = degree_chain(alpha)
            elif name == "recurrence":
                value = RecurrenceTable(m, n).degree(alpha.entries)
            else:
                result = vi_degree(
                    symbol.columns,
                    symbol.offset,
                    m,
                    p,
                    precision=precision,
                    tolerance=tolerance,
                )
                value = result.value
                if args.verbose:
                    extra = {
                        "raw": str(result.raw),
                        "residual": repr(result.residual),
                        "imag": repr(result.imag),
                    }
        except ToleranceError as exc:
            tolerance_failed = True
            entry = _method_entry(None, f"tolerance failure: {exc}")
            if args.verbose:
                entry["elapsed_ms"] = _fmt_ms(time.perf_counter() - start)
            methods[name] = entry
            continue
        if args.verbose:
            extra["elapsed_ms"] = _fmt_ms(time.perf_counter() - start)
        methods[name] = _method_entry(value, "ok", extra)

    produced = [v["degree"] for v in methods.values() if v["status"] == "ok"]
    agreement = len(produced) == len(methods) and len(set(produced)) == 1

    doc = {
        "command": "degree",
        "request": {
            "m": str(m),
            "p": str(p),
            "q": q_echo,
            "n": str(n),
            "i": ",".join(str(c) for c in symbol.columns),
            "d": str(symbol.offset),
            "alpha": str(alpha),
            "dim": str(dim),
        },
        "precision": str(precision),
        "tolerance": str(tolerance),
        "methods": methods,
        "agreement": agreement,
    }
    if args.format == "json":
        _emit_json(doc)
    elif args.format == "csv":
        _emit_csv(
            ["method", "degree", "status"],
            [[k, v["degree"] if v["degree"] is not None else "", v["status"]]
             for k, v in methods.items()],
        )
    else:
        req = doc["request"]
        parts = [f"{k}={req[k]}" for k in ("m", "p", "q", "n", "i", "d", "alpha", "dim")
                 if req[k] is not None]
        sys.stdout.write("request: " + " ".join(parts) + "\n")
        for k, v in methods.items():
            shown = v["degree"] if v["degree"] is not None else v["status"]
            sys.stdout.write(f"{k}: {shown}\n")
        sys.stdout.write(f"agreement: {str(agreement).lower()}\n")
    if tolerance_failed:
        return EXIT_TOLERANCE
    if not agreement:
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_correlator(args) -> int:
    precision = _resolve_precision(args)
    tolerance = args.tolerance
    if args.m < 1 or args.p < 1:
        raise InvalidIndexError(f"m and p must be positive, got m={args.m} p={args.p}")
    spec = CorrelatorSpec.from_powers(args.powers, args.m, args.p)
    start = time.perf_counter()
    result = vi_correlator(spec, precision=precision, tolerance=tolerance)
    elapsed = time.perf_counter() - start
    doc = {
        "command": "correlator",
        "request": {
            "m": str(spec.m),
            "p": str(spec.p),
            "powers": ",".join(str(a) for a in spec.powers),
        },
        "n": str(spec.m + spec.p),
        "q": str(spec.q),
        "value": str(result.value),
        "precision": str(precision),
        "tolerance": str(tolerance),
    }
    if args.verbose:
        doc["raw"] = str(result.raw)
        doc["residual"] = repr(result.residual)
        doc["imag"] = repr(result.imag)
        doc["elapsed_ms"] = _fmt_ms(elapsed)
    if args.format == "json":
        _emit_json(doc)
    elif args.format == "csv":
        _emit_csv(
            ["m", "p", "powers", "q", "n", "value"],
            [[doc["request"]["m"], doc["request"]["p"], doc["request"]["powers"],
              doc["q"], doc["n"], doc["value"]]],
        )
    else:
        sys.stdout.write(
            f"request: m={doc['request']['m']} p={doc['request']['p']} "
            f"powers={doc['request']['powers']}\n"
        )
        sys.stdout.write(f"q: {doc['q']}\n")
        sys.stdout.write(f"value: {doc['value']}\n")
    return EXIT_OK


def cmd_table(args) -> int:
    if args.m < 1 or args.p < 1:
        raise InvalidIndexError(f"m and p must be positive, got m={args.m} p={args.p}")
    if args.max_q < 0:
        raise InvalidIndexError(f"--max-q must be nonnegative, got {args.max_q}")
    m, p = args.m, args.p
    n = m + p
    top = tuple(range(p + 1, n + 1))
    memo: dict = {}
    table = RecurrenceTable(m, n)
    rows = []
    for q in range(args.max_q + 1):
        alpha = schubert_to_composite(SchubertSymbol(top, q), n)
        ch = degree_chain(alpha, memo)
        rec = table.degree(alpha.entries)
        if ch != rec:
            sys.stderr.write(
                f"quotdeg: methods disagree at q={q}: chain={ch} recurrence={rec}\n"
            )
            return EXIT_DISAGREEMENT
        rows.append(
            {
                "m": str(m),
                "p": str(p),
                "q": str(q),
                "n": str(n),
                "dim": str(m * p + n * q),
                "degree": str(ch),
            }
        )
    doc = {
        "command": "table",
        "request": {"m": str(m), "p": str(p), "max_q": str(args.max_q)},
        "methods": ["chain", "recurrence"],
        "rows": rows,
    }
    if args.format == "json":
        _emit_json(doc)
    elif args.format == "csv":
        _emit_csv(
            ["m", "p", "q", "n", "dim", "degree"],
            [[r["m"], r["p"], r["q"], r["n"], r["dim"], r["degree"]] for r in rows],
        )
    else:
        header = ["m", "p", "q", "n", "dim", "degree"]
        widths = [
            max(len(h), max(len(r[h]) for r in rows)) for h in header
        ]
        sys.stdout.write(
            "  ".join(h.rjust(w) for h, w in zip(header, widths)) + "\n"
        )
        for r in rows:
            sys.stdout.write(
                "  ".join(r[h].rjust(w) for h, w in zip(header, widths)) + "\n"
            )
    return EXIT_OK


def cmd_chains(args) -> int:
    if args.n is None or args.alpha is None:
        raise InvalidIndexError("chains needs --n and --alpha")
    alpha = validate_index(args.alpha, args.n)
    if args.cap < 1:
        raise InvalidIndexError(f"--cap must be positive, got {args.cap}")
    enum = enumerate_chains(alpha, cap=args.cap)
    chain_strings = [[str(step) for step in chain] for chain in enum.chains]
    doc = {
        "command": "chains",
        "request": {"n": str(args.n), "alpha": str(alpha), "cap": str(args.cap)},
        "count": str(enum.total),
        "capped": enum.capped,
        "chains": chain_strings,
    }
    if args.format == "json":
        _emit_json(doc)
    elif args.format == "csv":
        rows = [
            [str(idx), " -> ".join(chain)]
            for idx, chain in enumerate(chain_strings, start=1)
        ]
        rows.append(["count", str(enum.total)])
        _emit_csv(["chain", "steps"], rows)
    else:
        for chain in chain_strings:
            sys.stdout.write(" -> ".join(chain) + "\n")
        sys.stdout.write(f"count={enum.total}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    precision = _resolve_precision(args)
    if args.max_n < 2:
        raise InvalidIndexError(f"--max-n must be at least 2, got {args.max_n}")
    if args.max_dim < 0:
        raise InvalidIndexError(f"--max-dim must be nonnegative, got {args.max_dim}")
    report = run_verify(
        max_n=args.max_n,
        max_dim=args.max_dim,
        precision=precision,
        tolerance=args.tolerance,
        inject_fault=args.inject_fault,
        duality=args.duality,
    )
    doc = {
        "command": "verify",
        "max_n": str(report.max_n),
        "max_dim": str(report.max_dim),
        "precision": str(report.precision),
        "tolerance": str(report.tolerance),
        "fault_injected": report.fault_injected,
        "suites": [
            {"name": s.name, "cases": str(s.cases), "failures": list(s.failures)}
            for s in report.suites
        ],
        "total_cases": str(report.total_cases),
        "total_failures": str(report.total_failures),
        "status": "pass" if report.ok else "fail",
    }
    if report.duality is not None:
        doc["duality"] = report.duality
    if args.format == "json":
        _emit_json(doc)
    elif args.format == "csv":
        _emit_csv(
            ["suite", "cases", "failures"],
            [[s.name, str(s.cases), str(len(s.failures))] for s in report.suites],
        )
    else:
        width = max(len(s.name) for s in report.suites)
        for s in report.suites:
            sys.stdout.write(
                f"{s.name.ljust(width)}  cases={s.cases}  failures={len(s.failures)}\n"
            )
            for f in s.failures:
                sys.stdout.write(f"  {f}\n")
        if report.duality is not None:
            for row in report.duality:
                sys.stdout.write(
                    f"duality m={row['m']} p={row['p']} q={row['q']}: "
                    f"{row['deg_mpq']} vs {row['deg_pmq']} "
                    f"equal={str(row['equal']).lower()}\n"
                )
        sys.stdout.write(f"total: cases={report.total_cases} failures={report.total_failures}\n")
        sys.stdout.write(f"status: {'pass' if report.ok else 'fail'}\n")
    return EXIT_OK if report.ok else EXIT_DISAGREEMENT


def build_parser() -> _Parser:
    parser = _Parser(
        prog="quotdeg",
        description="Exact degrees of Quot scheme subvarieties, three ways.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="json",
        help="output format (default json)",
    )
    common.add_argument(
        "--precision", type=int, default=None, metavar="BITS",
        help=f"working precision in bits (default ${PRECISION_ENV} or {DEFAULT_PRECISION})",
    )
    common.add_argument(
        "--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE, metavar="EPS",
        help=f"accept fixed-point sums within EPS of an integer (default {DEFAULT_TOLERANCE})",
    )
    common.add_argument(
        "--verbose", action="store_true",
        help="include timing and raw floating-point evidence in reports",
    )

    deg = sub.add_parser(
        "degree", parents=[common],
        help="degree of the whole space (--q), a named subvariety (--i/--d), "
             "or an explicit index (--n/--alpha)",
    )
    deg.add_argument("--m", type=int, default=None)
    deg.add_argument("--p", type=int, default=None)
    deg.add_argument("--q", type=int, default=None)
    deg.add_argument("--i", type=_int_tuple, default=None, metavar="I1,..,IM")
    deg.add_argument("--d", type=int, default=None)
    deg.add_argument("--n", type=int, default=None)
    deg.add_argument("--alpha", type=_int_tuple, default=None, metavar="A1,..,AM")
    deg.add_argument(
        "--method", choices=("chain", "recurrence", "vi", "all"), default="all",
        help="which computation(s) to run (default all, cross-checked)",
    )
    deg.set_defaults(func=cmd_degree)

    cor = sub.add_parser(
        "correlator", parents=[common],
        help="genus-zero correlator of powers of the generator classes",
    )
    cor.add_argument("--m", type=int, required=True)
    cor.add_argument("--p", type=int, required=True)
    cor.add_argument("--powers", type=_int_tuple, required=True, metavar="A1,..,AM")
    cor.set_defaults(func=cmd_correlator)

    tab = sub.add_parser(
        "table", parents=[common],
        help="degree of the whole space for q = 0..max-q "
             "(integer methods, cross-checked per row)",
    )
    tab.add_argument("--m", type=int, required=True)
    tab.add_argument("--p", type=int, required=True)
    tab.add_argument("--max-q", type=int, required=True, dest="max_q")
    tab.set_defaults(func=cmd_table)

    ch = sub.add_parser(
        "chains", parents=[common],
        help="list the saturated chains below an index",
    )
    ch.add_argument("--n", type=int, required=True)
    ch.add_argument("--alpha", type=_int_tuple, required=True, metavar="A1,..,AM")
    ch.add_argument("--cap", type=int, default=DEFAULT_CHAIN_CAP)
    ch.set_defaults(func=cmd_chains)

    ver = sub.add_parser(
        "verify", parents=[common],
        help="run the cross-method and identity sweeps",
    )
    ver.add_argument("--max-n", type=int, default=5, dest="max_n")
    ver.add_argument("--max-dim", type=int, default=14, dest="max_dim")
    ver.add_argument("--duality", action="store_true",
                     help="also print the informational m<->p degree comparison")
    ver.add_argument("--inject-fault", action="store_true", dest="inject_fault",
                     help=argparse.SUPPRESS)
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except DimensionMismatchError as exc:
        sys.stderr.write(f"quotdeg: dimension mismatch: {exc}\n")
        return EXIT_DIMENSION
    except ToleranceError as exc:
        sys.stderr.write(f"quotdeg: tolerance failure: {exc}\n")
        return EXIT_TOLERANCE
    except (InvalidIndexError, ValueError) as exc:
        sys.stderr.write(f"quotdeg: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
