"""Command line front end: degree, correlator, table, chains, verify.

Reports default to JSON with every numeric value emitted as a string (the
integers here outgrow doubles quickly) and a fixed key order, so identical
invocations produce byte-identical output.  Timing and raw floating-point
evidence only appear under --verbose.  Exit codes: 0 success, 1 usage
error, 2 method disagreement or invariant failure, 3 dimension mismatch,
4 numeric tolerance failure.  Each command builds its report as a JSON
document, CSV rows and text lines; _write prints the one --format names.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from .chain_degree import DEFAULT_CHAIN_CAP, degree_chain, enumerate_chains
from .indices import (
    InvalidIndexError,
    SchubertSymbol,
    composite_to_schubert,
    schubert_to_composite,
    symbol_dimension,
    validate_index,
)
from .recurrence_degree import RecurrenceTable
from .vafa import (
    DEFAULT_PRECISION,
    DEFAULT_TOLERANCE,
    CorrelatorSpec,
    DimensionMismatchError,
    ToleranceError,
    check_precision,
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


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _precision(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        return check_precision(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _tolerance(text: str) -> float:
    try:
        return check_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _write(args, doc: dict, header: list[str], rows: list[list[str]], text: list[str],
           start: float | None = None) -> None:
    """Print one report to stdout in the format --format names; under
    --verbose a JSON report ends with the milliseconds since `start`."""
    if start is not None and args.verbose:
        doc["elapsed_ms"] = _fmt_ms(time.perf_counter() - start)
    if args.format == "json":
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        sys.stdout.write("".join(line + "\n" for line in text))


def _fmt_ms(seconds: float) -> str:
    return format(seconds * 1000.0, ".3f")


def _alpha_symbol(alpha) -> SchubertSymbol:
    """Factor an --alpha index, refusing one outside the window or one that
    leaves no room for p (m = n)."""
    symbol = composite_to_schubert(alpha)
    if alpha.m >= alpha.n:
        raise InvalidIndexError(f"index length {alpha.m} needs period at least {alpha.m + 1}")
    return symbol


def _degree_request(args):
    """(m, p, n, symbol, alpha, q echo) from exactly one request form:
    --n/--alpha, --m/--p/--i with an optional --d, or --m/--p/--q."""
    flags = ("m", "p", "q", "i", "d", "n", "alpha")
    given = {flag for flag in flags if getattr(args, flag) is not None}
    if args.alpha is not None:
        if given != {"n", "alpha"}:
            raise InvalidIndexError("--alpha goes with --n and nothing else")
        alpha = validate_index(args.alpha, args.n)
        symbol = _alpha_symbol(alpha)
        m, n, q_echo = alpha.m, alpha.n, None
        p = n - m
    else:
        form = "i" if args.i is not None else "q" if args.q is not None else None
        if form is None:
            raise InvalidIndexError("give --m/--p/--q, or --m/--p/--i/--d, or --n/--alpha")
        if args.m is None or args.p is None:
            raise InvalidIndexError(f"--{form} needs --m and --p")
        extra = given - ({"m", "p", "i", "d"} if form == "i" else {"m", "p", "q"})
        if extra:
            names = " ".join(f"--{flag}" for flag in sorted(extra))
            raise InvalidIndexError(f"--{form} does not go with {names}")
        m, p = args.m, args.p
        if m < 1 or p < 1:
            raise InvalidIndexError(f"m and p must be positive, got m={m} p={p}")
        n = m + p
        if form == "i":
            symbol, q_echo = SchubertSymbol(args.i, args.d or 0), None
        else:
            symbol, q_echo = SchubertSymbol(tuple(range(p + 1, n + 1)), args.q), str(args.q)
        alpha = schubert_to_composite(symbol, n)
    if symbol.m != m:
        raise InvalidIndexError(f"columns {symbol.columns} name nothing for m={m} p={p}")
    return m, p, n, symbol, alpha, q_echo


def cmd_degree(args) -> int:
    m, p, n, symbol, alpha, q_echo = _degree_request(args)

    wanted = ["chain", "recurrence", "vi"] if args.method == "all" else [args.method]
    methods: dict[str, dict] = {}
    for name in wanted:
        entry = methods[name] = {"degree": None, "status": "ok"}
        start = time.perf_counter()
        try:
            if name == "chain":
                value = degree_chain(alpha)
            elif name == "recurrence":
                value = RecurrenceTable(m, n).degree(alpha.entries)
            else:
                result = vi_degree(
                    symbol.columns, symbol.offset, m, p,
                    precision=args.precision, tolerance=args.tolerance,
                )
                value = result.value
                if args.verbose:
                    entry["raw"] = str(result.raw)
                    entry["residual"] = repr(result.residual)
                    entry["imag"] = repr(result.imag)
            entry["degree"] = str(value)
        except ToleranceError as exc:
            entry["status"] = f"tolerance failure: {exc}"
        if args.verbose:
            entry["elapsed_ms"] = _fmt_ms(time.perf_counter() - start)

    produced = [entry["degree"] for entry in methods.values()]
    tolerance_failed = None in produced
    agreement = not tolerance_failed and len(set(produced)) == 1
    request = {
        "m": str(m), "p": str(p), "q": q_echo, "n": str(n),
        "i": ",".join(str(c) for c in symbol.columns), "d": str(symbol.offset),
        "alpha": str(alpha), "dim": str(symbol_dimension(symbol, n)),
    }
    doc = {
        "command": "degree",
        "request": request,
        "precision": str(args.precision),
        "tolerance": str(args.tolerance),
        "methods": methods,
        "agreement": agreement,
    }
    rows = [[k, v["degree"] or "", v["status"]] for k, v in methods.items()]
    text = [
        "request: " + " ".join(f"{k}={v}" for k, v in request.items() if v is not None),
        *(f"{k}: {v['degree'] or v['status']}" for k, v in methods.items()),
        f"agreement: {str(agreement).lower()}",
    ]
    _write(args, doc, ["method", "degree", "status"], rows, text)
    if tolerance_failed:
        return EXIT_TOLERANCE
    return EXIT_OK if agreement else EXIT_DISAGREEMENT


def cmd_correlator(args) -> int:
    spec = CorrelatorSpec.from_powers(args.powers, args.m, args.p)
    start = time.perf_counter()
    result = vi_correlator(spec, precision=args.precision, tolerance=args.tolerance)
    m, p = str(spec.m), str(spec.p)
    powers = ",".join(str(a) for a in spec.powers)
    n, q, value = str(spec.m + spec.p), str(spec.q), str(result.value)
    doc = {
        "command": "correlator",
        "request": {"m": m, "p": p, "powers": powers},
        "n": n, "q": q, "value": value,
        "precision": str(args.precision),
        "tolerance": str(args.tolerance),
    }
    if args.verbose:
        doc["raw"] = str(result.raw)
        doc["residual"] = repr(result.residual)
        doc["imag"] = repr(result.imag)
    header = ["m", "p", "powers", "q", "n", "value"]
    text = [f"request: m={m} p={p} powers={powers}", f"q: {q}", f"value: {value}"]
    _write(args, doc, header, [[m, p, powers, q, n, value]], text, start)
    return EXIT_OK


def cmd_table(args) -> int:
    if args.m < 1 or args.p < 1:
        raise InvalidIndexError(f"m and p must be positive, got m={args.m} p={args.p}")
    if args.max_q < 0:
        raise InvalidIndexError(f"--max-q must be nonnegative, got {args.max_q}")
    start = time.perf_counter()
    m, p = args.m, args.p
    n = m + p
    top = tuple(range(p + 1, n + 1))
    memo: dict = {}
    table = RecurrenceTable(m, n)
    # the largest box first: an oversized one is refused before any work,
    # and both methods then answer every smaller q from what it filled
    degrees = {}
    for q in range(args.max_q, -1, -1):
        alpha = schubert_to_composite(SchubertSymbol(top, q), n)
        degrees[q] = degree_chain(alpha, memo), table.degree(alpha.entries)
    header = ["m", "p", "q", "n", "dim", "degree"]
    rows = []
    for q in range(args.max_q + 1):
        ch, rec = degrees[q]
        if ch != rec:
            sys.stderr.write(f"quotdeg: methods disagree at q={q}: chain={ch} recurrence={rec}\n")
            return EXIT_DISAGREEMENT
        rows.append([str(m), str(p), str(q), str(n), str(m * p + n * q), str(ch)])
    doc = {
        "command": "table",
        "request": {"m": str(m), "p": str(p), "max_q": str(args.max_q)},
        "methods": ["chain", "recurrence"],
        "rows": [dict(zip(header, row)) for row in rows],
    }
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    text = [
        "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        for row in [header, *rows]
    ]
    _write(args, doc, header, rows, text, start)
    return EXIT_OK


def cmd_chains(args) -> int:
    alpha = validate_index(args.alpha, args.n)
    if args.cap < 1:
        raise InvalidIndexError(f"--cap must be positive, got {args.cap}")
    _alpha_symbol(alpha)
    start = time.perf_counter()
    enum = enumerate_chains(alpha, cap=args.cap)
    # chains share their steps, so each distinct step is rendered once
    names: dict = {}
    chain_strings = [
        [names.get(step) or names.setdefault(step, str(step)) for step in chain]
        for chain in enum.chains
    ]
    joined = [" -> ".join(chain) for chain in chain_strings]
    doc = {
        "command": "chains",
        "request": {"n": str(args.n), "alpha": str(alpha), "cap": str(args.cap)},
        "count": str(enum.total),
        "capped": enum.capped,
        "chains": chain_strings,
    }
    rows = [[str(idx), chain] for idx, chain in enumerate(joined, start=1)]
    rows.append(["count", str(enum.total)])
    _write(args, doc, ["chain", "steps"], rows, [*joined, f"count={enum.total}"], start)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.max_n < 2:
        raise InvalidIndexError(f"--max-n must be at least 2, got {args.max_n}")
    if args.max_dim < 0:
        raise InvalidIndexError(f"--max-dim must be nonnegative, got {args.max_dim}")
    start = time.perf_counter()
    report = run_verify(
        max_n=args.max_n, max_dim=args.max_dim, precision=args.precision,
        tolerance=args.tolerance, inject_fault=args.inject_fault,
    )
    status = "pass" if report.ok else "fail"
    doc = {
        "command": "verify",
        "max_n": str(args.max_n),
        "max_dim": str(args.max_dim),
        "precision": str(args.precision),
        "tolerance": str(args.tolerance),
        "fault_injected": args.inject_fault,
        "suites": [
            {"name": s.name, "cases": str(s.cases), "failures": list(s.failures)}
            for s in report.suites
        ],
        "total_cases": str(report.total_cases),
        "total_failures": str(report.total_failures),
        "status": status,
    }
    rows = [[s.name, str(s.cases), str(len(s.failures))] for s in report.suites]
    width = max(len(s.name) for s in report.suites)
    text = []
    for s in report.suites:
        text.append(f"{s.name.ljust(width)}  cases={s.cases}  failures={len(s.failures)}")
        text.extend(f"  {f}" for f in s.failures)
    text.append(f"total: cases={report.total_cases} failures={report.total_failures}")
    text.append(f"status: {status}")
    _write(args, doc, ["suite", "cases", "failures"], rows, text, start)
    return EXIT_OK if report.ok else EXIT_DISAGREEMENT


def _add_common(parser, numeric: bool) -> None:
    """--format and --verbose on every command; --precision and --tolerance
    only where a fixed-point sum runs."""
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json",
                        help="output format (default json)")
    if numeric:
        parser.add_argument(
            "--precision", type=_precision, default=DEFAULT_PRECISION, metavar="BITS",
            help=f"working precision in bits (default {DEFAULT_PRECISION})",
        )
        parser.add_argument(
            "--tolerance", type=_tolerance, default=DEFAULT_TOLERANCE, metavar="EPS",
            help=f"accept fixed-point sums within EPS of an integer (default {DEFAULT_TOLERANCE})",
        )
    parser.add_argument("--verbose", action="store_true",
                        help="include timing and raw floating-point evidence in reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quotdeg", description="Exact degrees of Quot scheme subvarieties, three ways."
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    deg = sub.add_parser("degree", help="degree of the whole space (--q), a named "
                         "subvariety (--i/--d), or an explicit index (--n/--alpha)")
    _add_common(deg, numeric=True)
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

    # Python 3.13 wraps this usage line after "--p P" where 3.10-3.12 wrap
    # after "--powers", so it is spelled out to print the same on all of them
    cor = sub.add_parser(
        "correlator", help="genus-zero correlator of powers of the generator classes",
        usage="%(prog)s [-h] [--format {json,csv,text}] [--precision BITS]\n"
              "                          [--tolerance EPS] [--verbose] --m M --p P --powers\n"
              "                          A1,..,AM",
    )
    _add_common(cor, numeric=True)
    cor.add_argument("--m", type=int, required=True)
    cor.add_argument("--p", type=int, required=True)
    cor.add_argument("--powers", type=_int_tuple, required=True, metavar="A1,..,AM")
    cor.set_defaults(func=cmd_correlator)

    tab = sub.add_parser("table", help="degree of the whole space for q = 0..max-q "
                         "(integer methods, cross-checked per row)")
    _add_common(tab, numeric=False)
    tab.add_argument("--m", type=int, required=True)
    tab.add_argument("--p", type=int, required=True)
    tab.add_argument("--max-q", type=int, required=True, dest="max_q")
    tab.set_defaults(func=cmd_table)

    ch = sub.add_parser("chains", help="list the saturated chains below an index")
    _add_common(ch, numeric=False)
    ch.add_argument("--n", type=int, required=True)
    ch.add_argument("--alpha", type=_int_tuple, required=True, metavar="A1,..,AM")
    ch.add_argument("--cap", type=int, default=DEFAULT_CHAIN_CAP)
    ch.set_defaults(func=cmd_chains)

    ver = sub.add_parser("verify", help="run the cross-method and identity sweeps")
    _add_common(ver, numeric=True)
    ver.add_argument("--max-n", type=int, default=5, dest="max_n")
    ver.add_argument("--max-dim", type=int, default=14, dest="max_dim")
    ver.add_argument("--inject-fault", action="store_true", dest="inject_fault",
                     help=argparse.SUPPRESS)
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after help and 2 on a usage error; this
        # interface reserves 2 for disagreements
        return EXIT_USAGE if exc.code else EXIT_OK
    # CPython refuses int <-> str conversions past 4,300 digits; lifting the
    # limit only once parsing is done prints every answer and keeps the
    # guard on the integers given as arguments
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
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
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def run() -> None:
    """Process entry point: main(), then exit with its code.

    Everything alive once main() returns lives until the process ends, so
    gc.freeze() moves it out of reach of the collections that interpreter
    shutdown would run over it.  Unlike os._exit, sys.exit still runs
    atexit handlers, flushes stdio (a failed flush still exits nonzero)
    and tears the modules down.  Library callers and tests use main().
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
