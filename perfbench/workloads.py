"""The benchmark's workloads: which quotdeg requests each one sends, and in what order.

An op is one quotdeg request, written as the argument string that follows
`python -m quotdeg`.  Each workload is a deck: a fixed multiset of ops.  A
run deals the deck again and again, each time in an order drawn from the
seed, and stops only between decks.  Fixing the composition keeps the mix
of light and heavy ops identical in every run, so medians, percentiles and
throughput compare across seeds and commits; the seed varies the order in
which the requests arrive.

Every vi op carries an explicit --precision: the smallest rung of
PRECISION_LADDER at which the seed code's fixed-point sum passes with its
residual and imaginary part at most RESIDUAL_MARGIN times the default
tolerance.  make_expected.py re-derives each rung and refuses a stale one.
"""

from __future__ import annotations

import random

PRECISION_LADDER = (53, 80, 104, 128, 160, 200, 256, 320, 400, 460, 512)
RESIDUAL_MARGIN = 1e-3

# Fixed-point sums over two kinds of root systems.  Heavy mode: m=5, p=5,
# i.e. 252 subsets each paying a 5! Leibniz determinant at modest precision.
# Light mode: few subsets, some at high precision (six subsets at 460 bits
# for (2,2,200)), plus correlators, which need no determinant.  Two heavy ops
# in fourteen put the 90th percentile a third of the way into the heavy
# mode and the median well inside the light one.
VI_QUERIES = (
    "degree --m 5 --p 5 --q 2 --precision 104",
    "degree --m 5 --p 5 --i 2,4,7,9,10 --d 1 --precision 80",
    "degree --m 2 --p 2 --q 3 --precision 53",
    "degree --m 3 --p 3 --q 4 --precision 80",
    "degree --m 3 --p 3 --q 20 --precision 200",
    "degree --m 4 --p 4 --q 6 --precision 128",
    "degree --m 2 --p 2 --q 200 --precision 460",
    "degree --m 3 --p 3 --q 0 --precision 53",
    "degree --m 3 --p 3 --i 2,5,6 --d 2 --precision 53",
    "degree --m 4 --p 4 --i 2,4,6,8 --d 1 --precision 53",
    "correlator --m 2 --p 2 --powers 8,0 --precision 53",
    "correlator --m 4 --p 4 --powers 6,1,0,4 --precision 53",
    "correlator --m 5 --p 5 --powers 25,0,0,0,0 --precision 80",
    "correlator --m 5 --p 3 --powers 1,1,1,1,1 --precision 53",
)

# Integer methods only; no op reaches the fixed-point sum.  Nine heavy ops
# (one-shot dynamic programs with a fresh memo, and a 1000-chain listing in
# each format) against seventeen light ones dominated by interpreter start
# and import, so the median tracks import and the CLI while the 90th
# percentile lands on the (6,6,20) and (7,7,4) recurrence solves.
EXACT_QUERIES = (
    "degree --m 6 --p 6 --q 20 --method chain",
    "degree --m 6 --p 6 --q 20 --method recurrence",
    "degree --m 7 --p 7 --q 4 --method chain",
    "degree --m 7 --p 7 --q 4 --method recurrence",
    "degree --m 8 --p 7 --q 6 --method chain",
    "degree --m 8 --p 7 --q 6 --method recurrence",
    "chains --n 6 --alpha 5,9,10 --cap 1000 --format json",
    "chains --n 6 --alpha 5,9,10 --cap 1000 --format csv",
    "chains --n 6 --alpha 5,9,10 --cap 1000 --format text",
    "table --m 2 --p 2 --max-q 10 --format json",
    "table --m 3 --p 3 --max-q 8 --format csv",
    "table --m 4 --p 4 --max-q 6 --format text",
    "table --m 2 --p 5 --max-q 6 --format json",
    "table --m 5 --p 2 --max-q 4 --format csv",
    "table --m 1 --p 6 --max-q 12 --format text",
    "chains --n 4 --alpha 4,7 --format text",
    "chains --n 5 --alpha 3,5,7 --cap 50 --format csv",
    "chains --n 5 --alpha 2,4,6 --cap 20 --format json",
    "degree --m 2 --p 2 --q 1 --method chain",
    "degree --m 3 --p 3 --q 4 --method recurrence",
    "degree --m 4 --p 4 --q 0 --method chain",
    "degree --m 2 --p 5 --q 0 --method recurrence",
    "degree --m 3 --p 4 --q 2 --method recurrence",
    "degree --n 5 --alpha 3,5,7 --method chain",
    "degree --m 4 --p 4 --i 2,4,6,8 --d 1 --method recurrence",
    "degree --m 5 --p 5 --q 1 --method chain",
)

WORKLOADS = {
    "vi_queries": VI_QUERIES,
    "exact_queries": EXACT_QUERIES,
}

# Untimed op run before measuring: it imports every module of the package
# (filling the bytecode cache) and touches every layer once.
WARMUP = "degree --m 2 --p 2 --q 1 --precision 53"

# Appended to every deck of a traced pass so that each layer, and each
# verify suite, records spans on every workload.  Its work is the same on
# every workload, so differences between workloads are the workloads' own.
PROBE = (
    "verify --max-n 3 --max-dim 4",
    "correlator --m 2 --p 2 --powers 0,6 --precision 53",
    "chains --n 4 --alpha 3,4 --format json",
)


def decks(workload: str, seed: int, extra: tuple[str, ...] = ()):
    """Endless sequence of decks for a workload, each a seed-shuffled copy
    of the workload's ops followed by `extra` in fixed order."""
    ops = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        deck = list(ops)
        rng.shuffle(deck)
        yield deck + list(extra)


def all_ops() -> list[str]:
    """Every distinct op any run can issue, in a fixed order."""
    seen: dict[str, None] = {WARMUP: None}
    for ops in (*WORKLOADS.values(), PROBE):
        seen.update(dict.fromkeys(ops))
    return list(seen)
