"""quotdeg benchmark: time real quotdeg processes, or trace the layers in-process.

    python3 perfbench/run.py --workload vi_queries --seed 1 --seconds 55 --trace 0

Run it from anywhere; it benchmarks the checkout it sits in, launching
`python -m quotdeg` with PYTHONPATH at that checkout's src (nothing needs
installing) and without QUOTDEG_PRECISION.  One driver process runs one
child at a time in a closed loop.  Workloads are defined in workloads.py.

--trace 0 prints the end-to-end metrics, measured on untraced processes.
--trace 1 prints the per-layer metrics instead: import cost from
`python -X importtime`, and spans and work counts from calling
quotdeg.cli.main in this process with every traced function wrapped
(spans.py).  Each op of that pass also runs once with the wrappers off;
the difference is trace.overhead_frac.  Spans are written to
.bench_build/perfbench/spans-<workload>.csv in the checkout.

Either way every answer is checked (check.py).  The last line of stdout is
the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from check import check
from workloads import PROBE, WARMUP, WORKLOADS, decks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
EXPECTED = Path(__file__).with_name("expected.json")
PRECISION_ENV = "QUOTDEG_PRECISION"
SETUP_REPEATS = 5
IMPORT_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_cpu_ms": "ms",
    "child_maxrss_mb": "MB",
}

SUITE_NAMES = ("base_case", "roundtrip", "cross_method", "pieri", "chain_oracle",
               "cover_soundness", "order_agreement", "powersum_identity")
PER_LAYER = {
    "import.python_startup_ms": "ms",
    "import.quotdeg_ms": "ms",
    "import.mpmath_ms": "ms",
    "cli.main_ms": "ms",
    "cli.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "chain_degree.degree_chain_ms": "ms",
    "chain_degree.degree_chain_calls": "count",
    "chain_degree.memo_entries_added": "count",
    "chain_degree.enumerate_chains_ms": "ms",
    "chain_degree.chains_listed": "count",
    "chain_degree.self_ms": "ms",
    "recurrence_degree.degree_ms": "ms",
    "recurrence_degree.values_filled": "count",
    "vafa.vi_degree_ms": "ms",
    "vafa.vi_correlator_ms": "ms",
    "vafa.lg_roots_ms": "ms",
    "vafa.subsets_summed": "count",
    "vafa.det_terms": "count",
    "vafa.precision_bits_max": "bits",
    "vafa.tolerance_failures": "count",
    "vafa.self_ms": "ms",
    **{f"verify.{s}_{kind}": unit for s in SUITE_NAMES
       for kind, unit in (("ms", "ms"), ("cases", "count"))},
    "verify.self_ms": "ms",
    "indices.leq_sequence_ms": "ms",
    "indices.leq_sequence_calls": "count",
    "trace.overhead_frac": "frac",
}
# computed from arguments (C(n,m), C(n,m)*m!), not observed inside the sum
COMPUTED = ("vafa.subsets_summed", "vafa.det_terms")


class Outcomes:
    """Tally of checked ops; a failed op is a nonzero exit or a wrong answer."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.hook_checks = 0
        self.problems: list[str] = []

    def record(self, op: str, returncode: int, out: str) -> bool:
        problems, hooks = check(op, returncode, out, self.expected[op])
        self.attempted += 1
        self.hook_checks += hooks
        if problems:
            self.failed += 1
            self.problems.append(f"{op}: {'; '.join(problems)}")
        return not problems


def child_env() -> dict[str, str]:
    """The caller's environment minus anything that changes quotdeg's
    precision or Python's import and bytecode behaviour, plus PYTHONPATH=src."""
    env = {k: v for k, v in os.environ.items()
           if k != PRECISION_ENV and not (k.startswith("PYTHON") and k != "PYTHONHOME")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(args: list[str], env: dict[str, str]) -> tuple[float, float, int, int, str]:
    """Run one child to completion: (wall s, user+sys CPU s, max RSS KiB, exit code, stdout).

    The child is reaped with wait4 so that CPU and peak RSS are its own,
    not the running totals RUSAGE_CHILDREN keeps for the whole driver.
    """
    out_path, err_path = WORK / "op.out", WORK / "op.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(errors="replace")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode, stdout


def quotdeg_args(op: str) -> list[str]:
    return [sys.executable, "-m", "quotdeg", *op.split()]


def set_up(workload: str, seed: int, env: dict[str, str], outcomes: Outcomes) -> float:
    """One set-up: generate the inputs, drop the package's bytecode cache and
    run the untimed warm-up process that refills it."""
    start = time.perf_counter()
    next(decks(workload, seed))
    shutil.rmtree(SRC / "quotdeg" / "__pycache__", ignore_errors=True)
    _, _, _, returncode, out = run_process(quotdeg_args(WARMUP), env)
    problems, _ = check(WARMUP, returncode, out, outcomes.expected[WARMUP])
    outcomes.problems += [f"warm-up {WARMUP}: {p}" for p in problems]
    return time.perf_counter() - start


def more_decks(started: float, deck_seconds: list[float], seconds: float) -> bool:
    """Deal another whole deck while that brings the run nearer to `seconds`."""
    elapsed = time.perf_counter() - started
    return elapsed + statistics.mean(deck_seconds) / 2 <= seconds


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Unlike a single order statistic it moves smoothly when
    a run's ops shift a little, e.g. where the quantile sits near a gap
    between a light and a heavy kind of op."""
    from mpmath import betainc

    n = len(values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    return sum(float(betainc(a, b, i / n, (i + 1) / n, regularized=True)) * x
               for i, x in enumerate(sorted(values)))


def process_run(workload, seed, seconds, env, outcomes):
    """Closed loop, one client: each op is a fresh quotdeg process."""
    walls, cpus, rss, ok = [], [], [], 0
    deck_seconds: list[float] = []
    started = time.perf_counter()
    for deck in decks(workload, seed):
        deck_start = time.perf_counter()
        for op in deck:
            wall, cpu, maxrss, returncode, out = run_process(quotdeg_args(op), env)
            walls.append(wall)
            cpus.append(cpu)
            rss.append(maxrss)
            ok += outcomes.record(op, returncode, out)
        deck_seconds.append(time.perf_counter() - deck_start)
        if not more_decks(started, deck_seconds, seconds):
            break
    metrics = {
        "ops_per_s": ok / sum(walls),
        "op_p50_ms": quantile(walls, 0.5) * 1e3,
        "op_p90_ms": quantile(walls, 0.9) * 1e3,
        "op_cpu_ms": statistics.mean(cpus) * 1e3,
        "child_maxrss_mb": max(rss) / 1024,
    }
    notes = {
        "ops_per_s": f"{ok} correct ops / {sum(walls):.3f} s in children",
        "op_p50_ms": f"Harrell-Davis median of {len(walls)} ops",
        "op_p90_ms": f"Harrell-Davis 90th percentile of {len(walls)} ops",
        "op_cpu_ms": f"mean of {len(walls)} children, user+sys",
        "child_maxrss_mb": f"largest of {len(walls)} children",
    }
    return metrics, notes, len(deck_seconds), time.perf_counter() - started


def import_layer(env: dict[str, str]) -> dict[str, float]:
    """Interpreter start, and cumulative import times from -X importtime.

    mpmath is imported after quotdeg, so its cost is measured whether or not
    `import quotdeg` pulls it in; import.quotdeg_ms shows which.
    """
    startup, quotdeg_us, mpmath_us = [], [], []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, cwd=ROOT)
        startup.append(time.perf_counter() - start)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import quotdeg, mpmath"],
            env=env, check=True, capture_output=True, text=True, cwd=ROOT)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1])
        quotdeg_us.append(cumulative["quotdeg"])
        mpmath_us.append(cumulative["mpmath"])
    return {
        "import.python_startup_ms": statistics.median(startup) * 1e3,
        "import.quotdeg_ms": statistics.median(quotdeg_us) / 1e3,
        "import.mpmath_ms": statistics.median(mpmath_us) / 1e3,
    }


def call_main(main, op: str) -> tuple[float, int, str]:
    """Run one op through quotdeg.cli.main in this process: (wall s, exit code, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            returncode = main(op.split())
        except Exception as exc:  # a crash is a failed op, not a benchmark error
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            returncode = -1
    return time.perf_counter() - start, returncode, out.getvalue()


def load_package():
    """Import the checkout's quotdeg into this process, as its children see it."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop(PRECISION_ENV, None)
    import quotdeg.cli

    return quotdeg.cli


def trace_deck(instrumentation, deck: list[str], outcomes: Outcomes, spent: dict) -> dict:
    """Run one deck in this process, each op traced and untraced, alternating
    which goes first; add wall seconds to spent[traced] and return the
    deck's work counts."""
    cli = load_package()
    tracer = instrumentation.tracer
    tracer.counts.clear()
    output_bytes = 0
    for op in deck:
        for traced in (True, False) if tracer.op % 2 else (False, True):
            if traced:
                instrumentation.install()
            try:
                wall, returncode, out = call_main(instrumentation.main if traced else cli.main, op)
            finally:
                instrumentation.uninstall()
            spent[traced] += wall
            if traced:
                output_bytes += len(out.encode())
            outcomes.record(op, returncode, out)
        tracer.op += 1
    return {**tracer.counts, "cli.output_bytes": output_bytes}


def traced_run(workload, seed, seconds, env, outcomes):
    """Per-layer pass: import costs from child processes, then whole decks
    (plus PROBE) through quotdeg.cli.main in this process."""
    from spans import Instrumentation, Tracer, layer_times, write_csv

    metrics = import_layer(env)
    load_package()
    instrumentation = Instrumentation(Tracer())
    spent = {True: 0.0, False: 0.0}
    deck_counts, deck_seconds = [], []
    started = time.perf_counter()
    for deck in decks(workload, seed, PROBE):
        deck_start = time.perf_counter()
        deck_counts.append(trace_deck(instrumentation, deck, outcomes, spent))
        deck_seconds.append(time.perf_counter() - deck_start)
        if not more_decks(started, deck_seconds, seconds):
            break
    tracer = instrumentation.tracer
    WORK.mkdir(parents=True, exist_ok=True)
    write_csv(tracer.spans, WORK / f"spans-{workload}.csv")

    n = len(deck_counts)
    for name, ms in layer_times(tracer.spans).items():
        metrics[name] = ms / n
    unsteady = sorted({k for c in deck_counts[1:] for k in c.keys() | deck_counts[0].keys()
                       if c.get(k) != deck_counts[0].get(k)})
    metrics.update(deck_counts[0])
    metrics["trace.overhead_frac"] = (spent[True] - spent[False]) / spent[False]
    notes = {}
    for name, unit in PER_LAYER.items():
        if name.startswith("import."):
            notes[name] = f"median of {IMPORT_REPEATS} processes"
        elif unit == "ms":
            notes[name] = f"per deck, mean of {n} decks"
        else:
            notes[name] = "per deck, " + ("computed from arguments" if name in COMPUTED
                                          else "the same in every deck")
    notes["trace.overhead_frac"] = (f"traced {spent[True]:.3f} s vs untraced "
                                    f"{spent[False]:.3f} s over {tracer.op} ops")
    if unsteady:
        notes["warning"] = f"work counts differ between decks: {', '.join(unsteady)}"
    return metrics, notes, n, time.perf_counter() - started


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout;
    None when it is not a git repository."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head.removeprefix("ref: ")
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def environment(seed: int) -> dict:
    import mpmath
    import mpmath.libmp

    digest = hashlib.sha256()
    for path in sorted((SRC / "quotdeg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quotdeg" / "__init__.py").is_file():
        print(f"perfbench: no quotdeg sources under {SRC}", file=sys.stderr)
        return 2

    outcomes = Outcomes(json.loads(EXPECTED.read_text())["ops"])
    WORK.mkdir(parents=True, exist_ok=True)
    env = child_env()
    setups = [set_up(args.workload, args.seed, env, outcomes) for _ in range(SETUP_REPEATS)]
    run = traced_run if args.trace else process_run
    metrics, notes, n_decks, measured = run(args.workload, args.seed, args.seconds, env, outcomes)
    if args.trace:
        units = PER_LAYER
        metrics = {name: metrics.get(name, 0) for name in PER_LAYER}
    else:
        units = END_TO_END
        metrics["setup_s"] = statistics.median(setups)
        notes["setup_s"] = f"median of {SETUP_REPEATS} set-ups"

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"decks={n_decks} measured_s={measured:.1f}")
    for name, unit in units.items():
        print(f"  {name:34} {metrics[name]:>14.4f} {unit:5} {notes.get(name, '')}")
    error_rate = outcomes.failed / outcomes.attempted
    print(f"  {'error_rate':34} {error_rate:>14.4f} {'frac':5} "
          f"{outcomes.failed} failed of {outcomes.attempted} attempted")
    print(f"  hook-length checks: {outcomes.hook_checks} q=0 points")
    if "warning" in notes:
        print(f"  warning: {notes['warning']}")
    for problem in outcomes.problems:
        print(f"  FAILED {problem}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    result = {
        "correct": not outcomes.problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
