"""Byte-identity guard for the command line.

cli_golden.json lists invocations of quotdeg's main() with the exit code and
the SHA-256 of stdout and of stderr that each produced.  Every command runs
in every format, plus the exit 2/3/4 paths and a few usage errors; --verbose
is left out because its output carries timings.  A few of the invocations
also run as whole `python -m quotdeg` processes, through the process entry
point, which must exit with main()'s code and bytes.  To record the file
afresh from the code on the path (only when a change of output is intended):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
from unittest import mock

import pytest

from quotdeg.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
CASES = json.loads(GOLDEN.read_text())
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# exits 0 to 4 and all three formats
PROCESS_ARGV = [
    "degree --m 2 --p 2 --q 1 --format csv",
    "degree",
    "verify --max-n 4 --max-dim 8 --inject-fault",
    "correlator --m 2 --p 2 --powers 3,0",
    "degree --m 2 --p 2 --q 1 --precision 12 --tolerance 1e-9 --format text",
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def observe(argv: str) -> dict:
    """Run one invocation; argparse wraps usage lines at $COLUMNS, so pin it."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv.split())
    return {
        "argv": argv,
        "exit": code,
        "stdout_sha256": _sha256(out.getvalue()),
        "stderr_sha256": _sha256(err.getvalue()),
    }


@pytest.mark.parametrize("case", CASES, ids=[c["argv"] for c in CASES])
def test_cli_output_matches_golden(case):
    assert observe(case["argv"]) == case


@pytest.mark.parametrize("argv", PROCESS_ARGV)
def test_process_output_matches_golden(argv):
    env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "quotdeg", *argv.split()], env=env, capture_output=True
    )
    got = {
        "argv": argv,
        "exit": proc.returncode,
        "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "stderr_sha256": hashlib.sha256(proc.stderr).hexdigest(),
    }
    assert got == next(case for case in CASES if case["argv"] == argv)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([observe(c["argv"]) for c in CASES], indent=1) + "\n")
