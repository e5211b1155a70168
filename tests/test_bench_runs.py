"""A traced benchmark round passes its own checks.

`bench/run.py --trace 1` wraps the program's public functions and checks the
traced rows against an untraced round and the per-layer counts; a change that
trips it fails here, not only in a long benchmark run.  One round of each
workload that runs no Monte Carlo takes about 0.3 s on a 2-core host.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["cost-scan", "frames"])
def test_traced_bench_round_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stderr
