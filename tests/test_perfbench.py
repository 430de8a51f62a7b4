"""The benchmark's own output checks pass on the shipped code."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_exits_zero():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_sweep_n6_round_is_correct():
    """One round of the workload whose case median the cellular layer sets:
    a failing output check shows here before the benchmark runs."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_n6", "--seed", "1",
         "--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True, proc.stdout
