"""The benchmark's own output checks pass on the shipped code."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("workload", ["verify_large", "kernel_betti_large"])
def test_one_round_of_each_large_workload_is_correct(monkeypatch, workload):
    """One round in process, through the benchmark's own runner and cases; with
    no host-speed sampling started the round takes no samples."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    cases = runner.make_cases(workload, 1)
    times, failures, _ = runner.run_round(cases)
    assert len(times) == len(cases) > 0
    assert failures == []
