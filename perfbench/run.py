"""Benchmark of matchfields, an exact checker of matching-field degenerations.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/selftest.py

Run from the repository root; the package is imported from ``src/``.  One
process, one thread, closed loop: the next case starts when the previous one
returns, and the workload's whole case list (a round) repeats a fixed number
of times (``ROUNDS``), the same on every version of the program; S seconds
is only a budget that stops the rounds early.  Every output is checked, and
any failure or exception counts against the run.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  Cases are timed in wall time, and every time is scaled
to a reference speed of the shared host, sampled while the cases run (see
``hostspeed``); the unscaled figures are printed too.  Each case counts at
its median over the rounds of the run; ``wall_s`` is the sum over the cases
and ``case_p50_s`` their median.  ``setup_s`` is the median, over fresh
processes started before the first round and after each round, of the CPU
time from process start to the point where the first case would start
(interpreter start-up, imports and input generation).  The 90th percentile
of the cases is printed, but is not a metric, on workloads with at least 100
cases (sweep_n6), where ten cases lie beyond it.

With ``--trace 1`` untraced rounds alternate with rounds that run with
wrappers at every module boundary, until S seconds are spent; both kinds are
timed in wall time, as the spans are.  The object then holds the per-layer
metrics, and the spans go to ``perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
# The CLI's thread count stays at its default.
os.environ.pop("MATCHFIELDS_THREADS", None)

import matchfields  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from workloads import WORKLOADS, make_cases  # noqa: E402

SETUP_PROBES_PER_GAP = 2
# Rounds per run, chosen so that they take about 20-28 s on a shared 2-vCPU
# host; the 36 s budget cuts them short only when the host runs slow.
ROUNDS = {"verify_large": 5, "kernel_betti_large": 6, "sweep_n6": 4}


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_round(cases, tracer=None, speed=None):
    """Run every case once, then check every output.

    Returns the wall time of each case, the failure messages and the
    outputs.  With ``speed`` sampling, the time spent sampling the host is
    left out and each case's interval is kept for scaling.  Any exception a
    case raises, budget and size errors included, is a failure.
    """
    speed = speed or HostSpeed()
    results, times = [], []
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case, tracer.enabled = i, True
        out, seconds = speed.time(case.run)
        if tracer is not None:
            tracer.enabled = False
        results.append(out)
        times.append(seconds)
    outputs = {case.key: out for case, out in zip(cases, results)}
    failures = []
    for case, out in zip(cases, results):
        if isinstance(out, Exception):
            failures.append(f"{case.key}: {type(out).__name__}: {out}")
            continue
        try:
            msg = case.check(out, outputs)
        except Exception as exc:
            msg = f"check raised {type(exc).__name__}: {exc}"
        if msg:
            failures.append(f"{case.key}: {msg}")
    return times, failures, outputs


def measure_setup(workload: str, seed: int, speed: HostSpeed, probes: int) -> list[float]:
    """CPU time from process start to the first case, scaled by ``speed``,
    in each of ``probes`` fresh processes that start as the benchmark does,
    import the package and build the workload's inputs, then report their
    CPU time and exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    return [
        speed.around(lambda: float(subprocess.run(
            cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=60).stdout))
        for _ in range(probes)
    ]


def best_times(rounds) -> list[float]:
    """Each case's fastest time over the rounds of a traced run."""
    return [min(ts) for ts in zip(*(times for times, _, _ in rounds))]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    """``ROUNDS[workload]`` rounds, fewer only if the next would end after
    ``seconds`` of wall time; at least one.

    Set-up is probed before the first round and after each round.  Every
    time is scaled to the host's reference speed (``hostspeed``), and each
    case counts at its median over the rounds.
    """
    cases = make_cases(workload, seed)
    speed = HostSpeed()
    setup = measure_setup(workload, seed, speed, SETUP_PROBES_PER_GAP)
    rounds = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        speed.start()
        try:
            rounds.append(run_round(cases, speed=speed))
        finally:
            speed.stop()
        last = perf_counter() - round_start
        setup += measure_setup(workload, seed, speed, SETUP_PROBES_PER_GAP)
        if len(rounds) == ROUNDS[workload] or perf_counter() - start + last > seconds:
            break
    scaled = iter(speed.scaled())
    per_round = [[next(scaled) for _ in times] for times, _, _ in rounds]
    per_case = [statistics.median(ts) for ts in zip(*per_round)]
    raw = [statistics.median(ts) for ts in zip(*(times for times, _, _ in rounds))]
    print(f"unscaled: wall_s = {sum(raw):.6g} s, case_p50_s = {statistics.median(raw):.6g} s")
    if len(per_case) >= 100:
        p90 = statistics.quantiles(per_case, n=10, method="inclusive")[-1]
        print(f"case_p90_s = {p90:.6g} s (not a metric)")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(per_case),
        "case_p50_s": statistics.median(per_case),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, rounds


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    from layers import exact_counts, monomial_op_costs, per_layer_metrics
    from spans import Tracer

    cases = make_cases(workload, seed)
    tracer = Tracer()
    plain, rounds = [], []
    start = perf_counter()
    # Untraced and traced rounds alternate, so that both meet the same load
    # from other tenants of the machine; the pair repeats until the next one
    # would end after ``seconds``.
    while True:
        plain.append(run_round(cases))
        tracer.install()
        try:
            rounds.append(run_round(cases, tracer))
        finally:
            tracer.uninstall()
        spent = perf_counter() - start
        if spent + spent / len(rounds) > seconds:
            break
    out_dir = ROOT / "perfbench" / "traces"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{workload}-seed{seed}.jsonl")

    metrics = per_layer_metrics(
        tracer.summary(),
        tracer.missing,
        tracer.counts,
        exact_counts(cases, rounds[0][2]),
        len(rounds),
        sum(best_times(rounds)),
        sum(best_times(plain)),
        sum(sum(times) for times, _, _ in rounds) / len(rounds),
    )
    metrics.update(monomial_op_costs(cases))
    return metrics, plain + rounds


def report(workload, seed, metrics, rounds, trace) -> None:
    """Print the metrics by name with units, then the result line."""
    attempted = sum(len(times) for times, _, _ in rounds)
    failures = [f for _, fs, _ in rounds for f in fs]
    info = {
        "workload": workload, "seed": seed, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "rounds": len(rounds), "cases_per_round": len(rounds[0][0]),
        "failed_frac": len(failures) / attempted,
    }
    print(json.dumps(info))
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    units = metric_units()
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    # Zero whenever the run is correct, so it is printed but not a metric.
    print(f"failed_frac = {info['failed_frac']:.6g} ratio")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180, check=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not Path(matchfields.__file__).resolve().is_relative_to(SRC):
        print(f"matchfields was imported from {matchfields.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        make_cases(args.workload, args.seed)
        print(process_time())
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.trace:
        metrics, rounds = traced(args.workload, args.seed, args.seconds)
    else:
        metrics, rounds = end_to_end(args.workload, args.seed, args.seconds)
    report(args.workload, args.seed, metrics, rounds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
