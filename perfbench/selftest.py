"""Self-test of the benchmark's checks: a corrupted output must count as failed.

    python3 perfbench/selftest.py

Runs the cases of one n = 6 composition through the benchmark's own round
runner, first as shipped (no failure allowed), then once per corruption with
one case's output altered or one case made to raise.  Exits 0 only when the
clean round passes and every corrupted round reports its case as failed.
"""

from __future__ import annotations

import json
import sys

import run  # puts the package on the path, as the benchmark itself does

from workloads import Case, call_cli, cli_case, oracle_case, supports_case

PARTS = (2, 3, 1)


def _edit_result(case: Case, edit) -> Case:
    """The case with ``edit`` applied to the result of its JSON output."""

    def corrupted():
        code, text = case.run()
        doc = json.loads(text)
        edit(doc["result"])
        return code, json.dumps(doc)

    return Case(case.key, corrupted, case.check, case.parts, case.w0)


def _replace_run(case: Case, run_) -> Case:
    return Case(case.key, run_, case.check, case.parts, case.w0)


def _bump(key, i=0):
    def edit(result):
        result[key][i] += 1
    return edit


def _reverse(key):
    def edit(result):
        result[key].reverse()
    return edit


def _set(key, value):
    def edit(result):
        result[key] = value
    return edit


def _kernel_dimension(result):
    result["slices"][-1]["dimension"] += 1


def _swap_triple(result):
    t = result["generators"][0]["triple"]
    t[0], t[1] = t[1], t[0]


def main() -> int:
    cases = [
        cli_case("generators", PARTS),
        cli_case("weights", PARTS, w0=2),
        cli_case("verify", PARTS, w0=2),
        cli_case("betti", PARTS),
        cli_case("cointerval", PARTS),
        cli_case("kernel", PARTS, ("--dmax", "2")),
        oracle_case(PARTS),
        supports_case(),
    ]
    by_command = {c.key[0]: i for i, c in enumerate(cases)}
    corruptions = {
        "generators: two rows swapped": ("generators", lambda c: _edit_result(c, _swap_triple)),
        "weights: y weights reversed": ("weights", lambda c: _edit_result(c, _reverse("y"))),
        "verify: S-pairs left unreduced": (
            "verify", lambda c: _edit_result(c, _set("s_pairs_reduced_to_zero", 0))
        ),
        "verify: verdict flipped": ("verify", lambda c: _edit_result(c, _set("ok", False))),
        "verify: budget error, exit 2": (
            "verify",
            lambda c: _replace_run(
                c, lambda: call_cli(["verify", "--blocks", "2,3,1", "--budget", "10"])
            ),
        ),
        "betti: one Betti number off": ("betti", lambda c: _edit_result(c, _bump("betti", 1))),
        "cointerval: verdict flipped": (
            "cointerval", lambda c: _edit_result(c, _set("cointerval", False))
        ),
        "kernel: dimension off": ("kernel", lambda c: _edit_result(c, _kernel_dimension)),
        "kernel: flatness flipped": ("kernel", lambda c: _edit_result(c, _set("flatness_ok", False))),
        "supports: one support lost": (
            "supports", lambda c: _edit_result(c, lambda r: r["supports"].pop())
        ),
        "oracle: one Betti number off": (
            "oracle", lambda c: _replace_run(c, lambda: [v + 1 for v in c.run()])
        ),
        "oracle: size error raised": ("oracle", lambda c: _replace_run(c, oracle_case((7,)).run)),
    }

    _, failures, _ = run.run_round(cases)
    ok = not failures
    print(f"{'ok  ' if ok else 'FAIL'} clean round: {len(failures)} failed")
    for msg in failures:
        print(f"     {msg}")
    for label, (command, corrupt) in corruptions.items():
        i = by_command[command]
        trial = cases[:i] + [corrupt(cases[i])] + cases[i + 1:]
        _, failures, _ = run.run_round(trial)
        caught = any(msg.startswith(f"{cases[i].key}:") for msg in failures)
        ok &= caught
        print(f"{'ok  ' if caught else 'FAIL'} {label}: {failures[:1]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
