"""Seeded workloads for the matchfields benchmark, with their output checks.

A workload is a list of cases.  Each case makes one call into the package's
public entry points: ``matchfields.cli.main([..., "--format", "json"])`` for
a subcommand, or ``betti_oracle`` for the oracle, which has no subcommand.
The seed chooses the inputs; the program sees only the generated arguments.

Every output is checked after the round it belongs to, against arithmetic
or against another public route of the package, never against a time.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Optional

import matchfields
import matchfields.cli
from matchfields import betti_diagonal_table, hilbert_dim_rect

# Attainable initial supports of the 2x4 Pluecker quadric, as the package
# reported them when the benchmark was defined: three single terms, three
# pairs and the whole quadric.
SUPPORT_SIZES = [1, 1, 1, 2, 2, 2, 3]

# Term arrangements (x, y, z) of the columns (i, j, k) of a 3x3 minor.
ARRANGEMENTS = ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))


@dataclass
class Case:
    """One call into the package and the check of its output.

    ``key`` names the case among the outputs of its round, so that a check
    can compare two routes to the same quantity.  ``check`` returns None
    when the output is right, else a message.
    """

    key: tuple
    run: Callable[[], object]
    check: Callable[[object, dict], Optional[str]]
    parts: tuple[int, ...]
    w0: int = 1


def compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of n, in the order of the binary cut masks."""
    out = []
    for mask in range(1 << (n - 1)):
        parts, run = [], 1
        for i in range(n - 1):
            if mask >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return out


def call_cli(args: list[str]) -> tuple[int, str]:
    """Run one subcommand with JSON output; returns (exit code, stdout).

    The package's functions are looked up at call time, here and in
    ``oracle_case``, so that a traced run calls their wrappers.
    """
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = matchfields.cli.main([*args, "--format", "json"])
    return code, out.getvalue()


def _blocks(parts: tuple[int, ...]) -> str:
    return ",".join(map(str, parts))


def cli_result(output) -> dict:
    code, text = output
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(text)["result"]


def expected_triple(parts: tuple[int, ...], cols: tuple[int, int, int]) -> tuple[int, int, int]:
    """The matching-field triple (x, y, z) of a sorted 3-subset, from the rule
    itself: rows 1 and 2 swap when the first block meeting the subset holds
    exactly one of its columns."""
    block = []
    for t, size in enumerate(parts):
        block += [t] * size
    i, j, k = cols
    s = block[i - 1]
    hits = sum(block[c - 1] == s for c in cols)
    return (j, i, k) if hits == 1 else (i, j, k)


def _check_generators(parts, output, _round) -> Optional[str]:
    r = cli_result(output)
    n = sum(parts)
    subsets = list(combinations(range(1, n + 1), 3))
    if r["count"] != len(subsets) or len(r["generators"]) != len(subsets):
        return f"count {r['count']} != C({n},3)"
    seen = set()
    for g in r["generators"]:
        cols = tuple(g["columns"])
        if tuple(g["triple"]) != expected_triple(parts, cols):
            return f"columns {cols}: triple {g['triple']}"
        seen.add(cols)
    if seen != set(subsets):
        return "generators do not cover every 3-subset once"
    return None


def _check_weights(parts, output, _round) -> Optional[str]:
    r = cli_result(output)
    n = sum(parts)
    x, y, z = r["x"], r["y"], r["z"]
    if min(x + y + z) < 1 or len(r["precedence"]) != 3 * n:
        return "weights not positive or precedence incomplete"
    for cols in combinations(range(1, n + 1), 3):
        weights = {}
        for p in ARRANGEMENTS:
            a, b, c = (cols[t] for t in p)
            weights[(a, b, c)] = x[a - 1] + y[b - 1] + z[c - 1]
        top = max(weights.values())
        argmax = [t for t, w in weights.items() if w == top]
        if argmax != [expected_triple(parts, cols)]:
            return f"minor {cols}: top-weight terms {argmax}"
    return None


def _check_verify(parts, output, _round) -> Optional[str]:
    r = cli_result(output)
    pairs = comb(comb(sum(parts), 3), 2)
    if not (r["ok"] and r["per_minor_initial_ok"] and r["initial_ideal_equals_matching_ideal"]):
        return f"verdict not ok: {r['failures'][:1]}"
    if r["failures"] or not r["s_pairs_total"] == pairs == r["s_pairs_reduced_to_zero"]:
        return f"S-pairs {r['s_pairs_reduced_to_zero']}/{r['s_pairs_total']}, want {pairs}"
    return None


def _check_betti(parts, output, _round) -> Optional[str]:
    r = cli_result(output)
    n = sum(parts)
    if not r["linear_quotients"]:
        return "no linear quotients"
    sizes = r["set_sizes"]
    from_sizes = [sum(comb(s, l) for s in sizes) for l in range(max(sizes) + 1)]
    if len(sizes) != comb(n, 3) or r["betti"] != from_sizes:
        return "betti numbers disagree with the colon set sizes"
    # Every composition degenerates the same ideal and has a linear
    # resolution, so its Betti numbers are those of the single block.
    if r["betti"] != list(betti_diagonal_table(n)):
        return f"betti {r['betti']} != diagonal {list(betti_diagonal_table(n))}"
    if r["projective_dimension"] != len(r["betti"]) - 1:
        return "projective dimension disagrees with the table length"
    return None


def _check_cointerval(parts, output, _round) -> Optional[str]:
    r = cli_result(output)
    if not (r["cointerval"] and r["layer_nesting_ok"]) or r["witness"] is not None:
        return f"cointerval {r['cointerval']}, nesting {r['layer_nesting_ok']}"
    return None


def _check_kernel(parts, output, _round) -> Optional[str]:
    r = cli_result(output)
    n = sum(parts)
    s = comb(n, 3)
    dmax = len(r["slices"])
    for d, entry in enumerate(r["slices"], start=1):
        want = comb(s + d - 1, d) - hilbert_dim_rect(3, n, d)
        if entry["degree"] != d or entry["dimension"] != want:
            return f"degree {d}: kernel dimension {entry['dimension']} != {want}"
    rows = [[d, hilbert_dim_rect(3, n, d), hilbert_dim_rect(3, n, d)] for d in range(dmax + 1)]
    if not r["flatness_ok"] or r["flatness_rows"] != rows:
        return f"flatness rows {r['flatness_rows']}"
    return None


def _check_supports(_parts, output, _round) -> Optional[str]:
    r = cli_result(output)
    sizes = sorted(len(s) for s in r["supports"])
    if r["count"] != len(SUPPORT_SIZES) or sizes != SUPPORT_SIZES:
        return f"{r['count']} supports of sizes {sizes}"
    return None


def _check_oracle(parts, output, outputs) -> Optional[str]:
    cert = outputs.get(("betti", parts))
    if cert is None:
        return "no certificate in this round to compare with"
    want = cli_result(cert)["betti"]
    if list(output) != want:
        return f"oracle {list(output)} != certificate {want}"
    return None


def cli_case(command: str, parts: tuple[int, ...], extra: tuple[str, ...] = (), w0: int = 1) -> Case:
    args = [command, "--blocks", _blocks(parts), *extra]
    if command in ("weights", "verify"):
        args += ["--w0", str(w0)]
    check = CHECKS[command]
    return Case(
        key=(command, parts),
        run=lambda: call_cli(args),
        check=lambda output, outputs: check(parts, output, outputs),
        parts=parts,
        w0=w0,
    )


def oracle_case(parts: tuple[int, ...]) -> Case:
    return Case(
        key=("oracle", parts),
        run=lambda: matchfields.betti_oracle(
            matchfields.matching_ideal(matchfields.BlockStructure(parts))
        ),
        check=lambda output, outputs: _check_oracle(parts, output, outputs),
        parts=parts,
    )


def supports_case() -> Case:
    args = ["supports", "--plucker-quadric", "2", "4"]
    return Case(
        key=("supports", ()),
        run=lambda: call_cli(args),
        check=lambda output, outputs: _check_supports((), output, outputs),
        parts=(),
    )


CHECKS = {
    "generators": _check_generators,
    "weights": _check_weights,
    "verify": _check_verify,
    "betti": _check_betti,
    "cointerval": _check_cointerval,
    "kernel": _check_kernel,
}


def verify_large(rng: random.Random) -> list[Case]:
    """The Groebner hot path: two large verify calls, 3486 and 7140 S-pairs."""
    return [
        cli_case("verify", rng.choice(compositions(n)), w0=rng.choice((1, 2, 3)))
        for n in (9, 10)
    ]


def kernel_betti_large(rng: random.Random) -> list[Case]:
    """Toric kernel slices up to degree 3 at n = 8, and four n = 12
    certificates; no Groebner work.  A certificate's cost depends on its
    composition (about 0.35-0.49 s), so four of them, not two, keep the
    workload's load about the same from seed to seed."""
    twelve = compositions(12)
    return [
        cli_case("kernel", rng.choice(compositions(8)), ("--dmax", "3")),
        *(cli_case("betti", parts) for parts in rng.sample(twelve, 4)),
    ]


def sweep_n6(rng: random.Random) -> list[Case]:
    """Every subcommand and the oracle on every composition of 6, in a
    seeded order: many small calls."""
    cases = [supports_case()]
    for parts in compositions(6):
        w0 = rng.choice((1, 2, 3))
        cases += [
            cli_case("generators", parts),
            cli_case("weights", parts, w0=w0),
            cli_case("verify", parts, w0=w0),
            cli_case("betti", parts),
            cli_case("cointerval", parts),
            cli_case("kernel", parts, ("--dmax", "2")),
            oracle_case(parts),
        ]
    rng.shuffle(cases)
    return cases


WORKLOADS = {
    "verify_large": verify_large,
    "kernel_betti_large": kernel_betti_large,
    "sweep_n6": sweep_n6,
}


def make_cases(workload: str, seed: int) -> list[Case]:
    return WORKLOADS[workload](random.Random(seed))
