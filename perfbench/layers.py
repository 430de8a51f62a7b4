"""Per-layer metrics of the traced run.

Times come from the spans of ``spans.Tracer``.  Counts of work come from the
package's public results and from the benchmark's own enumeration, so they
repeat exactly from run to run and do not depend on hash seeds.  A metric
whose wrapped function no longer exists is left out (absent), never zero.
"""

from __future__ import annotations

import gc
import statistics
from itertools import combinations
from math import comb
from time import perf_counter

from matchfields import (
    BlockStructure,
    leading_monomial,
    matching_ideal,
    minor_expand,
    weight_matrix,
)

from spans import SPANS
from workloads import Case, cli_result

MATCHING = (
    "matching.matching_ideal",
    "matching.weight_matrix",
    "matching.sort_generators",
    "toric.plucker_map_from_matching_field",
)
CELLULAR = (
    "cellular.check_layer_containment",
    "cellular.relabel_f",
    "cellular.graph_G",
    "cellular.is_cointerval",
)

# ---------------------------------------------------------------------------
# Exact counts from public results.
# ---------------------------------------------------------------------------


def _variable_sets(parts: tuple[int, ...], w0: int) -> list[frozenset]:
    """Leading monomials of the minors under the weight order, as variable
    sets (every one is squarefree)."""
    n = sum(parts)
    order = weight_matrix(BlockStructure(parts), w0)
    return [
        frozenset(leading_monomial(order, minor_expand(n, cols)).variables())
        for cols in combinations(range(1, n + 1), 3)
    ]


def s_pair_counts(parts: tuple[int, ...], w0: int) -> dict[str, int]:
    """S-pairs of the minors: all, with coprime leading monomials, the rest
    (reduced), and reduced pairs whose lcm a third leading monomial divides
    (prunable by the chain criterion)."""
    lms = _variable_sets(parts, w0)
    total = coprime = prunable = 0
    for i, j in combinations(range(len(lms)), 2):
        total += 1
        if not lms[i] & lms[j]:
            coprime += 1
            continue
        lcm = lms[i] | lms[j]
        if any(k != i and k != j and lm <= lcm for k, lm in enumerate(lms)):
            prunable += 1
    return {
        "groebner.s_pairs_total": total,
        "groebner.s_pairs_coprime": coprime,
        "groebner.s_pairs_reduced": total - coprime,
        "groebner.s_pairs_chain_prunable": prunable,
    }


def lcm_lattice_size(parts: tuple[int, ...]) -> int:
    """Elements of the lcm lattice of the matching ideal (lcms of nonempty
    generator subsets), by closure under lcm."""
    gens = [frozenset(g.variables()) for g in matching_ideal(BlockStructure(parts)).generators]
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        new = []
        for b in frontier:
            for g in gens:
                lcm = b | g
                if lcm not in seen:
                    seen.add(lcm)
                    new.append(lcm)
        frontier = new
    return len(seen)


def kernel_counts(parts: tuple[int, ...], output) -> dict[str, int]:
    """Monomials of the requested degree slices, and the rows and rank of
    the matrices ``kernel_slice`` ranks, from the subcommand's result.

    At degree d the rows are the lower-degree spanning binomials times every
    monomial of the complementary degree, and their rank is the dimension
    minus the new minimal generators.
    """
    s = comb(sum(parts), 3)
    slices = cli_result(output)["slices"]
    dims = {e["degree"]: e["dimension"] for e in slices}
    monomials = rows = rank = 0
    for e in slices:
        d = e["degree"]
        monomials += comb(s + d - 1, d)
        rows += sum(dims[d2] * comb(s + d - d2 - 1, d - d2) for d2 in range(1, d))
        rank += e["dimension"] - e["new_minimal_generators"]
    return {"toric.slice_monomials": monomials, "toric.rank_rows": rows, "rank": rank}


def exact_counts(cases: list[Case], outputs: dict) -> dict[str, int]:
    """Per-round exact counts over the workload's cases."""
    out = dict.fromkeys(
        (
            "groebner.s_pairs_total",
            "groebner.s_pairs_coprime",
            "groebner.s_pairs_reduced",
            "groebner.s_pairs_chain_prunable",
            "resolution.lcm_lattice_size",
            "toric.slice_monomials",
            "toric.rank_rows",
            "rank",
        ),
        0,
    )
    for case in cases:
        command = case.key[0]
        if command == "verify":
            counts = s_pair_counts(case.parts, case.w0)
        elif command == "oracle":
            counts = {"resolution.lcm_lattice_size": lcm_lattice_size(case.parts)}
        elif command == "kernel":
            counts = kernel_counts(case.parts, outputs[case.key])
        else:
            continue
        for k, v in counts.items():
            out[k] += v
    return out


# ---------------------------------------------------------------------------
# Cost per monomial operation, on the workload's own monomials.
# ---------------------------------------------------------------------------


def monomial_op_costs(cases: list[Case], max_pairs: int = 600, reps: int = 7) -> dict[str, float]:
    """Nanoseconds per Monomial multiply, exact division, lcm and
    divisibility test, and per order key of a monomial not yet keyed.

    The operands are each composition's minor leading monomials (the
    generators) and the lcms of pairs of them that share a variable, the
    operands of the Groebner and certificate paths.
    """
    w0s: dict[tuple, int] = {}
    for c in cases:
        if c.parts and (c.key[0] == "verify" or c.parts not in w0s):
            w0s[c.parts] = c.w0
    pairs, keyed = [], []
    for parts, w0 in sorted(w0s.items()):
        a = BlockStructure(parts)
        gens = matching_ideal(a).sorted_generators()
        mine = [(g, h) for g, h in combinations(gens, 2) if not g.coprime(h)][:max_pairs]
        lcms = [g.lcm(h) for g, h in mine]
        # The divisibility test takes the lcm of another pair, so that it
        # both succeeds and fails.
        pairs += [(g, h, l, lcms[-1 - i]) for i, ((g, h), l) in enumerate(zip(mine, lcms))]
        keyed.append((a, w0, list(dict.fromkeys(lcms))))

    def per_op_ns(op) -> float:
        times = []
        for _ in range(reps):
            start = perf_counter()
            for g, h, l, other in pairs:
                op(g, h, l, other)
            times.append(perf_counter() - start)
        return statistics.median(times) / len(pairs) * 1e9

    def key_seconds() -> float:
        spent = 0.0
        for a, w0, lcms in keyed:
            key = weight_matrix(a, w0).key  # a new order has no cached keys
            start = perf_counter()
            for l in lcms:
                key(l)
            spent += perf_counter() - start
        return spent

    # As in timeit, the collector stays off while operations are timed.
    gc.disable()
    try:
        key_times = [key_seconds() for _ in range(reps)]
        return {
            "algebra.mul_ns": per_op_ns(lambda g, h, l, other: g * h),
            "algebra.exact_div_ns": per_op_ns(lambda g, h, l, other: l.exact_div(g)),
            "algebra.lcm_ns": per_op_ns(lambda g, h, l, other: g.lcm(h)),
            "algebra.divides_ns": per_op_ns(lambda g, h, l, other: g.divides(other)),
            "algebra.order_key_ns": statistics.median(key_times)
            / sum(len(k[2]) for k in keyed)
            * 1e9,
        }
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Metrics from spans and counts.
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when the layer did no work (den == 0)."""
    return num / den if den else 0.0


def per_layer_metrics(
    summary: dict,
    missing: set[str],
    calls: dict[str, int],
    exact: dict[str, int],
    rounds: int,
    traced_wall: float,
    untraced_wall: float,
    traced_case_time: float,
) -> dict[str, float]:
    """Every per-layer metric, per round of the workload.

    ``summary`` is ``Tracer.summary()`` over ``rounds`` traced rounds,
    ``calls`` the Tracer's call counts over the same rounds and ``missing``
    the names it could not wrap; ``exact`` holds the counts of one round;
    each wall is the sum of the fastest times of the cases, traced and
    untraced.  A metric that reads a missing name is left out.
    """
    by_name = summary["by_name"]
    read: set[str] = set()

    def total(name: str) -> float:
        read.add(name)
        return by_name.get(name, {}).get("total", 0.0) / rounds

    def self_time(names) -> float:
        read.update(names)
        return sum(by_name.get(n, {}).get("self", 0.0) for n in names) / rounds

    def count(name: str) -> float:
        read.add(name)
        return by_name.get(name, {}).get("calls", 0) / rounds

    def counted(name: str) -> float:
        read.add(name)
        return calls.get(name, 0) / rounds

    def under(parent: str, name: str) -> float:
        """Time in spans of ``name`` whose parent is the span ``parent`` or
        any span of the layer ``parent``."""
        read.add(name)
        if parent not in SPANS:
            read.add(parent)
        return summary["under"][(parent, name)] / rounds

    reduced = exact["groebner.s_pairs_reduced"]
    lattice = exact["resolution.lcm_lattice_size"]
    formulas = {
        "cli.self_ms_per_call": lambda: _ratio(self_time(["cli.main"]), count("cli.main")) * 1e3,
        "matching.self_s": lambda: self_time(MATCHING),
        "cellular.self_s": lambda: self_time(CELLULAR),
        "algebra.minor_expand_s": lambda: total("algebra.minor_expand"),
        "algebra.monomial_new": lambda: counted("algebra.monomial_new"),
        "algebra.order_key_calls": lambda: counted("algebra.order_key_calls"),
        "groebner.is_groebner_s": lambda: total("groebner.is_groebner"),
        "groebner.s_polynomial_s": lambda: total("groebner.s_polynomial"),
        "groebner.reduce_self_s": lambda: self_time(["groebner.is_groebner"]),
        "groebner.per_minor_check_s": lambda: total("groebner.verify_theorem_main")
        - under("groebner.verify_theorem_main", "groebner.is_groebner"),
        "groebner.reductions_per_s": lambda: _ratio(reduced, total("groebner.is_groebner")),
        "resolution.certificate_s": lambda: total("resolution.linear_quotients_certificate"),
        "resolution.colon_us_per_generator": lambda: _ratio(
            total("resolution.colon_by_monomial"), count("resolution.colon_by_monomial")
        )
        * 1e6,
        "resolution.oracle_s": lambda: total("resolution.betti_oracle"),
        "resolution.homology_rank_s": lambda: under("resolution", "linalg.rational_rank"),
        "resolution.oracle_ms_per_lattice_element": lambda: _ratio(
            total("resolution.betti_oracle"), lattice
        )
        * 1e3,
        "toric.kernel_slice_s": lambda: total("toric.kernel_slice"),
        "toric.flatness_s": lambda: total("toric.flatness_check"),
        "toric.rank_s": lambda: under("toric", "linalg.rational_rank"),
        "toric.us_per_slice_monomial": lambda: _ratio(
            total("toric.kernel_slice"), exact["toric.slice_monomials"]
        )
        * 1e6,
        "toric.rank_yield": lambda: _ratio(exact["rank"], exact["toric.rank_rows"]),
        "linalg.rational_rank_s": lambda: total("linalg.rational_rank"),
        "linalg.rank_calls": lambda: count("linalg.rational_rank"),
        "linalg.homogeneous_feasible_s": lambda: total("linalg.homogeneous_feasible"),
        "groebner.useful_reduction_frac": lambda: _ratio(
            reduced - exact["groebner.s_pairs_chain_prunable"], reduced
        ),
        "trace.overhead_frac": lambda: traced_wall / untraced_wall - 1,
        "trace.coverage_frac": lambda: _ratio(summary["root_total"] / rounds, traced_case_time),
    }
    metrics = {}
    for metric, formula in formulas.items():
        read.clear()
        value = formula()
        if not read & missing:
            metrics[metric] = value
    metrics.update({k: v for k, v in exact.items() if k != "rank"})
    return metrics
