"""Command line interface.

Subcommands:
  generators   list the monomial generators of the matching ideal
  weights      print the weight matrix inducing the degeneration
  verify       machine-check that the weights degenerate the minors onto it
  betti        linear-quotient certificate and total Betti numbers
  cointerval   relabeled edge graph and the recursive layer-nesting check
  kernel       degreewise toric kernel of the Pluecker monomial map
  supports     initial supports attainable by weight vectors (2x4 quadric)

Exit codes: 0 on success, 1 when a mathematical check comes back false,
2 on invalid input or an exceeded computation budget.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import Optional, Sequence

from . import __version__
from .algebra import VariableId
from .cellular import check_layer_containment, graph_G, is_cointerval, relabel_f
from .errors import MatchfieldsError
from .groebner import attainable_initial_supports, verify_theorem_main
from .matching import BlockStructure, matching_ideal, sort_generators, weight_matrix
from .resolution import betti_from_certificate, linear_quotients_certificate
from .toric import (
    flatness_check,
    format_plucker_exponents,
    kernel_slice,
    plucker_map_from_matching_field,
    plucker_quadric_gr24,
)

CSV_COMMANDS = {"generators", "weights", "betti"}


class _Output:
    def __init__(self, ok: bool, input_dict: dict, result: dict, text: list[str], rows=None):
        self.ok = ok
        self.input = input_dict
        self.result = result
        self.text = text
        self.rows = rows  # header + data rows for csv, or None


def _parse_blocks(text: str) -> tuple[int, ...]:
    """Comma-separated block sizes, each plain ASCII digits; whitespace around
    a part is allowed, an empty part is not."""
    parts = [p.strip() for p in text.split(",")]
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"cannot parse --blocks {text!r}: expected e.g. 2,3,2")
    return tuple(int(p) for p in parts)


def _structure(args) -> BlockStructure:
    if args.blocks is None and args.n is None:
        raise ValueError("provide --blocks and/or --n")
    parts = _parse_blocks(args.blocks) if args.blocks is not None else (args.n,)
    a = BlockStructure(parts)
    if args.n is not None and a.n != args.n:
        raise ValueError(f"--n {args.n} contradicts --blocks summing to {a.n}")
    return a


def _input_dict(a: Optional[BlockStructure], n: Optional[int], w0: Optional[int]) -> dict:
    return {
        "n": a.n if a is not None else n,
        "blocks": list(a.parts) if a is not None else None,
        "w0": w0,
    }


def _cmd_generators(args) -> _Output:
    a = _structure(args)
    n = a.n
    triples = sort_generators(a)
    gens = [
        {
            "columns": list(t.subset()),
            "triple": [t.x, t.y, t.z],
            "monomial": repr(t.monomial(n)),
        }
        for t in triples
    ]
    text = [f"{len(gens)} generators for blocks {list(a.parts)} (n = {n}), in block order:"]
    rows = [["columns", "x", "y", "z", "monomial"]]
    for g in gens:
        cols = " ".join(map(str, g["columns"]))
        text.append(f"  columns {{{cols}}}  ->  {g['monomial']}")
        rows.append([cols, *g["triple"], g["monomial"]])
    return _Output(True, _input_dict(a, None, None), {"count": len(gens), "generators": gens}, text, rows)


def _cmd_weights(args) -> _Output:
    a = _structure(args)
    n = a.n
    order = weight_matrix(a, args.w0)
    by_family = {
        fam: [order.weights[VariableId(fam, i)] for i in range(1, n + 1)]
        for fam in ("x", "y", "z")
    }
    result = {
        **by_family,
        "precedence": [str(v) for v in order.precedence],
    }
    text = [f"weight matrix for blocks {list(a.parts)} (n = {n}, w0 = {args.w0}):"]
    for fam in ("x", "y", "z"):
        text.append(f"  {fam}: " + " ".join(map(str, by_family[fam])))
    text.append("  precedence (greatest first): " + " > ".join(result["precedence"]))
    rows = [["variable", "weight"]]
    for fam in ("x", "y", "z"):
        for i in range(1, n + 1):
            rows.append([f"{fam}{i}", by_family[fam][i - 1]])
    return _Output(True, _input_dict(a, None, args.w0), result, text, rows)


def _at_least(value: int, least: int, name: str) -> int:
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _threads(args) -> int:
    if args.threads is not None:
        return _at_least(args.threads, 1, "--threads")
    text = os.environ.get("MATCHFIELDS_THREADS", "1")
    try:
        threads = int(text)
    except ValueError:
        raise ValueError(f"MATCHFIELDS_THREADS must be an integer, got {text!r}") from None
    return _at_least(threads, 1, "MATCHFIELDS_THREADS")


def _cmd_verify(args) -> _Output:
    threads = _threads(args)
    if args.budget is not None:
        _at_least(args.budget, 0, "--budget")
    a = _structure(args)
    report = verify_theorem_main(
        a,
        w0=args.w0,
        threads=threads,
        use_coprime_criterion=not args.no_coprime_criterion,
        budget=args.budget,
    )
    result = {
        "ok": report.ok,
        "per_minor_initial_ok": report.per_minor_initial_ok,
        "s_pairs_total": report.s_pairs_total,
        "s_pairs_reduced_to_zero": report.s_pairs_reduced_to_zero,
        "initial_ideal_equals_matching_ideal": report.initial_ideal_equals_matching_ideal,
        "failures": list(report.failures),
    }
    text = [
        f"degeneration check for blocks {list(a.parts)} (n = {a.n}, w0 = {args.w0}):",
        f"  every minor has its unique top-weight term on the matching field: "
        f"{'yes' if report.per_minor_initial_ok else 'NO'}",
        f"  S-pairs reduced to zero: {report.s_pairs_reduced_to_zero} of {report.s_pairs_total}",
        f"  initial ideal equals the matching ideal: "
        f"{'yes' if report.initial_ideal_equals_matching_ideal else 'NO'}",
    ]
    for f in report.failures:
        text.append(f"  failure: {f}")
    text.append("PASS" if report.ok else "FAIL")
    return _Output(report.ok, _input_dict(a, None, args.w0), result, text)


def _cmd_betti(args) -> _Output:
    a = _structure(args)
    n = a.n
    ordered = [t.monomial(n) for t in sort_generators(a)]
    cert = linear_quotients_certificate(ordered)
    result = {
        "linear_quotients": cert.is_linear,
        "set_sizes": [len(s) for s in cert.sets],
    }
    rows = None
    if cert.is_linear:
        table = betti_from_certificate(cert)
        result["betti"] = list(table)
        result["projective_dimension"] = len(table) - 1
        text = [
            f"betti numbers for blocks {list(a.parts)} (n = {n}):",
            "  linear quotients along the block ordering: yes",
            "  betti: " + " ".join(map(str, table)),
            f"  projective dimension: {len(table) - 1}",
        ]
        rows = [["i", "betti_i"]] + [[i, b] for i, b in enumerate(table)]
    else:
        j, q = cert.first_failure
        result["first_failure"] = {"position": j, "colon_generator": repr(q)}
        text = [
            f"betti numbers for blocks {list(a.parts)} (n = {n}):",
            "  linear quotients along the block ordering: NO",
            f"  first failure at position {j}: colon generator {q!r}",
            "FAIL",
        ]
    return _Output(cert.is_linear, _input_dict(a, None, None), result, text, rows)


def _cmd_cointerval(args) -> _Output:
    a = _structure(args)
    layers = check_layer_containment(a)
    f = relabel_f(a)
    g = graph_G(a)
    ok, witness = is_cointerval(g)
    edges = g.sorted_edges()
    result = {
        "layer_nesting_ok": layers.ok,
        "layer_witnesses": list(layers.witnesses),
        "lower_layers_nested": layers.lower_layers_nested,
        "m": f.m,
        "k": f.k,
        "l": f.l,
        "relabeling": {str(v): i for v, i in f.assignment},
        "edges": [list(e) for e in edges],
        "edge_labels": [_edge_label(e) for e in edges],
        "cointerval": ok,
        "witness": list(witness) if witness else None,
    }
    text = [
        f"relabeled graph for blocks {list(a.parts)} (n = {a.n}): "
        f"m = {f.m}, k = {f.k}, l = {f.l}",
        "  edges: " + " ".join(result["edge_labels"]),
        f"  z- and y-layer nesting: {'yes' if layers.ok else 'NO'}",
        f"  co-interval: {'yes' if ok else 'NO'}",
    ]
    for w in layers.witnesses:
        text.append(f"  nesting failure: {w}")
    if witness:
        text.append(f"  witness: layers of vertices {witness[0]} and {witness[1]} not nested")
    text.append("PASS" if ok and layers.ok else "FAIL")
    return _Output(ok and layers.ok, _input_dict(a, None, None), result, text)


def _edge_label(e: tuple) -> str:
    if all(v <= 9 for v in e):
        return "".join(map(str, e))
    return "-".join(map(str, e))


def _cmd_kernel(args) -> _Output:
    _at_least(args.dmax, 1, "--dmax")
    _at_least(args.budget, 0, "--budget")
    a = _structure(args)
    pmap = plucker_map_from_matching_field(a)
    slices = []
    text = [f"toric kernel of the Pluecker monomial map for blocks {list(a.parts)} (n = {a.n}):"]
    for d in range(1, args.dmax + 1):
        ks = kernel_slice(pmap, d, budget=args.budget)
        entry = {
            "degree": d,
            "dimension": ks.dimension,
            "new_minimal_generators": ks.new_minimal_generators,
        }
        if len(ks.binomials) <= 200:
            entry["binomials"] = [
                f"{format_plucker_exponents(pmap, p)} - {format_plucker_exponents(pmap, q)}"
                for p, q in ks.binomials
            ]
        slices.append(entry)
        text.append(
            f"  degree {d}: kernel dimension {ks.dimension}, "
            f"new minimal generators {ks.new_minimal_generators}"
        )
    flat = flatness_check(pmap, 3, a.n, args.dmax, budget=args.budget)
    result = {
        "slices": slices,
        "flatness_ok": flat.ok,
        "flatness_rows": [list(r) for r in flat.rows],
    }
    for d, got, want in flat.rows:
        text.append(f"  degree {d}: {got} distinct images, rectangle dimension {want}")
    text.append(
        "Hilbert function matches the rectangle dimensions"
        if flat.ok
        else "FAIL: Hilbert function differs from the rectangle dimensions"
    )
    return _Output(flat.ok, _input_dict(a, None, None), result, text)


def _cmd_supports(args) -> _Output:
    k, n = args.plucker_quadric
    if (k, n) != (2, 4):
        raise ValueError("only the 2x4 Pluecker quadric is supported")
    f = plucker_quadric_gr24()
    names = {1: "p12", 2: "p13", 3: "p14", 4: "p23", 5: "p24", 6: "p34"}

    def render(m) -> str:
        return "*".join(
            names[v.index] if e == 1 else f"{names[v.index]}^{e}" for v, e in m.items()
        )

    supports = attainable_initial_supports(f)
    rendered = sorted(sorted(render(m) for m in s) for s in supports)
    result = {"count": len(rendered), "supports": rendered}
    text = [
        f"initial supports of the {k}x{n} Pluecker quadric attainable by weight vectors:",
    ]
    for s in rendered:
        text.append("  {" + ", ".join(s) + "}")
    text.append(f"{len(rendered)} supports")
    return _Output(True, _input_dict(None, n, None), result, text)


_HANDLERS = {
    "generators": _cmd_generators,
    "weights": _cmd_weights,
    "verify": _cmd_verify,
    "betti": _cmd_betti,
    "cointerval": _cmd_cointerval,
    "kernel": _cmd_kernel,
    "supports": _cmd_supports,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchfields",
        description="Block-diagonal matching fields: degenerations of maximal "
        "minors of a 3xn matrix, their resolutions, and toric kernels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_w0=False):
        p.add_argument("--n", type=int, default=None, help="number of columns")
        p.add_argument(
            "--blocks",
            type=str,
            default=None,
            help="comma separated block sizes, e.g. 2,3,2 (default: one block of n)",
        )
        p.add_argument(
            "--format",
            choices=("text", "json", "csv"),
            default="text",
            help="output format",
        )
        if with_w0:
            p.add_argument("--w0", type=int, default=1, help="base weight (default 1)")

    add_common(sub.add_parser("generators", help="matching ideal generators"))
    add_common(sub.add_parser("weights", help="the degenerating weight matrix"), with_w0=True)

    p = sub.add_parser("verify", help="check the Groebner degeneration")
    add_common(p, with_w0=True)
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="at least 1; accepted for compatibility, the check runs in one "
        "thread (default: MATCHFIELDS_THREADS or 1)",
    )
    p.add_argument("--budget", type=int, default=None, help="cap on reduction steps")
    p.add_argument(
        "--no-coprime-criterion",
        action="store_true",
        help="reduce every S-pair: turn off the coprime and chain criteria",
    )

    add_common(sub.add_parser("betti", help="linear quotients and Betti numbers"))
    add_common(sub.add_parser("cointerval", help="relabeled graph and co-interval check"))

    p = sub.add_parser("kernel", help="toric kernel of the Pluecker map")
    add_common(p)
    p.add_argument("--dmax", type=int, default=2, help="largest degree to inspect (default 2)")
    p.add_argument("--budget", type=int, default=500_000, help="cap on monomials per degree")

    p = sub.add_parser("supports", help="attainable initial supports of a quadric")
    p.add_argument(
        "--plucker-quadric",
        nargs=2,
        type=int,
        metavar=("K", "N"),
        required=True,
        help="rows and columns of the Grassmannian; only 2 4 is available",
    )
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv" and args.command not in CSV_COMMANDS:
        print(f"csv output is not available for '{args.command}'", file=sys.stderr)
        return 2
    try:
        out = _HANDLERS[args.command](args)
    except (MatchfieldsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        doc = {
            "command": args.command,
            "input": out.input,
            "result": out.result,
            "version": __version__,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerows(out.rows or [])
    else:
        print("\n".join(out.text))
    return 0 if out.ok else 1


if __name__ == "__main__":
    sys.exit(main())
