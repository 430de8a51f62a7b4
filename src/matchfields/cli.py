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
2 on invalid input or an exceeded computation budget.  _structure refuses
a command past its MAX_COLUMNS entry, and kernel past toric._check_size,
before it builds anything.

JSON output is written in one pass by _dumps, byte for byte what
json.dumps(doc, indent=2, sort_keys=True) writes: keys sorted, two spaces
of indent per level, strings escaped to ASCII by the json module's own C
escaper, and one trailing newline from print.  Its domain is what the
handlers build: dicts with str keys, lists, str, int, bool and None; any
other type raises TypeError, as json.dumps does.
"""

from __future__ import annotations

import argparse
import functools
import sys
from contextlib import suppress
from itertools import combinations
from json.encoder import encode_basestring_ascii
from math import comb
from typing import Optional, Sequence

from . import __version__
from ._packed import pack_triples
from .algebra import VariableId, xvar
from .cellular import _cointerval_inputs, is_cointerval
from .errors import MatchfieldsError, TooLargeError
from .groebner import attainable_initial_supports, verify_theorem_main
from .matching import BlockStructure, _composition, generator_triples, sort_generators, weight_matrix
from .resolution import _colon_sets, betti_from_variable_sets
from .toric import (
    KERNEL_BUDGET,
    _check_size,
    _format_count,
    _format_exponents,
    _index_label,
    _kernel_and_flatness,
    plucker_quadric_gr24,
    plucker_variable_name,
)

CSV_COMMANDS = {"generators", "weights", "betti"}

# kernel lists a slice's spanning binomials only when it has at most this
# many; larger slices report their dimension alone, and their binomials are
# never built.
MAX_PRINTED_BINOMIALS = 200

# Column limits: verify and betti grow fast in their C(n, 3) minors or
# generators, generators and cointerval print and tabulate them, and weights
# grows linearly (--n 10000 takes 0.3 s and 34 MiB as a process).  weights and
# verify also cap --w0, since verify's packed weight fields widen with its digits.
MAX_COLUMNS = {"generators": 60, "cointerval": 60, "betti": 20, "verify": 20, "weights": 10_000}
MAX_W0 = 2**32


class _Output:
    def __init__(self, ok: bool, a: Optional[BlockStructure], result: dict, text: list[str], rows=None):
        self.ok = ok
        self.a = a  # None for supports
        self.result = result
        self.text = text
        self.rows = rows  # header + data rows for csv, or None


def _parse_blocks(text: str) -> tuple[int, ...]:
    """Comma-separated block sizes, each plain ASCII digits within int()'s
    digit limit; whitespace around a part is allowed, an empty part is not."""
    parts = [p.strip() for p in text.split(",")]
    if all(p.isascii() and p.isdigit() for p in parts):
        with suppress(ValueError):  # a part past int()'s digit limit
            return tuple(int(p) for p in parts)
    raise ValueError(f"cannot parse --blocks {text!r}: expected e.g. 2,3,2")


def _structure(args) -> BlockStructure:
    """The composition given by --blocks and --n, built only after every
    refusal that must come first: --dmax below 1 and --budget below 0 where
    the command has them, malformed parts, then TooLargeError past the
    command's MAX_COLUMNS entry or MAX_W0 and, for kernel, past toric's size
    rule.  The limits read only n = sum(parts), so no column table is built."""
    for name, least in (("dmax", 1), ("budget", 0)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ValueError(f"--{name} must be at least {least}, got {value}")
    if args.blocks is None and args.n is None:
        raise ValueError("provide --blocks and/or --n")
    parts = _composition(_parse_blocks(args.blocks) if args.blocks is not None else (args.n,))
    n = sum(parts)
    if args.n is not None and n != args.n:
        raise ValueError(f"--n {args.n} contradicts --blocks summing to {_format_count(n)}")
    limit = MAX_COLUMNS.get(args.command)
    if limit is not None and n > limit:
        raise TooLargeError(f"{_format_count(n)} columns exceeds the {args.command} limit of {limit} columns")
    if getattr(args, "w0", 1) > MAX_W0:
        raise TooLargeError(f"--w0 {_format_count(args.w0)} exceeds the limit of {MAX_W0}")
    if args.command == "kernel":
        _check_size(comb(n, 3), 1, args.dmax, args.budget)
    return BlockStructure(parts)


def _cmd_generators(args) -> _Output:
    a = _structure(args)
    n = a.n
    gens = [
        {"columns": list(t.subset()), "triple": [t.x, t.y, t.z], "monomial": str(t)}
        for t in sort_generators(a)
    ]
    text = [f"{len(gens)} generators for blocks {list(a.parts)} (n = {n}), in block order:"]
    rows = [["columns", "x", "y", "z", "monomial"]]
    for g in gens:
        cols = " ".join(map(str, g["columns"]))
        text.append(f"  columns {{{cols}}}  ->  {g['monomial']}")
        rows.append([cols, *g["triple"], g["monomial"]])
    return _Output(True, a, {"count": len(gens), "generators": gens}, text, rows)


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
    return _Output(True, a, result, text, rows)


def _cmd_verify(args) -> _Output:
    a = _structure(args)
    report = verify_theorem_main(
        a,
        w0=args.w0,
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
    return _Output(report.ok, a, result, text)


def _cmd_betti(args) -> _Output:
    a = _structure(args)
    n = a.n
    triples = sort_generators(a)
    sets, failure = _colon_sets(*pack_triples(triples, n, 1), n)
    result = {
        "linear_quotients": failure is None,
        "set_sizes": [len(s) for s in sets],
    }
    rows = None
    if failure is None:
        table = betti_from_variable_sets(sets)
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
        j, q = failure
        result["first_failure"] = {"position": j, "colon_generator": repr(q)}
        text = [
            f"betti numbers for blocks {list(a.parts)} (n = {n}):",
            "  linear quotients along the block ordering: NO",
            f"  first failure at position {j}: colon generator {q!r}",
            "FAIL",
        ]
    return _Output(failure is None, a, result, text, rows)


def _cmd_cointerval(args) -> _Output:
    a = _structure(args)
    layers, f, g = _cointerval_inputs(a)
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
        "edge_labels": [_index_label(e) for e in edges],
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
    return _Output(ok and layers.ok, a, result, text)


def _cmd_kernel(args) -> _Output:
    a = _structure(args)
    triples = generator_triples(a)  # raises TooSmallError when n < 3
    codes = pack_triples(triples, a.n, args.dmax)[1]
    names: list[str] = []  # built at the first slice that lists binomials
    slices = []
    text = [f"toric kernel of the Pluecker monomial map for blocks {list(a.parts)} (n = {a.n}):"]
    kernel, flat = _kernel_and_flatness(codes, 3, a.n, args.dmax, MAX_PRINTED_BINOMIALS)
    for ks in kernel:
        entry = {
            "degree": ks.degree,
            "dimension": ks.dimension,
            "new_minimal_generators": ks.new_minimal_generators,
        }
        if ks.binomials:
            names = names or [plucker_variable_name(t.subset()) for t in triples]
        if ks.binomials is not None:
            entry["binomials"] = [
                f"{_format_exponents(names, p)} - {_format_exponents(names, q)}"
                for p, q in ks.binomials
            ]
        slices.append(entry)
        text.append(
            f"  degree {ks.degree}: kernel dimension {ks.dimension}, "
            f"new minimal generators {ks.new_minimal_generators}"
        )
    result = {
        "slices": slices,
        "flatness_ok": flat.ok,
        "flatness_rows": [list(r) for r in flat.rows],
    }
    for d, got, want in flat.rows:
        text.append(f"  degree {d}: {got} distinct images, rectangle dimension {want}")
    dims = f"the rectangle dimensions up to degree {args.dmax}"
    text.append(
        f"Hilbert function matches {dims}"
        if flat.ok
        else f"FAIL: Hilbert function differs from {dims}"
    )
    return _Output(flat.ok, a, result, text)


def _cmd_supports(args) -> _Output:
    k, n = args.plucker_quadric
    if (k, n) != (2, 4):
        raise ValueError("only the 2x4 Pluecker quadric is supported")
    f = plucker_quadric_gr24()
    # x_k stands for the k-th 2-subset of {1, .., 4}, as the quadric says.
    names = [plucker_variable_name(sub) for sub in combinations(range(1, 5), 2)]
    rendered = sorted(
        sorted(_format_exponents(names, [m.exponent(xvar(k)) for k in range(1, 7)]) for m in s)
        for s in attainable_initial_supports(f)
    )
    result = {"count": len(rendered), "supports": rendered}
    text = [
        f"initial supports of the {k}x{n} Pluecker quadric attainable by weight vectors:",
    ]
    for s in rendered:
        text.append("  {" + ", ".join(s) + "}")
    text.append(f"{len(rendered)} supports")
    return _Output(True, None, result, text)


_HANDLERS = {
    "generators": _cmd_generators,
    "weights": _cmd_weights,
    "verify": _cmd_verify,
    "betti": _cmd_betti,
    "cointerval": _cmd_cointerval,
    "kernel": _cmd_kernel,
    "supports": _cmd_supports,
}


def _dumps(doc) -> str:
    """json.dumps(doc, indent=2, sort_keys=True), for the CLI's documents."""
    out: list[str] = []
    _write(doc, out, "\n")
    return "".join(out)


def _write(x, out: list[str], newline: str) -> None:
    """Append the JSON text of x to out; newline is "\n" plus the indent of
    the line x starts on."""
    t = type(x)
    if t is str:
        out.append(encode_basestring_ascii(x))
    elif t is int:
        out.append(int.__repr__(x))
    elif t is dict:
        if not x:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(x):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(x[key], out, inner)
            sep = "," + inner
        out.append(newline + "}")
    elif t is list:
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(v) is int for v in x):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, x)) + newline + "]")
            return
        sep = "[" + inner
        for v in x:
            out.append(sep)
            _write(v, out, inner)
            sep = "," + inner
        out.append(newline + "]")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif x is None:
        out.append("null")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


@functools.cache
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
    p.add_argument(
        "--budget", type=int, default=KERNEL_BUDGET,
        help="cap on the monomials of degrees 1 to dmax together and, at n = 3, on dmax(dmax + 1)/2",
    )

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
            "input": {
                "n": out.a.n if out.a is not None else args.plucker_quadric[1],
                "blocks": list(out.a.parts) if out.a is not None else None,
                "w0": getattr(args, "w0", None),
            },
            "result": out.result,
            "version": __version__,
        }
        print(_dumps(doc))
    elif args.format == "csv":
        import csv  # only csv output needs it; the JSON path stays lean

        writer = csv.writer(sys.stdout)
        writer.writerows(out.rows or [])
    else:
        print("\n".join(out.text))
    return 0 if out.ok else 1


if __name__ == "__main__":
    sys.exit(main())
