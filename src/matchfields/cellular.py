"""Hypergraph view of a matching ideal and the co-interval property.

The generators of a matching ideal form a 3-uniform hypergraph on the x, y, z
vertices.  Slicing it along a z-vertex (and then a y-vertex) gives nested
layers; relabeling the vertices by first appearance turns the hypergraph into
a graph on integers 1..N whose min-vertex layers are recursively nested.
That recursive nesting is the co-interval property checked here.

Every nesting check (the z-layers, the y-layers and the vertex layers of the
co-interval recursion) is one test, _breaks, which compares consecutive
layers and tries every pair only when some consecutive pair breaks.

The layer checks, the relabeling and the relabeled graph read one table
{z: {y: [x, ...]}}, filled in one pass over the block ordering, whose keys
and x-lists keep their order of first appearance; one call of the CLI builds
that table once and shares it among the three.  hypergraph_H, z_layer and
zy_layer build the same layers as DGraphs.  is_cointerval validates its
DGraph once and then recurses on plain sets of sorted edge tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable, Iterator, Optional

from .algebra import Monomial, VariableId, xvar, yvar, zvar
from .errors import ArityTooSmallError
from .matching import BlockStructure, MonomialIdeal, generator_triples, sort_generators

__all__ = [
    "DGraph",
    "LayerReport",
    "RelabelMap",
    "check_layer_containment",
    "graph_G",
    "hypergraph_H",
    "is_cointerval",
    "relabel_f",
    "relabeled_ideal",
    "v_layer",
    "z_layer",
    "zy_layer",
]


@dataclass(frozen=True)
class DGraph:
    """A d-uniform hypergraph: edges are sorted d-tuples of vertices."""

    d: int
    vertices: frozenset
    edges: frozenset

    def __post_init__(self):
        if type(self.d) is not int:
            raise ValueError(f"arity d must be an int, got {self.d!r}")
        if self.d < 1:
            raise ValueError("arity d must be at least 1")
        if type(self.vertices) is not frozenset or type(self.edges) is not frozenset:
            raise ValueError("vertices and edges must be frozensets")
        _ordered(self.vertices)
        for e in self.edges:
            if type(e) is not tuple:
                raise ValueError(f"edge {e!r} is not a tuple")
            if len(e) != self.d or len(set(e)) != self.d:
                raise ValueError(f"edge {e} is not a {self.d}-set")
            if not set(e) <= self.vertices:
                raise ValueError(f"edge {e} uses unknown vertices")
            if tuple(sorted(e)) != e:
                raise ValueError(f"edge {e} is not sorted")

    @classmethod
    def from_edges(
        cls, d: int, edges: Iterable[Iterable[Hashable]], extra_vertices: Iterable = ()
    ) -> "DGraph":
        es = frozenset(tuple(_ordered(e)) for e in edges)
        vs = frozenset(v for e in es for v in e) | frozenset(extra_vertices)
        return cls(d, vs, es)

    def sorted_edges(self) -> list[tuple]:
        return sorted(self.edges)


def _ordered(vertices: Iterable) -> list:
    """The vertices sorted; ValueError if they cannot be ordered."""
    try:
        return sorted(vertices)
    except TypeError as exc:
        raise ValueError(f"vertices cannot be ordered: {exc}") from None


def hypergraph_H(a: BlockStructure) -> DGraph:
    """3-graph with one edge {x_l, y_u, z_v} per matching-field generator."""
    edges = [
        (xvar(t.x), yvar(t.y), zvar(t.z)) for t in generator_triples(a)
    ]
    return DGraph.from_edges(3, edges)


def z_layer(h: DGraph, k: int) -> DGraph:
    """2-graph of the {x, y} pairs appearing with z_k."""
    zk = zvar(k)
    edges = [tuple(v for v in e if v != zk) for e in h.edges if zk in e]
    return DGraph.from_edges(2, edges)


def zy_layer(h: DGraph, k: int, l: int) -> DGraph:
    """1-graph of the x vertices appearing with both z_k and y_l."""
    zk, yl = zvar(k), yvar(l)
    edges = [
        tuple(v for v in e if v != zk and v != yl)
        for e in h.edges
        if zk in e and yl in e
    ]
    return DGraph.from_edges(1, edges)


@dataclass(frozen=True)
class LayerReport:
    """Outcome of the layer-nesting checks on one matching field."""

    ok: bool
    witnesses: tuple[str, ...]
    lower_layers_nested: bool  # informational: y-nesting also held below the top


def _layers(a: BlockStructure) -> dict[int, dict[int, list[int]]]:
    """The generators as {z: {y: [x, ...]}}, filled in one pass over the
    block ordering, so keys and x-lists come in order of first appearance."""
    table: dict[int, dict[int, list[int]]] = {}
    for t in sort_generators(a):
        table.setdefault(t.z, {}).setdefault(t.y, []).append(t.x)
    return table


def check_layer_containment(a: BlockStructure) -> LayerReport:
    """Verify the nesting of z-layers and of y-layers within the top z-layer.

    Both checks read one layer table {z: {y: [x, ...]}}, filled in one pass
    over the block ordering.  For occurring z-values v < v' the z_v-layer
    (its set of (x, y) pairs) is contained in the z_{v'}-layer.  Within the
    top z-layer, the x-sets shrink along the y-values in order of first
    appearance in the block ordering.  The same y-wise nesting evaluated in
    the lower z-layers is reported in lower_layers_nested without affecting
    ok.
    """
    return _layer_report(_layers(a))


def _layer_report(table: dict[int, dict[int, list[int]]]) -> LayerReport:
    zs = sorted(table, reverse=True)
    pairs = [{(x, y) for y, xs in table[z].items() for x in xs} for z in zs]
    z_breaks = sorted((zs[j], zs[i]) for i, j in _breaks(pairs))
    witnesses = [f"z_{v}-layer not contained in z_{v2}-layer" for v, v2 in z_breaks]
    top = table[zs[0]]
    ys = list(top)
    for i, j in _breaks([set(top[y]) for y in ys]):
        witnesses.append(f"in z_{zs[0]}-layer: y_{ys[j]} x-set not inside y_{ys[i]} x-set")
    lower_ok = not any(
        next(_breaks([set(xs) for xs in table[z].values()]), None) for z in zs[1:]
    )
    return LayerReport(ok=not witnesses, witnesses=tuple(witnesses), lower_layers_nested=lower_ok)


def _breaks(sets: list) -> Iterator[tuple[int, int]]:
    """Each (i, j), i < j, with sets[j] not inside sets[i], in lexicographic
    order.  Inclusion is transitive, so a list nested at each consecutive
    pair has none, and every pair is tried only when some consecutive one breaks."""
    if all(later <= earlier for earlier, later in zip(sets, sets[1:])):
        return
    for (i, earlier), (j, later) in combinations(enumerate(sets), 2):
        if not later <= earlier:
            yield i, j


@dataclass(frozen=True)
class RelabelMap:
    """Vertex relabeling onto 1..m+k+l.

    m counts the distinct z-values; the largest z gets label 1.  k counts the
    distinct y-values of the top z-layer, labeled m+1.. in order of first
    appearance in the block ordering.  l counts the x-values of the
    (top z, first y) layer, labeled m+k+1.. in order of appearance.
    """

    m: int
    k: int
    l: int
    assignment: tuple[tuple[VariableId, int], ...]

    @property
    def size(self) -> int:
        return self.m + self.k + self.l


def relabel_f(a: BlockStructure) -> RelabelMap:
    """Build the relabeling; every vertex of the hypergraph must be covered."""
    return _relabeling(_layers(a))


def _relabeling(table: dict[int, dict[int, list[int]]]) -> RelabelMap:
    zvals = sorted(table, reverse=True)
    top = table[zvals[0]]
    yseq = list(top)
    xseq = top[yseq[0]]
    m, k, l = len(zvals), len(yseq), len(xseq)
    labels = [zvar(v) for v in zvals] + [yvar(u) for u in yseq] + [xvar(x) for x in xseq]
    assignment = {v: i + 1 for i, v in enumerate(labels)}

    # Every z is labeled; a y or an x is missed once per generator it is in.
    yset, xset = set(yseq), set(xseq)
    missing = sorted(
        f"{family}{i}"
        for ys in table.values()
        for y, xs in ys.items()
        for x in xs
        for family, i, labeled in (("x", x, xset), ("y", y, yset))
        if i not in labeled
    )
    if missing:
        raise ValueError(f"relabeling does not cover: {', '.join(missing)}")

    return RelabelMap(m=m, k=k, l=l, assignment=tuple(sorted(assignment.items())))


def graph_G(a: BlockStructure) -> DGraph:
    """The relabeled 3-graph on the integer vertices 1..m+k+l."""
    table = _layers(a)
    return _relabeled_graph(table, _relabeling(table))


def _relabeled_graph(table: dict[int, dict[int, list[int]]], f: RelabelMap) -> DGraph:
    """One edge (z, y, x) per generator, in labels.  z-labels come before
    y-labels and y-labels before x-labels, so each edge is already sorted.

    The edges enter their set in the order of the generators' column subsets
    (z is the largest column), the order of generator_triples, so the set
    iterates and prints alike whatever the block ordering.
    """
    zl, yl, xl = ({v.index: i for v, i in f.assignment if v.family == c} for c in "zyx")
    by_subset = sorted(
        ((min(x, y), max(x, y), z), (zl[z], yl[y], xl[x]))
        for z, ys in table.items()
        for y, xs in ys.items()
        for x in xs
    )
    edges = frozenset(e for _, e in by_subset)
    return DGraph(3, frozenset(v for e in edges for v in e), edges)


def _cointerval_inputs(a: BlockStructure) -> tuple[LayerReport, RelabelMap, DGraph]:
    """check_layer_containment, relabel_f and graph_G of a, all read from one
    layer table."""
    table = _layers(a)
    report = _layer_report(table)
    f = _relabeling(table)
    return report, f, _relabeled_graph(table, f)


def v_layer(h: DGraph, v) -> DGraph:
    """Edges having v as their strict minimum, with v removed.

    The layer's vertex set is the support of its own edges: vertices of the
    parent that end up isolated do not carry over.
    """
    if h.d < 2:
        raise ArityTooSmallError("a 1-graph has no layers")
    edges = [e[1:] for e in h.edges if e[0] == v]
    return DGraph.from_edges(h.d - 1, edges)


def is_cointerval(h: DGraph) -> tuple[bool, Optional[tuple]]:
    """Recursive co-interval test.

    Every 1-graph is co-interval.  For d >= 2: every vertex layer must be
    co-interval and, for occurring vertices i < j, the j-layer must be an
    edge-subgraph of the i-layer.  A vertex lying in no edge has no bearing
    on the property.  Returns (ok, witness); the witness is a pair of
    vertices whose layers break the containment, or None.  The pairs (i, j)
    are tried in lexicographic order, then the layers' own pairs in vertex
    order, and the first failing pair is the witness.
    """
    if h.d == 1:
        return True, None
    witness = _unnested_pair(h.edges, h.d)
    return witness is None, witness


def _unnested_pair(edges: Iterable[tuple], d: int) -> Optional[tuple]:
    """is_cointerval's witness, or None, on sorted d-tuples with d >= 2.

    The layer of v is the set of edges starting at v, with v removed.
    """
    layers: dict = {}
    for e in edges:
        layers.setdefault(e[0], set()).add(e[1:])
    vs = sorted({v for e in edges for v in e})
    for i, j in _breaks([layers.get(v, frozenset()) for v in vs]):
        return vs[i], vs[j]
    if d > 2:
        for v in sorted(layers):
            witness = _unnested_pair(layers[v], d - 1)
            if witness is not None:
                return witness
    return None


def relabeled_ideal(a: BlockStructure) -> MonomialIdeal:
    """Squarefree ideal of the relabeled graph's edges.

    Lives in fresh variables t_1..t_N (N = m+k+l); they are represented as
    the x-family of an N-column single-family ring, which is all a monomial
    ideal needs.
    """
    g = graph_G(a)
    n = max(g.vertices)
    monos = [
        Monomial.of(n, xvar(e[0]), xvar(e[1]), xvar(e[2])) for e in g.edges
    ]
    return MonomialIdeal(frozenset(monos))
