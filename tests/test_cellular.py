"""Hypergraph layers, relabeling, and the co-interval property."""

import json
import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

import matchfields.cellular as cellular
import matchfields.matching as matching
from matchfields import (
    ArityTooSmallError,
    BlockStructure,
    DGraph,
    check_layer_containment,
    generator_triples,
    graph_G,
    hypergraph_H,
    is_cointerval,
    relabel_f,
    relabeled_ideal,
    sort_generators,
    v_layer,
    xvar,
    yvar,
    z_layer,
    zvar,
    zy_layer,
)

from helpers import all_compositions


def test_dgraph_validation():
    g = DGraph.from_edges(2, [(2, 1), (3, 1)])
    assert g.sorted_edges() == [(1, 2), (1, 3)]
    assert g.vertices == frozenset({1, 2, 3})
    with pytest.raises(ValueError):
        DGraph(2, frozenset({1}), frozenset({(1, 2)}))
    with pytest.raises(ValueError):
        DGraph(2, frozenset({1, 2}), frozenset({(2, 1)}))
    with pytest.raises(ValueError):
        DGraph(2, frozenset({1, 2}), frozenset({(1, 1)}))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: DGraph(True, frozenset({1}), frozenset({(1,)})), "arity"),
        (lambda: DGraph(2.5, frozenset({1, 2}), frozenset({(1, 2)})), "arity"),
        (lambda: DGraph.from_edges(2, [(xvar(1), 1)]), "cannot be ordered"),
        (lambda: DGraph(1, frozenset({xvar(1), 1}), frozenset()), "cannot be ordered"),
        (lambda: DGraph(2, {1, 2}, frozenset({(1, 2)})), "frozensets"),
        (lambda: DGraph(2, frozenset({1, 2}), {(1, 2)}), "frozensets"),
        (lambda: DGraph(2, frozenset({1, 2}), frozenset({frozenset({1, 2})})), "tuple"),
        (lambda: DGraph(2, frozenset({1, 2}), frozenset({(1, "a")})), "unknown"),
    ],
    ids=["bool", "float", "mixed-edge", "mixed-vertices", "set-vertices",
         "set-edges", "frozenset-edge", "foreign-vertex"],
)
def test_dgraph_refuses_malformed_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_hypergraph_edge_count_and_shape():
    a = BlockStructure((3, 2))
    h = hypergraph_H(a)
    assert h.d == 3
    assert len(h.edges) == 10
    for e in h.edges:
        assert [v.family for v in e] == ["x", "y", "z"]


def test_z_layers_nested_for_frozen_example():
    a = BlockStructure((3, 2))
    h = hypergraph_H(a)
    l4 = z_layer(h, 4)
    l5 = z_layer(h, 5)
    assert l4.edges <= l5.edges
    assert len(l4.edges) == 3 and len(l5.edges) == 6
    assert (xvar(1), yvar(2)) in l4.edges
    # zy-layer inside the top z-layer: x-columns seen with y3 and z5.
    zy = zy_layer(h, 5, 3)
    assert zy.edges == frozenset({(xvar(1),), (xvar(2),), (xvar(4),)})


def test_layer_containment_all_structures_through_n7():
    for n in range(3, 8):
        for parts in all_compositions(n):
            rep = check_layer_containment(BlockStructure(parts))
            assert rep.ok, (parts, rep.witnesses)
            assert rep.lower_layers_nested, parts


def test_relabeling_frozen_example():
    a = BlockStructure((3, 2))
    f = relabel_f(a)
    assert (f.m, f.k, f.l) == (3, 3, 3)
    assert f.size == 9
    expected = {
        "z5": 1, "z4": 2, "z3": 3,
        "y3": 4, "y2": 5, "y1": 6,
        "x1": 7, "x2": 8, "x4": 9,
    }
    assert {str(v): i for v, i in f.assignment} == expected


def test_relabeled_graph_frozen_edges():
    a = BlockStructure((3, 2))
    g = graph_G(a)
    labels = {"".join(map(str, e)) for e in g.edges}
    assert labels == {
        "357", "247", "248", "257", "147", "148", "149", "157", "159", "169"
    }
    assert g.vertices == frozenset(range(1, 10))


def test_v_layer_minimum_slices():
    a = BlockStructure((3, 2))
    g = graph_G(a)
    assert v_layer(g, 3).edges == frozenset({(5, 7)})
    one = {"".join(map(str, e)) for e in v_layer(g, 1).edges}
    assert one == {"47", "48", "49", "57", "59", "69"}
    assert v_layer(g, 9).edges == frozenset()
    with pytest.raises(ArityTooSmallError):
        v_layer(v_layer(v_layer(g, 1), 4), 7)


def test_cointerval_positive_all_structures():
    for n in range(3, 8):
        for parts in all_compositions(n):
            ok, witness = is_cointerval(graph_G(BlockStructure(parts)))
            assert ok, (parts, witness)


def test_cointerval_negative_examples():
    ok, witness = is_cointerval(DGraph.from_edges(2, [(1, 2), (3, 4)]))
    assert not ok and witness == (1, 3)
    ok, witness = is_cointerval(DGraph.from_edges(2, [(1, 3), (2, 4)]))
    assert not ok
    # 3-graph whose 1- and 2-layers are not nested.
    ok, witness = is_cointerval(DGraph.from_edges(3, [(1, 3, 4), (2, 3, 5)]))
    assert not ok


def test_cointerval_simple_positives():
    assert is_cointerval(DGraph.from_edges(1, [(1,), (4,)]))[0]
    assert is_cointerval(DGraph.from_edges(2, [(1, 2), (1, 3), (2, 3)]))[0]
    # a single edge, and a nested star
    assert is_cointerval(DGraph.from_edges(2, [(2, 3)]))[0]
    assert is_cointerval(DGraph.from_edges(2, [(1, 2), (1, 3), (1, 4), (2, 3)]))[0]


def test_cointerval_ignores_isolated_vertices():
    g = DGraph.from_edges(2, [(2, 3)], extra_vertices={1})
    assert is_cointerval(g)[0]


def _reference_is_cointerval(h):
    """The co-interval recursion written over DGraph layers: one v_layer
    per occurring vertex at every depth, pairs tried in lexicographic order
    before the layers are entered in vertex order."""
    if h.d == 1:
        return True, None
    vs = sorted({v for e in h.edges for v in e})
    layers = {v: v_layer(h, v) for v in vs}
    for i, j in combinations(vs, 2):
        if not layers[j].edges <= layers[i].edges:
            return False, (i, j)
    for v in vs:
        ok, witness = _reference_is_cointerval(layers[v])
        if not ok:
            return False, witness
    return True, None


def _random_hypergraphs(count, seed):
    """Seeded d-graphs with 1 <= d <= 4 on at most 7 vertices: half keep each
    d-set with one random probability, half are complete d-graphs less one
    to three edges; some get isolated vertices."""
    rng = random.Random(seed)
    for index in range(count):
        d = rng.randint(1, 4)
        pool = list(combinations(range(1, rng.randint(d, 7) + 1), d))
        if index % 2:
            keep = rng.random()
            edges = [e for e in pool if rng.random() < keep]
        else:
            dropped = set(rng.sample(pool, min(len(pool), rng.randint(1, 3))))
            edges = [e for e in pool if e not in dropped]
        isolated = rng.sample(range(8, 11), rng.randint(0, 2))
        yield DGraph.from_edges(d, edges, extra_vertices=isolated)


def test_cointerval_matches_the_dgraph_layer_recursion():
    for n in range(3, 9):
        for parts in all_compositions(n):
            g = graph_G(BlockStructure(parts))
            assert is_cointerval(g) == _reference_is_cointerval(g) == (True, None), parts
    verdicts = Counter()
    for h in _random_hypergraphs(500, seed=19):
        ok, witness = is_cointerval(h)
        assert (ok, witness) == _reference_is_cointerval(h), sorted(h.edges)
        if ok:
            verdicts["co-interval"] += 1
            continue
        # A pair whose top layers nest can only come from inside a layer.
        i, j = witness
        top = {v: {e[1:] for e in h.edges if e[0] == v} for v in (i, j)}
        verdicts["inside a layer" if top[j] <= top[i] else "at the top"] += 1
    assert min(verdicts.values()) >= 20 and len(verdicts) == 3, verdicts


def test_relabeled_ideal_shape():
    a = BlockStructure((3, 2))
    ideal = relabeled_ideal(a)
    gens = ideal.sorted_generators()
    assert len(gens) == 10
    assert all(g.degree == 3 for g in gens)
    assert all(v.family == "x" for g in gens for v in g.variables())
    reprs = {repr(g) for g in gens}
    assert "x3*x5*x7" in reprs  # edge 357
    assert "x1*x6*x9" in reprs  # edge 169


def test_layer_table_matches_the_dgraph_layers():
    """The one-pass table holds the z_layer and zy_layer edges, every
    generator once, with keys and x-lists in block-order first appearance."""
    for n in range(3, 8):
        for parts in all_compositions(n):
            a = BlockStructure(parts)
            h = hypergraph_H(a)
            ordered = sort_generators(a)
            table = cellular._layers(a)
            assert list(table) == list(dict.fromkeys(t.z for t in ordered)), parts
            for z, ys in table.items():
                pairs = {(xvar(x), yvar(y)) for y, xs in ys.items() for x in xs}
                assert pairs == z_layer(h, z).edges, (parts, z)
                in_z = [t for t in ordered if t.z == z]
                assert list(ys) == list(dict.fromkeys(t.y for t in in_z)), (parts, z)
                for y, xs in ys.items():
                    assert {(xvar(x),) for x in xs} == zy_layer(h, z, y).edges
                    assert xs == [t.x for t in in_z if t.y == y], (parts, z, y)


def test_layer_checks_sort_once_and_build_no_dgraph_layers(monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(cellular, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in ("sort_generators", "hypergraph_H", "z_layer", "zy_layer"):
        monkeypatch.setattr(cellular, name, counted(name))
    a = BlockStructure((4, 3))
    check_layer_containment(a)
    assert calls == {"sort_generators": 1}
    calls.clear()
    relabel_f(a)
    assert calls == {"sort_generators": 1}


def _all_pairs_breaks(sets):
    return [(i, j) for i, j in combinations(range(len(sets)), 2) if not sets[j] <= sets[i]]


def _random_chains(count, seed):
    """Seeded lists of up to 7 sets, each inside the one before it, then 0, 1
    or 2 to 4 of their sets given a random element, which may break the
    chain; each list comes with its reversal, which mostly grows."""
    rng = random.Random(seed)
    for _ in range(count):
        current = set(rng.sample(range(12), rng.randint(0, 10)))
        chain = []
        for _ in range(rng.randint(0, 7)):
            chain.append(set(current))
            current -= set(rng.sample(sorted(current), min(len(current), rng.randint(0, 2))))
        for k in rng.sample(range(len(chain)), min(len(chain), rng.choice([0, 1, 2, 3, 4]))):
            chain[k].add(rng.randrange(12))
        yield chain
        yield chain[::-1]


def test_breaks_yields_exactly_the_failing_pairs_in_lexicographic_order():
    kinds = Counter()
    for sets in _random_chains(500, seed=36):
        want = _all_pairs_breaks(sets)
        assert list(cellular._breaks(sets)) == want, sets
        kinds[min(len(want), 2)] += 1
    assert min(kinds[k] for k in (0, 1, 2)) >= 50, kinds


def _reference_layer_report(table):
    """The layer checks written over every pair: z-values ascending, and the
    y-values of each layer in the table's order."""
    zvals = sorted(table)
    pairs = {z: {(x, y) for y, xs in table[z].items() for x in xs} for z in zvals}
    witnesses = [
        f"z_{v}-layer not contained in z_{v2}-layer"
        for v, v2 in combinations(zvals, 2)
        if not pairs[v] <= pairs[v2]
    ]

    def y_breaks(z):
        xsets = {y: set(xs) for y, xs in table[z].items()}
        return [(u, u2) for u, u2 in combinations(xsets, 2) if not xsets[u2] <= xsets[u]]

    top = zvals[-1]
    witnesses += [
        f"in z_{top}-layer: y_{later} x-set not inside y_{earlier} x-set"
        for earlier, later in y_breaks(top)
    ]
    lower = not any(y_breaks(z) for z in zvals[:-1])
    return cellular.LayerReport(not witnesses, tuple(witnesses), lower)


def _broken_tables(count, seed):
    """Seeded layer tables of compositions of 3 <= n <= 7, each changed one
    to three times: an x added to or dropped from a y-list, or the y-values
    of a z-layer reordered."""
    rng = random.Random(seed)
    shapes = [parts for n in range(3, 8) for parts in all_compositions(n)]
    for _ in range(count):
        parts = rng.choice(shapes)
        table = cellular._layers(BlockStructure(parts))
        for _ in range(rng.randint(1, 3)):
            z = rng.choice(list(table))
            y = rng.choice(list(table[z]))
            xs = table[z][y]
            missing = [x for x in range(1, sum(parts) + 1) if x not in xs]
            change = rng.randrange(3)
            if change == 0 and missing:
                xs.append(rng.choice(missing))
            elif change == 1 and len(xs) > 1:
                xs.remove(rng.choice(xs))
            else:
                order = list(table[z].items())
                rng.shuffle(order)
                table[z] = dict(order)
        yield table


def test_layer_report_equals_the_all_pairs_checks():
    for n in range(3, 8):
        for parts in all_compositions(n):
            table = cellular._layers(BlockStructure(parts))
            assert cellular._layer_report(table) == _reference_layer_report(table), parts
    kinds = Counter()
    for table in _broken_tables(600, seed=36):
        report = cellular._layer_report(table)
        assert report == _reference_layer_report(table), table
        kinds.update("y-layer" if w.startswith("in ") else "z-layer" for w in report.witnesses)
        kinds["lower y-layer"] += not report.lower_layers_nested
    assert min(kinds.values()) >= 50 and len(kinds) == 3, kinds


def _perturbed_cases():
    """(parts, change, triples): three seeded perturbations of the generator
    triples of each composition of 3 <= n <= 6, skipping any that repeats a
    triple."""
    rng = random.Random(7)
    cases = []
    for n in range(3, 7):
        for parts in all_compositions(n):
            triples = generator_triples(BlockStructure(parts))
            i = rng.randrange(len(triples))
            j = rng.randrange(len(triples))
            k = rng.randrange(len(triples))
            z = rng.randint(1, n)
            swapped = triples[j]._replace(x=triples[j].y, y=triples[j].x)
            moved = triples[k]._replace(z=z)
            for change, perturbed in (
                (f"drop {i}", triples[:i] + triples[i + 1 :]),
                (f"swap x and y of {j}", triples[:j] + [swapped] + triples[j + 1 :]),
                (f"set z of {k} to {z}", triples[:k] + [moved] + triples[k + 1 :]),
            ):
                if len(set(perturbed)) == len(perturbed):
                    cases.append((parts, change, perturbed))
    return cases


def _outcome(compute):
    """repr of the result, or the type and text of the error it raises."""
    try:
        return repr(compute())
    except (IndexError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _cellular_outcomes(a):
    return {
        "layers": _outcome(lambda: check_layer_containment(a)),
        "relabel": _outcome(lambda: relabel_f(a)),
        "graph": _outcome(lambda: sorted(graph_G(a).edges)),
    }


def test_cellular_failure_reports_are_pinned(monkeypatch):
    path = Path(__file__).parent / "data" / "cellular_perturbed.json"
    golden = json.loads(path.read_text())
    cases = _perturbed_cases()
    assert [(tuple(g["parts"]), g["change"]) for g in golden] == [c[:2] for c in cases]
    for want, (parts, _, triples) in zip(golden, cases):
        def perturbed(a, ts=triples):
            return list(ts)

        for module in (matching, cellular):
            monkeypatch.setattr(module, "generator_triples", perturbed)
        got = _cellular_outcomes(BlockStructure(parts))
        assert got == {key: want[key] for key in got}, want
    uncovered = [
        g["relabel"].split(": ", 2)[2].split(", ")
        for g in golden
        if "relabeling does not cover" in g["relabel"]
    ]
    assert any(len(set(names)) < len(names) for names in uncovered)
    assert sum("ok=False" in g["layers"] for g in golden) == 121
    assert len(uncovered) == 61
    assert sum("lower_layers_nested=False" in g["layers"] for g in golden) == 34
