"""Structures: universes, relations, metric, patterns, combination ops."""
import dataclasses
import math
import random

import networkx as nx
import pytest

from focount.errors import InputError
from focount.generators import FAMILY_NAMES, make_family
from focount.structures import (PatternGraph, Signature, Structure,
                                all_patterns, cached, disjoint_union,
                                gaifman_graph, structure_from_json,
                                structure_to_json)

from helpers import (graph_edges, nx_dist, nx_gaifman, pattern_graph,
                     random_structure)


def triangle_with_tail():
    sig = Signature.of({"E": 2, "R": 3})
    rels = {
        "E": [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"),
              ("a", "c"), ("c", "a"), ("c", "d"), ("d", "c")],
        "R": [("d", "e", "f")],
    }
    return Structure(sig, ["a", "b", "c", "d", "e", "f"], rels)


def test_signature_basics():
    sig = Signature.of({"E": 2, "P": 1})
    assert sig.has("E") and sig.arity("E") == 2
    assert not sig.has("X")
    bigger = sig.extend([("X", 1)])
    assert bigger.has("X") and bigger.arity("X") == 1
    with pytest.raises(InputError):
        Signature.of([("E", 2), ("E", 1)])


def test_universe_is_sorted_and_deduped():
    s = Structure(Signature.of({"P": 1}), ["b", "a", "b"], {"P": [("a",)]})
    assert s.universe == ("a", "b")
    assert s.relations["P"] == frozenset({("a",)})


def test_constructor_rejects_bad_tuples():
    sig = Signature.of({"E": 2})
    with pytest.raises(InputError):
        Structure(sig, ["a"], {"E": [("a",)]})
    with pytest.raises(InputError):
        Structure(sig, ["a"], {"E": [("a", "z")]})
    with pytest.raises(InputError):
        Structure(sig, ["a"], {"F": [("a", "a")]})
    with pytest.raises(InputError):
        Structure(sig, [], {})


def test_gaifman_adjacency_spans_higher_arity_tuples():
    s = triangle_with_tail()
    adj = gaifman_graph(s).adj
    # the ternary tuple makes a clique on d, e, f
    assert adj["e"] == frozenset({"d", "f"})
    assert adj["a"] == frozenset({"b", "c"})
    g = gaifman_graph(s)
    ours = {frozenset(e) for e in graph_edges(g)}
    theirs = {frozenset(e) for e in nx_gaifman(s).edges()}
    assert ours == theirs


def test_gaifman_graph_is_cached_per_structure_with_an_integer_view():
    s = triangle_with_tail()
    g = gaifman_graph(s)
    assert gaifman_graph(s) is g
    assert all(g.vertices[g.index[v]] == v for v in s.universe)
    assert all({g.vertices[j] for j in g.nbrs[g.index[v]]} == g.adj[v]
               for v in s.universe)
    # the vertex set and the degree order are built once, on the graph
    assert g.vertex_set == frozenset(s.universe)
    assert g.vertex_set is g.vertex_set and g.by_degree is g.by_degree
    degrees = [len(g.adj[v]) for v in g.by_degree]
    assert sorted(g.by_degree) == sorted(s.universe)
    assert degrees == sorted(degrees, reverse=True)
    # an expansion by a unary relation reads the same graph; one by a
    # binary relation, or an induced structure, has its own; equality
    # ignores the cache
    wide = s.expand({"M": (1, [("a",)])})
    assert gaifman_graph(wide) is g
    assert gaifman_graph(wide.expand({"N": (0, [])})) is g
    joined = s.expand({"F": (2, [("a", "e")])})
    assert gaifman_graph(joined) is not g
    assert gaifman_graph(joined).adj["e"] == g.adj["e"] | {"a"}
    sub = s.induced(["a", "b", "e"])
    assert gaifman_graph(sub).vertices == ("a", "b", "e")
    assert gaifman_graph(sub).adj["e"] == frozenset()
    assert s == triangle_with_tail()


def test_dist_matches_networkx_on_random_structures():
    rng = random.Random(101)
    for _ in range(20):
        s = random_structure(rng, rng.randint(2, 9), edge_prob=0.3)
        graph, g = gaifman_graph(s), nx_gaifman(s)
        for a in s.universe:
            dist = graph.ball(a, len(s.universe))
            for b in s.universe:
                assert dist.get(b, math.inf) == nx_dist(g, a, b)


def test_hub_heavy_families_are_trees_from_one_vertex_on():
    """pref-tree and caterpillar are trees for every n >= 1; pref-tree's
    shape follows make_family's seed, and a caterpillar's vertices of
    degree above one are its hubs, one every 33 vertices."""
    for name in ("pref-tree", "caterpillar"):
        for n in (1, 2, 3, 34, 100):
            s = make_family(name, n, seed=2)
            degrees = {v: len(nbrs)
                       for v, nbrs in gaifman_graph(s).adj.items()}
            assert sum(degrees.values()) == 2 * (n - 1)
            assert s.ball(s.universe[0], n) == frozenset(s.universe)
    edges = [make_family("pref-tree", 100, seed=seed).relations["E"]
             for seed in (2, 2, 3)]
    assert edges[0] == edges[1] != edges[2]
    degrees = gaifman_graph(make_family("caterpillar", 100)).adj
    assert {v for v, nbrs in degrees.items() if len(nbrs) > 1} == {
        "v00", "v33", "v66"}
    assert len(degrees["v33"]) == 34


def test_a_cached_attribute_is_computed_once_per_instance():
    """`cached` stores its value in the instance's __dict__, frozen
    dataclasses included, and later reads never call it again."""
    calls = []

    @dataclasses.dataclass(frozen=True)
    class Point:
        x: int

        @cached
        def double(self) -> int:
            """Twice x."""
            calls.append(self.x)
            return 2 * self.x

    p, q = Point(3), Point(4)
    assert (p.double, p.double, q.double) == (6, 6, 8)
    assert calls == [3, 4] and p.__dict__["double"] == 6
    assert Point.double.__doc__ == "Twice x."


def test_every_family_needs_at_least_one_vertex():
    """n < 1 raises InputError in every family, and n = 1 builds a graph:
    one vertex, or two for two-trees, one per tree."""
    for name in FAMILY_NAMES:
        for n in (0, -3):
            with pytest.raises(InputError, match="need at least one vertex"):
                make_family(name, n)
        expected = 2 if name == "two-trees" else 1
        assert len(make_family(name, 1).universe) == expected
    # grid:n rounds up to a full rectangle of isqrt(n) rows
    assert len(make_family("grid", 10).universe) == 12


def test_dist_on_tuples_takes_minimum():
    s = triangle_with_tail()
    graph = gaifman_graph(s)
    assert graph.ball(("a", "d"), 6)["e"] == 1
    assert min(graph.ball(("e", "f"), 6)["a"],
               graph.ball("a", 6)["e"], graph.ball("a", 6)["f"]) == 3
    assert graph.ball(("a",), 0) == {"a": 0}


def test_ball_and_neighborhood():
    s = triangle_with_tail()
    assert s.ball("a", 0) == frozenset({"a"})
    assert s.ball("a", 1) == frozenset({"a", "b", "c"})
    assert s.ball("a", 2) == frozenset({"a", "b", "c", "d"})
    g = nx_gaifman(s)
    for b, d in gaifman_graph(s).ball("a", 3).items():
        assert nx_dist(g, "a", b) == d
    # a limit stops the search at the first level that takes it past
    assert gaifman_graph(s).ball("a", 3, limit=0) == {"a": 0}
    assert set(gaifman_graph(s).ball("a", 3, limit=2)) == {"a", "b", "c"}
    assert set(gaifman_graph(s).ball("a", 3, limit=3)) == set("abcd")
    nb = s.induced(s.ball("a", 1))
    assert set(nb.universe) == {"a", "b", "c"}
    # only tuples fully inside the ball survive
    assert nb.relations["R"] == frozenset()
    assert ("a", "b") in nb.relations["E"]
    assert ("c", "d") not in nb.relations["E"]


def test_neighbourhood_is_the_union_of_the_sources_balls():
    rng = random.Random(5)
    for _ in range(20):
        s = random_structure(rng, rng.randint(1, 12))
        graph = gaifman_graph(s)
        sources = [a for a in s.universe if rng.random() < 0.3]
        for r in range(4):
            want = frozenset(b for a in sources for b in s.ball(a, r))
            assert graph.ball(sources, r).keys() == want
        assert graph.ball(sources, -1) == {}
        assert all(graph.ball(a, -1) == {} for a in s.universe)


def test_ball_is_the_multi_source_distance_map_of_networkx():
    """GaifmanGraph.ball from one name or from a collection of names, with
    and without `allowed`, maps each vertex within r of the centres inside
    `allowed` to its distance from the nearest one, as networkx's
    multi-source shortest paths in the induced graph give it.  A centre
    outside `allowed` is left out, r < 0 reaches nothing, and a radius
    beyond every distance reaches the centres' components."""
    rng = random.Random(5)
    for _ in range(30):
        s = random_structure(rng, rng.randint(1, 12))
        graph, g = gaifman_graph(s), nx_gaifman(s)
        for allowed in (None, frozenset(a for a in s.universe
                                        if rng.random() < 0.7)):
            inside = g if allowed is None else g.subgraph(allowed)
            several = [a for a in s.universe if rng.random() < 0.3]
            for centre in (rng.choice(s.universe), several,
                           frozenset(several)):
                names = [centre] if isinstance(centre, str) else centre
                sources = [a for a in names if a in inside]
                full = (nx.multi_source_dijkstra_path_length(inside, sources)
                        if sources else {})
                for r in (-1, 0, 1, 2, 3, 4, 10 ** 12):
                    want = {v: d for v, d in full.items() if d <= r}
                    assert graph.ball(centre, r, allowed) == want


def test_induced_and_expand():
    s = triangle_with_tail()
    sub = s.induced(["a", "b", "e"])
    assert sub.universe == ("a", "b", "e")
    assert sub.relations["E"] == frozenset({("a", "b"), ("b", "a")})
    wide = s.expand({"M": (1, [("a",)])})
    assert wide.signature.has("M")
    assert wide.relations["M"] == frozenset({("a",)})
    with pytest.raises(InputError):
        s.expand({"E": (2, [])})


def test_disjoint_union_keeps_parts_apart():
    s = triangle_with_tail()
    u = disjoint_union(s, s)
    assert len(u.universe) == 12
    g = nx_gaifman(u)
    assert nx_dist(g, "L:a", "L:b") == 1
    assert nx_dist(g, "L:a", "R:a") == math.inf
    assert u.ball("L:a", len(u.universe)) == frozenset(
        f"L:{e}" for e in s.universe)


def test_pattern_graph_edges_follow_threshold():
    s = triangle_with_tail()
    # dist(a,d) = 2, dist(a,b) = 1
    assert pattern_graph(s, ("a", "b", "d"), 1) == PatternGraph.of(3, [(1, 2)])
    assert pattern_graph(s, ("a", "b", "d"), 2) == \
        PatternGraph.of(3, [(1, 2), (1, 3), (2, 3)])
    # repeated elements always count as close, even at threshold 0
    assert pattern_graph(s, ("a", "a"), 0) == PatternGraph.of(2, [(1, 2)])


def test_all_patterns_enumerates_edge_subsets():
    assert len(all_patterns(1)) == 1
    assert len(all_patterns(2)) == 2
    assert len(all_patterns(3)) == 8
    assert len(set(all_patterns(3))) == 8
    with pytest.raises(InputError):
        PatternGraph.of(2, [(1, 3)])


def test_pattern_components_and_induced():
    p = PatternGraph.of(4, [(1, 2), (3, 4)])
    assert p.components() == (frozenset({1, 2}), frozenset({3, 4}))
    assert not p.is_connected()
    assert p.induced([3, 4]) == PatternGraph.of(2, [(1, 2)])


def test_json_round_trip():
    s = triangle_with_tail()
    assert structure_from_json(structure_to_json(s)) == s


def test_json_list_relation_without_tuples_needs_an_arity():
    with pytest.raises(InputError, match="'E'.*arity"):
        structure_from_json({"universe": ["a"], "relations": {"E": []}})
    s = structure_from_json(
        {"universe": ["a"], "relations": {"E": {"arity": 2, "tuples": []}}})
    assert s.signature.arity("E") == 2


@pytest.mark.parametrize("universe, relations, named", [
    (["1"], {"P": [1]}, "'P'"),
    (["a", "b"], {"E": ["ab"]}, "'E'"),
    (["a"], {"P": {"arity": "x", "tuples": []}}, "'P'"),
    (["a", ["a"]], {}, "universe"),
    (["a", "b"], {"E": {"arity": 2, "tuples": [["a", ["b"]]]}}, "'E'"),
], ids=["tuple-not-a-list", "tuple-is-a-string", "arity-not-an-integer",
        "universe-entry-a-list", "tuple-entry-a-list"])
def test_badly_formed_structure_json_is_an_input_error(universe, relations,
                                                       named):
    with pytest.raises(InputError, match=named):
        structure_from_json({"universe": universe, "relations": relations})
