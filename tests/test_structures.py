"""Structures: universes, relations, metric, patterns, combination ops."""
import random

import pytest

from focount.errors import InputError
from focount.structures import (INFINITY, PatternGraph, Signature, Structure,
                                all_patterns, disjoint_union, gaifman_graph,
                                pattern_graph, structure_from_json,
                                structure_to_json)

from helpers import nx_dist, nx_gaifman, random_structure


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
    assert set(bigger.restrict(["P"]).names()) == {"P"}
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


def test_size_counts_elements_and_tuple_entries():
    s = triangle_with_tail()
    assert s.size == 6 + 8 * 2 + 3


def test_gaifman_adjacency_spans_higher_arity_tuples():
    s = triangle_with_tail()
    adj = s.adjacency()
    # the ternary tuple makes a clique on d, e, f
    assert adj["e"] == frozenset({"d", "f"})
    assert adj["a"] == frozenset({"b", "c"})
    g = gaifman_graph(s)
    ours = {frozenset(e) for e in g.edges()}
    theirs = {frozenset(e) for e in nx_gaifman(s).edges()}
    assert ours == theirs


def test_dist_matches_networkx_on_random_structures():
    rng = random.Random(101)
    for _ in range(20):
        s = random_structure(rng, rng.randint(2, 9), edge_prob=0.3)
        g = nx_gaifman(s)
        for a in s.universe:
            for b in s.universe:
                assert s.dist(a, b) == nx_dist(g, a, b)


def test_dist_on_tuples_takes_minimum():
    s = triangle_with_tail()
    assert s.dist(("a", "d"), "e") == 1
    assert s.dist("a", ("e", "f")) == 3
    assert s.dist(("a",), ("a",)) == 0


def test_ball_and_neighborhood():
    s = triangle_with_tail()
    assert s.ball("a", 0) == frozenset({"a"})
    assert s.ball("a", 1) == frozenset({"a", "b", "c"})
    assert s.ball("a", 2) == frozenset({"a", "b", "c", "d"})
    for b, d in s.ball_with_dist("a", 3).items():
        assert s.dist("a", b) == d
    nb = s.neighborhood("a", 1)
    assert set(nb.universe) == {"a", "b", "c"}
    # only tuples fully inside the ball survive
    assert nb.relations["R"] == frozenset()
    assert ("a", "b") in nb.relations["E"]
    assert ("c", "d") not in nb.relations["E"]


def test_induced_and_reduct_and_expand():
    s = triangle_with_tail()
    sub = s.induced(["a", "b", "e"])
    assert sub.universe == ("a", "b", "e")
    assert sub.relations["E"] == frozenset({("a", "b"), ("b", "a")})
    red = s.reduct(["E"])
    assert not red.signature.has("R")
    assert red.relations["E"] == s.relations["E"]
    wide = s.expand({"M": (1, [("a",)])})
    assert wide.signature.has("M")
    assert wide.relations["M"] == frozenset({("a",)})
    with pytest.raises(InputError):
        s.expand({"E": (2, [])})


def test_disjoint_union_keeps_parts_apart():
    s = triangle_with_tail()
    u = disjoint_union(s, s)
    assert len(u.universe) == 12
    assert u.dist("L:a", "L:b") == 1
    assert u.dist("L:a", "R:a") == INFINITY


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


def test_pattern_components_and_relabel():
    p = PatternGraph.of(4, [(1, 2), (3, 4)])
    assert p.components() == (frozenset({1, 2}), frozenset({3, 4}))
    assert not p.is_connected()
    assert p.induced([3, 4]) == PatternGraph.of(2, [(1, 2)])
    swapped = p.relabel({1: 3, 2: 4, 3: 1, 4: 2})
    assert swapped == p


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
