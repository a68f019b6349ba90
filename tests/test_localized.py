"""The cover-and-remove evaluation engine against direct counting."""
import gc
import os
import random
import subprocess
import sys
from collections import namedtuple
from itertools import combinations, product
from pathlib import Path

from dataclasses import replace

import pytest

import focount
from focount import cldecomp, covers, localeval
from focount.cldecomp import (BasicClTerm, GuardedEvaluator, cl_decompose,
                              eval_basic_cl)
from focount.covers import remove
from focount.errors import InputError
from focount.generators import (ExpressionSampler, make_family, path_graph,
                                star_graph, with_colors, with_ternary)
from focount.localeval import (EvalConfig, RunStats, evaluate,
                               localized_ground, localized_unary)
from focount.logic import (Atom, DistAtom, Exists, Not, Truth, and_, parse,
                           render)
from focount.naive import Evaluator
from focount.structures import (GaifmanGraph, PatternGraph, Signature,
                                Structure, gaifman_graph)

from helpers import FORCED, eval_reference, random_structure, subgraph

EDGE2 = PatternGraph.of(2, [(1, 2)])


def unary_q_term(radius: int) -> BasicClTerm:
    return BasicClTerm(("x", "y"), radius, EDGE2, Atom("Q", ("y",)),
                       unary=True)


def test_forced_removal_agrees_with_direct_counting():
    rng = random.Random(97)
    cfg = EvalConfig(**FORCED, cross_check=True)
    removal_seen = False
    for _ in range(12):
        s = random_structure(rng, rng.randint(8, 14), edge_prob=0.3)
        term = unary_q_term(rng.randint(0, 1))
        values, stats = localized_unary(s, term, cfg)
        for a in s.universe:
            assert values[a] == eval_basic_cl(s, term, a)
        removal_seen = removal_seen or stats.removal_steps > 0
    assert removal_seen


def test_forced_removal_deeper_than_six_levels_agrees_with_direct_counting():
    """A caterpillar of 8 hubs with 3 leaves each: the forced recursion
    deletes every hub, so more than six levels stack up."""
    hubs = [f"h{i}" for i in range(8)]
    leaves = [f"{h}l{j}" for h in hubs for j in range(3)]
    edges = list(zip(hubs, hubs[1:])) + [(leaf[:2], leaf) for leaf in leaves]
    s = Structure(Signature.of({"E": 2}), hubs + leaves,
                  {"E": edges + [(v, u) for u, v in edges]})
    s = with_colors(s, ("Q",), random.Random(1))
    term = unary_q_term(1)  # the removal workload's query at bound 3
    values, stats = localized_unary(s, term, EvalConfig(**FORCED,
                                                        cross_check=True))
    assert stats.max_depth > 6
    assert values == {a: eval_basic_cl(s, term, a) for a in s.universe}


def test_forced_removal_counts_wide_patterns_with_non_edges(monkeypatch):
    widths = []
    route = localeval._MetricCounter._enumerate

    def record(self, pattern, *args):
        widths.append(pattern.k)
        return route(self, pattern, *args)

    monkeypatch.setattr(localeval._MetricCounter, "_enumerate", record)
    rng = random.Random(163)
    cfg = EvalConfig(**FORCED, cross_check=True)
    patterns = [PatternGraph.of(3, [(1, 2), (2, 3)]),
                PatternGraph.of(3, [(1, 2), (1, 3)]),
                PatternGraph.of(4, [(1, 2), (2, 3), (3, 4)]),
                PatternGraph.of(4, [(1, 2), (1, 3), (1, 4), (2, 3)])]
    for pattern in patterns:
        s = random_structure(rng, 8, edge_prob=0.3)
        vars = tuple(f"v{i}" for i in range(1, pattern.k + 1))
        psi = and_(Atom("P", (vars[1],)), Atom("Q", (vars[-1],)))
        unary = BasicClTerm(vars, 0, pattern, psi, unary=True)
        ev = Evaluator(s)
        count = unary.to_count_term()
        values, _ = localized_unary(s, unary, cfg)
        for a in s.universe:
            assert values[a] == ev.evaluate(count, {vars[0]: a})
        ground = BasicClTerm(vars, 0, pattern, psi, unary=False)
        value, _ = localized_ground(s, ground, cfg)
        assert value == ev.evaluate(ground.to_count_term())
    # every connected pattern wider than two is enumerated
    assert set(widths) == {3, 4}


WIDE = [PatternGraph.of(k, edges) for k, edges in (
    # paths anchored at an end and at the centre, a path whose centre is
    # position 3, a triangle
    (3, [(1, 2), (2, 3)]), (3, [(1, 2), (1, 3)]), (3, [(1, 3), (2, 3)]),
    (3, [(1, 2), (1, 3), (2, 3)]),
    # a path, a star, a triangle with a pendant, a 4-cycle, K4
    (4, [(1, 2), (2, 3), (3, 4)]), (4, [(1, 2), (1, 3), (1, 4)]),
    (4, [(1, 2), (1, 3), (2, 3), (3, 4)]),
    (4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    (4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]))]


# a removal position as the oracle reads it: the vertices not deleted, and
# per deleted vertex d its distances to the others, a dict
Position = namedtuple("Position", "alive levels")


def metric_near(graph, state, b, bound, cands):
    """The elements of `cands` within `bound` of b, read off the counter's
    metric directly: a dict ball in the position, or a shortcut through a
    level."""
    ball = graph.ball(b, bound, allowed=state.alive)
    far = localeval._INF
    return {c for c in cands if c in ball or any(
        level.get(b, far) + level.get(c, far) <= bound
        for level in state.levels)}


def metric_table(graph, state, theta):
    """Per element of the position, the elements within theta of it and
    their distance in the counter's metric: the distance in the position,
    or a shortcut through a level, whichever is shorter."""
    far = theta + 1
    table = {}
    for b in state.alive:
        row = table[b] = dict(graph.ball(b, theta, allowed=state.alive))
        for level in state.levels:
            for c in state.alive:
                via = level.get(b, far) + level.get(c, far)
                if via <= theta and via < row.get(c, far):
                    row[c] = via
    return table


def position_counter(graph, state, theta, marks=None):
    """A _MetricCounter on `state`, its levels handed over by position, on
    `marks` (fresh ones by default) with `state` entered.  A level may hold
    its deleted vertex at distance 0, as the engine's levels do."""
    index = graph.index
    levels = []
    for level in state.levels:
        dist = [theta + 1] * len(graph.vertices)
        for b, d in level.items():
            dist[index[b]] = d
        levels.append(localeval._Level(
            dist, theta, (index[b] for b, d in level.items() if d)))
    if marks is None:
        marks = localeval._Marks(graph)
    marks.enter(state.alive)
    return localeval._MetricCounter(marks, tuple(levels), theta,
                                    len(state.alive))


def brute_count(table, pattern, bounds, theta, usets):
    """Tuples realizing the pattern per anchor, tried candidate by
    candidate against `table`: an edge holds when its interval holds the
    distance, a non-edge when the distance is beyond theta.  A position
    with edges to earlier ones tries only the elements near one of them."""
    far = theta + 1
    # per position p, the interval of each earlier position q, edge or not
    need = {p: [bounds.get((q, p), (-1, theta))
                if pattern.has_edge(q, p) else (theta, far)
                for q in range(1, p)] for p in range(1, pattern.k + 1)}

    def extend(placed):
        p = len(placed) + 1
        if p > pattern.k:
            return 1
        near = [table[b] for q, b in enumerate(placed, 1)
                if pattern.has_edge(q, p)]
        pool = min(near, key=len) if near else usets[p]
        return sum(extend(placed + [c]) for c in pool
                   if c in usets[p] and all(
                       lo < table[b].get(c, far) <= hi
                       for b, (lo, hi) in zip(placed, need[p])))

    return {a: extend([a]) for a in usets[1]}


def test_metric_counter_matches_brute_force_counting():
    """Spans over an interval (lo, hi], and width-2 counts of the candidates
    in it, equal a brute-force reading of the metric (metric_near within hi
    but not within lo) at every vertex, deleted ones included, and every
    interval of bounds from -1 to theta.  The counts of an edge and of every
    connected pattern of width 3 and 4 (WIDE), with random edge intervals
    (lo >= 0 among them), equal a candidate-by-candidate count over the
    position's metric table, per anchor.  Positions: the whole graph, a
    cover cluster that is not all of it (no level), the whole graph after
    deleting its top-degree vertex into a shortcut level, and after
    deleting more than six vertices, so that some queries have more than
    six active levels, and that cover cluster after deleting its two
    top-degree vertices."""
    rng = random.Random(311)
    deep_count = 8
    # which kinds of case gave a nonzero count somewhere
    seen = {"no level": False, "sub-position": False, "level": False,
            "deep": False, "cluster, levels": False, "lo >= 0": False,
            "over six levels": False, "width 4, level": False,
            "width 4, deep": False, "shortcut beats a hit": False}
    # bounded-degree:31 has odd cycles through its top-degree vertices, so a
    # shortcut can beat a path that the search finds too
    for family, n in (("path", 30), ("grid", 30), ("random-tree", 30),
                      ("bounded-degree", 30), ("bounded-degree", 31),
                      ("star", 30), ("pref-tree", 30), ("caterpillar", 30)):
        s = make_family(family, n, seed=1)
        graph = gaifman_graph(s)
        index = graph.index
        everything = frozenset(graph.vertices)
        proper = [c for c in covers.build_cover(s, 2).clusters
                  if c != everything]
        for theta in (1, 3):
            def deleting(within, count):
                """`within` minus its `count` vertices of highest degree
                inside it, each with its distances inside `within`."""
                top = sorted(within, key=lambda v: (
                    -len(graph.adj[v] & within), v))[:count]
                return Position(within - set(top), tuple(
                    {b: dist for b, dist in graph.ball(
                        d, theta, allowed=within).items() if b != d}
                    for d in top))

            cases = [("no level", Position(everything, ())),
                     ("level", deleting(everything, 1)),
                     ("deep", deleting(everything, deep_count))]
            if proper:
                cluster = max(proper, key=len)
                cases += [("sub-position", Position(cluster, ())),
                          ("cluster, levels", deleting(cluster, 2))]
            for kind, state in cases:
                alive = sorted(state.alive)
                counter = position_counter(graph, state, theta)
                cands = frozenset(v for v in alive if rng.random() < 0.7)
                # every vertex, so the deleted ones too, and every interval
                # (lo, hi] of bounds from -1 to theta; a negative bound holds
                # for no pair, as in GaifmanGraph.ball
                for b in sorted(everything):
                    near = [metric_near(graph, state, b, bound, cands)
                            for bound in range(-1, theta + 1)]
                    for lo, hi in combinations(range(-1, theta + 1), 2):
                        want = near[hi + 1] - near[lo + 1]
                        pick = counter.marks.choose(0, cands)
                        got = counter._span(index[b], (lo, hi), pick)
                        assert {graph.vertices[c] for c in got} == want
                        assert counter._pair_counts([b], cands, lo, hi) == {
                            b: len(want)}
                        active = sum(1 for lv in state.levels
                                     if hi - lv.get(b, hi) >= 1)
                        if want and active > 6:
                            seen["over six levels"] = True
                    if theta == 3:
                        ball = graph.ball(b, 3, allowed=state.alive)
                        seen["shortcut beats a hit"] |= any(
                            ball.get(c) == 3 and any(
                                lv.get(b, 9) + lv.get(c, 9) <= 2
                                for lv in state.levels) for c in cands)
                table = metric_table(graph, state, theta)
                for pattern, _ in product([EDGE2] + WIDE, range(2)):
                    bounds = {}
                    for edge in sorted(pattern.edges):
                        hi = rng.randint(0, theta)
                        bounds[edge] = (rng.randint(-1, hi - 1), hi)
                    usets = {p: frozenset(v for v in alive
                                          if rng.random() < 0.7)
                             for p in range(1, pattern.k + 1)}
                    got = counter._leg(pattern, bounds, usets)
                    want = brute_count(table, pattern, bounds, theta, usets)
                    assert got == want, (family, n, theta, kind, pattern,
                                         bounds)
                    if any(want.values()):
                        seen[kind] = True
                        if pattern.k == 4 and kind in ("level", "deep"):
                            seen[f"width 4, {kind}"] = True
                        if any(lo >= 0 for lo, _ in bounds.values()):
                            seen["lo >= 0"] = True
    assert all(seen.values()), seen


def test_searches_that_stop_early_match_brute_force():
    """_Marks.rings, _span and _pair_counts against metric_near and the
    position's balls, at every vertex and every interval (lo, hi] of
    bounds from -1 to theta, hi = 0 among them, on positions entered one
    after another into the same marks: the whole graph, the whole graph
    minus its hub (a level), a cluster, an overlapping cluster, and the
    whole graph again, whose searches start two stamps below the
    sentinel, so the stamps start again.  The hub isolates its leaves, and
    a far edge is a component of its own, so searches stop before lo with
    and without an active level; the hub itself, once deleted, anchors
    from outside the position; and each cluster holds a vertex that only
    the other one holds, so a vertex that the previous position kept must
    read as outside the next one."""
    theta = 3
    leaves = [f"l{i}" for i in range(6)]
    names = ["h", *leaves, "p0", "p1", "p2", "p3", "q0", "q1"]
    pairs = [("h", leaf) for leaf in leaves] + [
        ("l0", "p0"), ("p0", "p1"), ("p1", "p2"), ("p2", "p3"),
        ("q0", "q1")]
    edges = pairs + [(v, u) for u, v in pairs]
    graph = gaifman_graph(Structure(Signature.of({"E": 2}), names,
                                    {"E": edges}))
    index, everything = graph.index, frozenset(names)
    hub_level = graph.ball("h", theta)
    # l0, l2 and p0 are in both clusters; h and l1 only in the first,
    # where h joins l0 to l2; p1 only in the second
    first = frozenset({"h", "l0", "l1", "l2", "p0"})
    second = frozenset({"l0", "l2", "p0", "p1"})
    steps = [Position(everything, ()),
             Position(everything - {"h"}, (hub_level,)),
             Position(first, ()), Position(second, ()),
             Position(first - {"h"}, (graph.ball("h", theta,
                                                 allowed=first),)),
             Position(everything, ())]
    seen = dict.fromkeys(("stops before lo", "stops before lo, level",
                          "outside anchor counts", "left-over vertex"),
                         False)
    marks = localeval._Marks(graph)
    for previous, state in zip([Position(frozenset(), ())] + steps, steps):
        counter = position_counter(graph, state, theta, marks)
        if state is steps[-1]:
            marks.stamp = localeval._OUT - 2
        outside = everything - state.alive
        for cands in (state.alive, frozenset(sorted(state.alive)[::2])):
            for b in names:
                ball = graph.ball(b, theta, allowed=state.alive)
                for hi in range(theta + 1):
                    rings = marks.rings(index[b], hi)
                    within = {c: t for c, t in ball.items() if t <= hi}
                    assert len(rings) == (max(within.values()) + 1
                                          if within else 0)
                    assert {graph.vertices[c]: t for t, ring in
                            enumerate(rings) for c in ring} == within
                near = [metric_near(graph, state, b, bound, cands)
                        for bound in range(-1, theta + 1)]
                for lo, hi in combinations(range(-1, theta + 1), 2):
                    want = near[hi + 1] - near[lo + 1]
                    got = counter._span(index[b], (lo, hi),
                                        marks.choose(0, cands))
                    assert {graph.vertices[c] for c in got} == want, (
                        sorted(state.alive), b, lo, hi)
                    assert counter._pair_counts([b], cands, lo, hi) == {
                        b: len(want)}, (sorted(state.alive), b, lo, hi)
                    active = any(level.get(b, theta + 1) < hi
                                 for level in state.levels)
                    if ball and max(ball.values()) < lo and near[lo + 1]:
                        seen["stops before lo, level" if active
                             else "stops before lo"] = True
                    if not ball and b in outside and want:
                        seen["outside anchor counts"] = True
                # a vertex of the previous position that is not in this one
                if b in outside and b in previous.alive:
                    assert marks.rings(index[b], theta) == []
                    seen["left-over vertex"] = True
    assert all(seen.values()), seen


def test_wide_counts_leave_no_reference_cycle():
    """Counting a width-3 or width-4 pattern creates no garbage that only
    the cycle collector frees, so its span table goes with its counter."""
    s = make_family("grid", 30, seed=1)
    graph = gaifman_graph(s)
    everything = frozenset(graph.vertices)
    counter = position_counter(graph, Position(everything, ()), 2)
    gc.collect()
    gc.disable()
    try:
        for pattern in WIDE:
            counter._leg(pattern, {}, dict.fromkeys(
                range(1, pattern.k + 1), everything))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_an_evaluation_searches_each_span_once(monkeypatch):
    """Corpus expression 5 on its bounded-degree:40 structure decomposes
    into several width-3 basic terms, counted on one cluster with mostly the
    same candidate sets: each span, keyed by the position, the candidate
    set, the interval and the vertex, is searched once in the whole
    evaluation, and the value is the reference one."""
    s = with_colors(make_family("bounded-degree", 40, seed=5), ("P", "Q"),
                    random.Random("corpus:5"))
    expr = parse(render(ExpressionSampler(random.Random(5)).expression()),
                 s.signature)
    keys, wide = [], []
    span, enumerate_ = (localeval._MetricCounter._span,
                        localeval._MetricCounter._enumerate)

    def record_span(self, u, interval, pick):
        chosen, choice = pick
        position = frozenset(v for v, stamp in enumerate(self.marks.seen)
                             if stamp < localeval._OUT)
        cands = frozenset(v for v, c in enumerate(chosen) if c == choice)
        keys.append((position, cands, interval, u))
        return span(self, u, interval, pick)

    def record_enumerate(self, pattern, bounds, usets):
        wide.append(pattern)
        return enumerate_(self, pattern, bounds, usets)

    monkeypatch.setattr(localeval._MetricCounter, "_span", record_span)
    monkeypatch.setattr(localeval._MetricCounter, "_enumerate",
                        record_enumerate)
    value, _, stats = evaluate(expr, s)
    assert value == Evaluator(s).evaluate(expr)
    assert len(wide) >= 2 and stats.removal_clusters == 0
    assert keys and len(set(keys)) == len(keys)


def test_span_tables_are_shared_by_value_never_across_sets_or_graphs():
    """One engine counts two width-3 terms whose intervals agree and whose
    factors on position 2 differ (P(y), then Q(y)), then the first term
    again on a structure with the same universe and colours but other
    edges: every value is eval_basic_cl's, so no span is read for another
    candidate set or another Gaifman graph."""
    tree = with_colors(make_family("random-tree", 40), ("P", "Q"),
                       random.Random(17))
    colours = {name: (1, tree.relations[name]) for name in ("P", "Q")}
    path = make_family("path", 40).expand(colours)
    assert path.universe == tree.universe
    path3 = PatternGraph.of(3, [(1, 2), (2, 3)])
    terms = [BasicClTerm(("x", "y", "z"), 1, path3, Atom(name, ("y",)),
                         unary=True) for name in ("P", "Q")]
    engine = localeval._Localizer()
    for s, term in ((tree, terms[0]), (tree, terms[1]), (path, terms[0])):
        assert engine(s, term) == {a: eval_basic_cl(s, term, a)
                                   for a in s.universe}
    assert engine.stats.removal_clusters == 0


def test_width_one_pieces_make_no_removal_step(monkeypatch):
    """A width-1 piece counts its candidates and reads no metric, so the
    removal recursion takes no branch under it.  The chain may already
    reach deeper, built by the size-0 branch at the same depth, so the
    branches themselves are recorded, not the deletions."""
    counted, branched = [], []
    count, piece = localeval._Localizer._count, localeval._Localizer._piece

    def record_count(self, depth, pattern, *args):
        counted.append(pattern.k)
        return count(self, depth, pattern, *args)

    def record_piece(self, depth, pattern, *args):
        branched.append(pattern.k)
        return piece(self, depth, pattern, *args)

    monkeypatch.setattr(localeval._Localizer, "_count", record_count)
    monkeypatch.setattr(localeval._Localizer, "_piece", record_piece)
    s = with_colors(hub_tree(40, random.Random(3)), ("Q",), random.Random(4))
    cfg = EvalConfig(**FORCED)
    unary, ground = unary_q_term(1), BasicClTerm(
        ("x", "y"), 1, EDGE2, Atom("Q", ("y",)), unary=False)
    ev = Evaluator(s)
    values, stats = localized_unary(s, unary, cfg)
    count_term = unary.to_count_term()
    assert values == {a: ev.evaluate(count_term, {"x": a})
                      for a in s.universe}
    value, ground_stats = localized_ground(s, ground, cfg)
    assert value == ev.evaluate(ground.to_count_term())
    assert stats.removal_steps > 0 and ground_stats.removal_steps > 0
    assert 1 in counted and branched
    assert 1 not in branched


def run_recording_deletions(monkeypatch, s, term):
    """Evaluates `term` on `s` under the forced configuration with
    `cross_check`, checks the values against `eval_basic_cl`, that no
    splitter move is asked for, and that every deleted vertex is the vertex
    of highest degree inside its position, the first by name among equals.
    Returns the (size, radius) of every `SplitterGame` built and the stats."""
    built, deleted = [], []
    game_class = covers.SplitterGame
    shortcut = localeval._Localizer._shortcut_level

    def record_game(graph, r):
        game = game_class(graph, r)
        built.append((len(game.names), r))
        return game

    def refuse_move(*args):
        raise AssertionError("the engine asked for a splitter move")

    def record_deletion(self, state, d):
        deleted.append((state.alive, d))
        return shortcut(self, state, d)

    monkeypatch.setattr(covers, "SplitterGame", record_game)
    monkeypatch.setattr(covers, "splitter_move", refuse_move)
    monkeypatch.setattr(localeval, "splitter_move", refuse_move)
    monkeypatch.setattr(localeval._Localizer, "_shortcut_level",
                        record_deletion)
    values, stats = localized_unary(s, term,
                                    EvalConfig(**FORCED, cross_check=True))
    assert values == {a: eval_basic_cl(s, term, a) for a in s.universe}
    assert deleted and stats.removal_steps == len(deleted)
    adj = gaifman_graph(s).adj
    for alive, d in deleted:
        degree = {v: len(adj[v] & alive) for v in alive}
        top = max(degree.values())
        assert d == min(v for v in alive if degree[v] == top)
    return built, stats


def test_one_splitter_game_per_call_serves_every_move(monkeypatch):
    """On structures of at most EXACT_GAME_CAP elements, one game at twice
    the term's evaluation radius is built per structure and only sets the
    depth budget: the pieces of width 3 and of width 2 of a width-3 term, and of
    width-2 terms, delete their top-degree vertex without a splitter move."""
    rng = random.Random(211)
    path = PatternGraph.of(3, [(1, 2), (2, 3)])
    for i in range(6):
        s = random_structure(rng, rng.randint(8, covers.EXACT_GAME_CAP),
                             edge_prob=0.2)
        term = (BasicClTerm(("x", "y", "z"), 0, path, Atom("Q", ("z",)),
                            unary=True) if i % 2 == 0
                else unary_q_term(rng.randint(0, 1)))
        built, _ = run_recording_deletions(monkeypatch, s, term)
        assert built == [(len(s.universe), 2 * term.eval_radius)]


def test_a_second_forced_evaluation_reads_the_first_ones_game(monkeypatch):
    """Two forced evaluations of one term on one structure of at most
    EXACT_GAME_CAP elements give equal values and equal stats, and the game
    that sets their budget is built once, by the first."""
    rng = random.Random(223)
    built = []
    game_class = covers.SplitterGame

    def record_game(graph, r):
        built.append(r)
        return game_class(graph, r)

    monkeypatch.setattr(covers, "SplitterGame", record_game)
    cfg = EvalConfig(**FORCED)
    for _ in range(4):
        s = random_structure(rng, rng.randint(10, covers.EXACT_GAME_CAP),
                             edge_prob=0.3)
        term = unary_q_term(rng.randint(0, 1))
        built.clear()
        values, cold = localized_unary(s, term, cfg)
        again, warm = localized_unary(s, term, cfg)
        assert values == again == {a: eval_basic_cl(s, term, a)
                                   for a in s.universe}
        assert cold.removal_steps > 0
        assert warm.to_json() == cold.to_json()
        assert built == [2 * term.eval_radius]


def test_the_layers_of_evaluations_on_one_structure_share_its_covers(
        monkeypatch):
    """Two corpus expressions evaluated on one structure: their layer
    structures read the input's Gaifman graph, so every cover is built on
    that graph, once per radius, though the covered evaluations read some
    radii several times and on several layers.  The values equal those of
    evaluations on structures of their own."""

    def coloured():
        return with_colors(make_family("star", 300, seed=0), ("P", "Q"),
                           random.Random(0))

    exprs = [ExpressionSampler(random.Random(seed)).expression()
             for seed in (0, 5)]
    want = [evaluate(expr, coloured())[0] for expr in exprs]
    s = coloured()
    reads, built = [], []
    read_cover, greedy = localeval.build_cover, covers._greedy_cover

    def record_read(structure, r):
        reads.append((structure, r))
        return read_cover(structure, r)

    def record_build(graph, r):
        built.append((graph, r))
        return greedy(graph, r)

    monkeypatch.setattr(localeval, "build_cover", record_read)
    monkeypatch.setattr(covers, "_greedy_cover", record_build)
    assert [evaluate(expr, s)[0] for expr in exprs] == want
    assert any(structure is not s for structure, _ in reads)
    radii = sorted({r for _, r in reads})
    assert len(reads) > len(radii)
    assert all(graph is gaifman_graph(s) for graph, _ in built)
    assert sorted(r for _, r in built) == radii


def test_clusters_of_a_large_structure_share_its_game(monkeypatch):
    """On structures larger than EXACT_GAME_CAP, the clusters share one
    depth budget and no game is built at all, for the structure or for any
    cluster; every position deletes its top-degree vertex."""
    rng = random.Random(0)
    path = PatternGraph.of(3, [(1, 2), (2, 3)])
    for i in range(6):
        s = random_structure(rng, rng.randint(20, 30), edge_prob=0.1)
        term = (BasicClTerm(("x", "y", "z"), 0, path, Atom("Q", ("z",)),
                            unary=True) if i % 3 == 0
                else unary_q_term(rng.randint(0, 1)))
        built, stats = run_recording_deletions(monkeypatch, s, term)
        assert built == [] and stats.clusters > 1


def hub_tree(n: int, rng) -> Structure:
    """A random recursive tree whose first vertex has 17 neighbours; every
    later vertex attaches to a uniform earlier vertex other than the
    first."""
    names = [f"v{i:03d}" for i in range(n)]
    edges = [(names[0], names[i]) for i in range(1, 18)]
    edges += [(names[rng.randrange(1, i)], names[i]) for i in range(18, n)]
    return Structure(Signature.of({"E": 2}), names,
                     {"E": edges + [(b, a) for a, b in edges]})


def test_the_engine_deletes_a_lone_hub_at_depth_one(monkeypatch):
    deleted = []
    shortcut = localeval._Localizer._shortcut_level

    def record(self, state, d):
        deleted.append(d)
        return shortcut(self, state, d)

    monkeypatch.setattr(localeval._Localizer, "_shortcut_level", record)
    s = hub_tree(300, random.Random(2))
    degrees = sorted(len(adj) for adj in gaifman_graph(s).adj.values())
    cfg = EvalConfig(hub_degree_threshold=16)
    assert degrees[-1] == 17 > cfg.hub_degree_threshold >= degrees[-2]
    term = BasicClTerm(("x", "y"), 1, EDGE2, Truth(), unary=False)
    value, stats = localized_ground(s, term, cfg)
    assert set(deleted) == {"v000"} and stats.max_depth == 1
    assert value == eval_basic_cl(s, term)


def test_beyond_the_cap_the_splitter_replies_with_the_pick():
    """On positions larger than EXACT_GAME_CAP, splitter_move's reply to a
    pick of the engine's deleted vertex, the top-degree vertex of the
    position, is that vertex itself.  With no threshold, only an edgeless
    position is tame."""
    rng = random.Random(59)
    engine = localeval._Localizer(EvalConfig(hub_degree_threshold=0))
    structures = [hub_tree(60, rng), star_graph(30)]
    structures += [random_structure(rng, rng.randint(18, 40), edge_prob=p)
                   for p in (0.05, 0.1, 0.2, 0.4) for _ in range(5)]
    for s in structures:
        engine._graph = gaifman_graph(s)
        for _ in range(4):
            alive = frozenset(rng.sample(
                s.universe, rng.randint(covers.EXACT_GAME_CAP + 1,
                                        len(s.universe))))
            pick = engine._next_deletion(alive)
            position = subgraph(engine._graph, alive)
            if not any(position.adj.values()):
                assert pick is None
                continue
            for r in (1, 2, 6):
                assert covers.splitter_move(position, pick, r) == pick


def brute_next_deletion(graph, alive, cfg, theta=3):
    """The top-degree vertex of `alive`, the least name among equals, from
    every degree inside it, when deleting it pays; None when `alive` is
    tame.  With an int hub_degree_threshold it pays when its degree exceeds
    the threshold.  By default it pays when the graph has more than
    EXACT_GAME_CAP vertices and the vertex's degree times its whole
    (theta - 1)-ball inside `alive`, searched with no cap, exceeds
    STEP_COST times the graph's vertex count."""
    degree = {v: len(graph.adj[v] & alive) for v in alive}
    top = max(degree.values(), default=0)
    if top == 0:
        return None
    pick = min(v for v in alive if degree[v] == top)
    if cfg.hub_degree_threshold is not None:
        return pick if top > cfg.hub_degree_threshold else None
    n = len(graph.vertices)
    ball = graph.ball(pick, theta - 1, alive)
    pays = top * len(ball) > localeval.STEP_COST * n
    return pick if n > covers.EXACT_GAME_CAP and pays else None


def next_deletion_cases():
    """Graphs and random positions for the _next_deletion oracle tests, and
    a fixed position that keeps the hub h outside, whose full degree beats
    every vertex inside, and ties z (four neighbours, two inside) with a
    (two, both inside)."""
    rng = random.Random(67)
    edges = [("z", v) for v in ("p1", "p2", "q1", "q2")]
    edges += [("a", "r1"), ("a", "r2")] + [("h", f"l{i}") for i in range(6)]
    fixed = Structure(Signature.of({"E": 2}), sorted({v for e in edges
                                                      for v in e}),
                      {"E": edges + [(v, u) for u, v in edges]})
    fixed_alive = gaifman_graph(fixed).vertex_set - {"h", "q1", "q2"}
    structures = [fixed, hub_tree(60, rng), star_graph(30)]
    structures += [random_structure(rng, rng.randint(2, 40), edge_prob=p)
                   for p in (0.05, 0.1, 0.3) for _ in range(4)]
    cases = []
    for s in structures:
        positions = [frozenset(rng.sample(s.universe,
                                          rng.randint(0, len(s.universe))))
                     for _ in range(12)]
        if s is fixed:
            positions.append(fixed_alive)
        cases.append((gaifman_graph(s), positions))
    return cases, gaifman_graph(fixed), fixed_alive


def test_next_deletion_is_the_top_degree_vertex_inside_the_position():
    """_next_deletion, which stops its walk down the full degrees early,
    against counting every degree inside the position, under a degree
    threshold and by default at theta 3."""
    cases, fixed, fixed_alive = next_deletion_cases()
    picks = set()
    for graph, positions in cases:
        for threshold in (0, 1, 16, None):
            cfg = EvalConfig(hub_degree_threshold=threshold)
            engine = localeval._Localizer(cfg)
            engine._graph, engine._theta = graph, 3
            for alive in positions:
                pick = engine._next_deletion(alive)
                assert pick == brute_next_deletion(graph, alive, cfg)
                picks.add(pick)
    assert brute_next_deletion(fixed, fixed_alive,
                               EvalConfig(hub_degree_threshold=1)) == "a"
    assert None in picks and len(picks) > 10


def test_next_deletion_by_default_deletes_where_the_step_pays():
    """The default cost test, whose walk and ball search stop early, against
    the oracle's every degree and uncapped ball, at several thetas, on the
    random positions and on the whole graph, whose answer is kept per graph
    and theta."""
    cases, _, _ = next_deletion_cases()
    picks = set()
    for graph, positions in cases:
        for theta in (1, 2, 4, 40):
            engine = localeval._Localizer()
            engine._graph, engine._theta = graph, theta
            for alive in positions + [graph.vertex_set]:
                pick = engine._next_deletion(alive)
                assert pick == brute_next_deletion(graph, alive, EvalConfig(),
                                                   theta)
                picks.add(pick)
            assert graph.derived[("deletion", theta)] == pick
    assert None in picks and len(picks) > 3


def test_by_default_a_tree_with_one_mild_hub_builds_no_cover(monkeypatch):
    """hub_tree's vertex of degree 17 makes few anchors' searches large, so
    the default engine counts the whole tree as one cluster."""
    calls = []
    cover = localeval.build_cover
    monkeypatch.setattr(localeval, "build_cover",
                        lambda *args: calls.append(args) or cover(*args))
    s = hub_tree(1000, random.Random(2))
    term = BasicClTerm(("x", "y"), 1, EDGE2, Truth(), unary=False)
    value, stats = localized_ground(s, term)
    assert value == eval_basic_cl(s, term)
    assert calls == [] and stats.removal_steps == 0
    assert stats.clusters == stats.direct_clusters == 1


def test_by_default_a_star_deletes_its_hub_at_depth_one(monkeypatch):
    deleted = []
    shortcut = localeval._Localizer._shortcut_level

    def record(self, state, d):
        deleted.append(d)
        return shortcut(self, state, d)

    monkeypatch.setattr(localeval._Localizer, "_shortcut_level", record)
    s = star_graph(1000)
    term = BasicClTerm(("x", "y"), 1, EDGE2, Truth(), unary=False)
    value, stats = localized_ground(s, term)
    assert value == 1000 ** 2
    assert set(deleted) == {"v000"} and stats.max_depth == 1


def test_by_default_no_small_structure_deletes(monkeypatch):
    """On at most EXACT_GAME_CAP vertices no position deletes by default,
    so no evaluation solves the splitter game: stars, complete graphs and
    dense random graphs, through evaluate and at every theta."""
    solves = []
    monkeypatch.setattr(localeval, "solve_splitter",
                        lambda *args, **kwargs: solves.append(args))
    rng = random.Random(71)
    cap = covers.EXACT_GAME_CAP
    structures = [with_colors(g, ("P", "Q"), rng)
                  for g in (star_graph(cap), make_family("grid", cap))]
    structures += [random_structure(rng, rng.randint(2, cap), edge_prob=p)
                   for p in (0.3, 0.6, 1.0) for _ in range(4)]
    for s in structures:
        graph = gaifman_graph(s)
        engine = localeval._Localizer()
        engine._graph = graph
        for theta in (1, 3, cap):
            engine._theta = theta
            for alive in [graph.vertex_set] + [
                    frozenset(rng.sample(s.universe,
                                         rng.randint(0, len(s.universe))))
                    for _ in range(4)]:
                assert engine._next_deletion(alive) is None
        for radius in (0, 1, 3):
            term = BasicClTerm(("x", "y", "z"), radius,
                               PatternGraph.of(3, [(1, 2), (2, 3)]), Truth(),
                               unary=False)
            assert localized_ground(s, term)[1].removal_steps == 0
        sampler = ExpressionSampler(random.Random(rng.randrange(10 ** 9)),
                                    width=2, size_hint=len(s.universe))
        e = sampler.expression()
        value, _, stats = evaluate(e, s)
        assert value == eval_reference(e, s)
        assert stats.removal_steps == 0
    assert solves == []


def test_each_cluster_deletes_from_each_position_once(monkeypatch):
    """Width-3 terms on a caterpillar: every branch of the removal
    recursion reads its cluster's one chain of positions, so within a
    cluster no position is deleted from twice and removal_steps counts the
    distinct deletions; the values are eval_basic_cl's."""
    clusters, deleted = [], []
    run_cluster = localeval._Localizer._cluster
    shortcut = localeval._Localizer._shortcut_level

    def record_cluster(self, *args):
        clusters.append(args[0])
        return run_cluster(self, *args)

    def record_deletion(self, state, d):
        deleted.append((len(clusters), state.alive))
        return shortcut(self, state, d)

    monkeypatch.setattr(localeval._Localizer, "_cluster", record_cluster)
    monkeypatch.setattr(localeval._Localizer, "_shortcut_level",
                        record_deletion)
    s = with_colors(make_family("caterpillar", 70), ("P", "Q"),
                    random.Random(1))
    psi = and_(Atom("P", ("x",)), Atom("Q", ("z",)))
    for edges in ([(1, 2), (2, 3)], [(1, 2), (1, 3), (2, 3)]):
        term = BasicClTerm(("x", "y", "z"), 1, PatternGraph.of(3, edges),
                           psi, unary=True)
        deleted.clear()
        values, stats = localized_unary(s, term)
        assert values == {a: eval_basic_cl(s, term, a) for a in s.universe}
        assert deleted and stats.removal_steps == len(deleted)
        assert len(set(deleted)) == len(deleted)


def test_removal_depth_stays_under_the_exact_game_value():
    rng = random.Random(101)
    cfg = EvalConfig(**FORCED)
    checks = 0
    for _ in range(8):
        s = random_structure(rng, rng.randint(9, 14), edge_prob=0.35)
        _, stats = localized_unary(s, unary_q_term(0), cfg)
        checks += stats.depth_bound_checks
    # the engine checks depth <= value - 1 whenever the exact value is known
    assert checks > 0


def overrun_depth_bound() -> None:
    """Forced removal on a path with a recursion budget above what the exact
    game value allows; the depth-bound check must stop the run."""
    base = path_graph(8)
    s = base.expand({"Q": (1, [(e,) for e in base.universe[::2]])})
    original = localeval._Localizer._budget
    localeval._Localizer._budget = \
        lambda self: (localeval.RECURSION_CAP, 1)
    try:
        localized_unary(s, unary_q_term(0), EvalConfig(**FORCED))
    finally:
        localeval._Localizer._budget = original


def test_depth_beyond_the_game_value_raises():
    with pytest.raises(RuntimeError, match="exact game value"):
        overrun_depth_bound()


def test_depth_bound_check_survives_optimized_mode():
    src = Path(focount.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import test_localized\n"
            "if __debug__: raise SystemExit('not running under -O')\n"
            "test_localized.overrun_depth_bound()\n")
    run = subprocess.run([sys.executable, "-O", "-c", code],
                         cwd=Path(__file__).parent, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stderr
    assert "RuntimeError" in run.stderr and "exact game value" in run.stderr


def test_shortcut_levels_are_the_removal_halos(monkeypatch):
    """Each deletion the engine plays: its shortcut level for d equals the
    halo levels of covers.remove(cluster, d, theta) on the cluster the
    recursion started from.  The syntactic removal lemma is the spec."""
    played = []
    shortcut = localeval._Localizer._shortcut_level

    def record(self, state, d):
        level = shortcut(self, state, d)
        played.append((self._structure, state, d, self._theta, level))
        return level

    monkeypatch.setattr(localeval._Localizer, "_shortcut_level", record)
    rng = random.Random(151)
    for _ in range(4):
        s = random_structure(rng, rng.randint(8, 11), edge_prob=0.3)
        localized_unary(s, unary_q_term(rng.randint(0, 1)),
                        EvalConfig(**FORCED))
    assert any(state.levels for _, state, *_ in played)
    for s, state, d, theta, level in played:
        if not state.levels:
            original = s.induced(state.alive)
        halos = remove(original, d, theta)
        index = gaifman_graph(s).index
        for b in state.alive:
            if b != d:
                dist = level.dist[index[b]]
                assert (dist if dist <= theta else None) \
                    == halos.halo_level(b), (d, b)


def ternary_hub() -> Structure:
    """A hub h in R(h, a_i, b_i) for 20 values of i, with Q on the b_i: each
    a_i is adjacent to its b_i only through a tuple that holds the hub."""
    pairs = [(f"a{i:02d}", f"b{i:02d}") for i in range(20)]
    return Structure(Signature.of({"R": 3, "Q": 1}),
                     ["h"] + [e for pair in pairs for e in pair],
                     {"R": [("h", a, b) for a, b in pairs],
                      "Q": [(b,) for _, b in pairs]})


def test_deleting_a_vertex_keeps_adjacencies_of_wider_tuples():
    s = ternary_hub()
    term = unary_q_term(0)
    values, stats = localized_unary(s, term,
                                    EvalConfig(hub_degree_threshold=16))
    assert stats.removal_steps > 0
    assert values == {a: eval_basic_cl(s, term, a) for a in s.universe}
    assert values["a00"] == 1


def test_forced_removal_on_ternary_relations_agrees_with_direct_counting():
    rng = random.Random(223)
    cfg = EvalConfig(**FORCED)
    removal_seen = False
    for _ in range(10):
        s = with_ternary(random_structure(rng, 12, edge_prob=0.1), rng,
                         count=6)
        term = unary_q_term(rng.randint(0, 1))
        values, stats = localized_unary(s, term, cfg)
        assert values == {a: eval_basic_cl(s, term, a) for a in s.universe}
        removal_seen = removal_seen or stats.removal_steps > 0
    assert removal_seen


def test_only_quantified_factors_copy_the_cluster(monkeypatch):
    """The removal recursion reads the structure's one Gaifman graph, and
    every factor is evaluated on the structure itself: neither a
    quantifier-free psi nor a quantified factor builds a structure copy."""
    copies = []
    induced = Structure.induced

    def record(self, elements):
        copies.append(1)
        return induced(self, elements)

    monkeypatch.setattr(Structure, "induced", record)
    s = random_structure(random.Random(229), 14, edge_prob=0.25)
    cfg = EvalConfig(**FORCED)
    _, stats = localized_unary(s, unary_q_term(1), cfg)
    assert stats.removal_steps > 0 and not copies
    near = Exists("z", and_(DistAtom("y", "z", 1), Atom("P", ("z",))))
    term = BasicClTerm(("x", "y"), 1, EDGE2, and_(near, Atom("Q", ("y",))),
                       unary=True)
    values, stats = localized_unary(s, term, cfg)
    assert stats.removal_steps > 0 and not copies
    monkeypatch.undo()
    assert values == {a: eval_basic_cl(s, term, a) for a in s.universe}


def test_default_config_on_midsize_structures():
    rng = random.Random(103)
    for _ in range(6):
        s = random_structure(rng, rng.randint(36, 44), edge_prob=0.06)
        term = unary_q_term(1)
        values, _ = localized_unary(s, term)
        spot = rng.sample(s.universe, 8)
        for a in spot:
            assert values[a] == eval_basic_cl(s, term, a)


def test_a_hub_free_structure_is_one_cluster_with_no_cover(monkeypatch):
    """Without a hub the whole structure is the one cluster, counted on the
    true metric: an edge interval, a quantified factor and a width-3
    pattern with a non-edge all equal direct counting."""
    def no_cover(*args):
        raise AssertionError("a hub-free structure built a cover")

    monkeypatch.setattr(localeval, "build_cover", no_cover)
    near_p = Exists("z", and_(DistAtom("y", "z", 1), Atom("P", ("z",))))
    triple = ("v1", "v2", "v3")
    terms = [(("x", "y"), EDGE2,
              and_(Not(DistAtom("x", "y", 1)), Atom("Q", ("y",)))),
             (("x", "y"), EDGE2, and_(near_p, Atom("Q", ("y",)))),
             (triple, PatternGraph.of(3, [(1, 2), (2, 3)]),
              and_(Atom("P", ("v2",)), Atom("Q", ("v3",))))]
    rng = random.Random(241)
    families = ("path", "cycle", "grid", "random-tree", "bounded-degree",
                "two-trees")
    for name, n in zip(families, (60, 90, 120, 150, 180, 200)):
        s = with_colors(make_family(name, n, seed=4), ("P", "Q"), rng)
        for vars, pattern, psi in terms:
            unary = BasicClTerm(vars, 1, pattern, psi, unary=True)
            values, stats = localized_unary(s, unary)
            assert stats.clusters == 1 and stats.removal_steps == 0
            assert values == {a: eval_basic_cl(s, unary, a)
                              for a in s.universe}, (name, render(psi))
            ground = BasicClTerm(vars, 1, pattern, psi, unary=False)
            value, stats = localized_ground(s, ground)
            assert stats.clusters == 1
            assert value == eval_basic_cl(s, ground), (name, render(psi))


def test_cross_check_reaches_a_cluster_of_any_size(monkeypatch):
    """A 100-element path is one cluster; a wrong count on it is caught."""
    count = localeval._MetricCounter.pattern_count

    def off_by_one(self, *args):
        return {a: v + 1 for a, v in count(self, *args).items()}

    monkeypatch.setattr(localeval._MetricCounter, "pattern_count", off_by_one)
    term = BasicClTerm(("x", "y"), 1, EDGE2, Truth(), unary=True)
    with pytest.raises(RuntimeError, match="diverge from direct counting"):
        localized_unary(path_graph(100), term, EvalConfig(cross_check=True))


def test_cross_check_rejects_an_invalid_cover(monkeypatch):
    """A cover whose first cluster loses a vertex gives wrong values; under
    cross_check validate_cover rejects it before any cluster is counted."""
    cover = localeval.build_cover

    def broken(structure, r):
        good = cover(structure, r)
        first = good.clusters[0]
        dropped = max(first - {good.centres[0]})
        return covers.Cover(good.r, good.s,
                            (first - {dropped},) + good.clusters[1:],
                            good.centres, good.assignment)

    monkeypatch.setattr(localeval, "build_cover", broken)
    tree = hub_tree(120, random.Random(5))
    term = BasicClTerm(("x", "y"), 1, EDGE2, Truth(), unary=True)
    assert localized_unary(tree, term)[0] != {
        a: eval_basic_cl(tree, term, a) for a in tree.universe}
    with pytest.raises(RuntimeError, match="invalid cover"):
        localized_unary(tree, term, EvalConfig(cross_check=True))


def test_a_cover_is_built_only_beyond_the_hub_threshold(monkeypatch):
    """A top degree equal to hub_degree_threshold builds no cover; one more
    leaf on that vertex builds it, and the engine deletes the hub."""
    calls = []
    cover = localeval.build_cover

    def record(structure, r):
        calls.append(r)
        return cover(structure, r)

    monkeypatch.setattr(localeval, "build_cover", record)
    tree = hub_tree(120, random.Random(5))
    leaf = next(v for v in sorted(gaifman_graph(tree).adj["v000"])
                if len(gaifman_graph(tree).adj[v]) == 1)
    tame = tree.induced([e for e in tree.universe if e != leaf])
    cfg = EvalConfig(hub_degree_threshold=16)
    cap = cfg.hub_degree_threshold
    term = BasicClTerm(("x", "y"), 1, EDGE2, Truth(), unary=False)
    for s, covered in ((tame, False), (tree, True)):
        top = max(len(adj) for adj in gaifman_graph(s).adj.values())
        assert top == cap + covered
        calls.clear()
        value, stats = localized_ground(s, term, cfg)
        assert value == eval_basic_cl(s, term)
        assert bool(calls) == covered
        assert (stats.removal_steps > 0) == covered


def test_localized_ground_matches_basic():
    rng = random.Random(107)
    s = random_structure(rng, 40, edge_prob=0.05)
    term = BasicClTerm(("x", "y"), 1, EDGE2, Atom("P", ("y",)), unary=False)
    value, _ = localized_ground(s, term)
    assert value == eval_basic_cl(s, term)
    k1 = BasicClTerm(("x",), 1, PatternGraph.of(1, []), Atom("P", ("x",)),
                     unary=False)
    v1, stats = localized_ground(s, k1)
    assert v1 == eval_basic_cl(s, k1)
    assert stats.clusters == 0  # width-1 ground terms are counted directly


def test_unfactorized_cross_position_condition_falls_back():
    star = star_graph(40)
    term = BasicClTerm(("x", "y"), 1, EDGE2, Atom("E", ("x", "y")),
                       unary=True)
    values, stats = localized_unary(star, term, EvalConfig(cross_check=True))
    assert "unfactorized condition on a high-degree cluster: direct counting" \
        in stats.fallbacks
    for a in star.universe:
        assert values[a] == eval_basic_cl(star, term, a)


def unfactorized(stats) -> bool:
    return any(f.startswith("unfactorized condition") for f in stats.fallbacks)


def test_edge_distance_bound_on_a_hub_takes_the_removal_route():
    star = star_graph(40)
    term = BasicClTerm(("x", "y"), 1, EDGE2, DistAtom("x", "y", 2),
                       unary=True)
    values, stats = localized_unary(star, term, EvalConfig(cross_check=True))
    assert not unfactorized(stats) and stats.removal_steps >= 1
    assert values == {a: eval_basic_cl(star, term, a) for a in star.universe}


def test_a_bound_past_the_vertex_count_is_read_as_the_vertex_count(
        monkeypatch):
    """A finite distance among n vertices is below n, so the engine reads
    the threshold and every edge bound past n as n: at a bound of 10**6
    every _Level holds at most n + 1 rings, and the values equal
    naive.Evaluator, on star:40 under the default configuration and under
    FORCED on random graphs, with an interval whose lo is past n too."""
    sizes = []
    real = localeval._Level.__init__

    def level(self, dist, theta, reached):
        real(self, dist, theta, reached)
        sizes.append((len(self.rings), len(dist)))

    monkeypatch.setattr(localeval._Level, "__init__", level)
    big = 10 ** 6
    star = star_graph(40)
    query = parse(f"#(x,y). dist(x,y) <= {big}", star.signature)
    assert evaluate(query, star)[0] == eval_reference(query, star) == 1600
    assert sizes
    rng = random.Random(241)
    cfg = EvalConfig(**FORCED, cross_check=True)
    far = and_(Not(DistAtom("x", "y", 1)), DistAtom("x", "y", big))
    never = and_(Not(DistAtom("x", "y", big)), Atom("Q", ("y",)))
    for _ in range(4):
        s = random_structure(rng, rng.randint(8, 12), edge_prob=0.3)
        ev = Evaluator(s)
        for psi in (far, never):
            term = BasicClTerm(("x", "y"), big, EDGE2, psi, unary=True)
            values, _ = localized_unary(s, term, cfg)
            count = term.to_count_term()
            assert values == {a: ev.evaluate(count, {"x": a})
                              for a in s.universe}
    assert all(rings <= n + 1 for rings, n in sizes)


def factorized_agrees(s, vars, pattern, psi, cfg) -> bool:
    """The term's unary values and ground value equal naive.Evaluator, with
    no unfactorized fallback; whether the unary run deleted a vertex."""
    ev = Evaluator(s)
    unary = BasicClTerm(vars, 1, pattern, psi, unary=True)
    values, stats = localized_unary(s, unary, cfg)
    assert not unfactorized(stats)
    count = unary.to_count_term()
    assert values == {a: ev.evaluate(count, {vars[0]: a})
                      for a in s.universe}
    ground = BasicClTerm(vars, 1, pattern, psi, unary=False)
    value, ground_stats = localized_ground(s, ground, cfg)
    assert not unfactorized(ground_stats)
    assert value == ev.evaluate(ground.to_count_term())
    return stats.removal_steps > 0


def test_forced_removal_counts_edge_intervals():
    """`!dist <= 1 & dist <= 2` keeps the edge's distances in (1, 2]; the
    contradictory `!dist <= 2 & dist <= 1` counts nothing."""
    rng = random.Random(233)
    cfg = EvalConfig(**FORCED, cross_check=True)
    ring = and_(Not(DistAtom("x", "y", 1)), DistAtom("x", "y", 2))
    never = and_(Not(DistAtom("x", "y", 2)), DistAtom("x", "y", 1))
    removal_seen = False
    for _ in range(6):
        s = random_structure(rng, rng.randint(8, 12), edge_prob=0.3)
        for psi in (ring, never):
            cond = and_(psi, Atom("Q", ("y",)))
            removal_seen |= factorized_agrees(s, ("x", "y"), EDGE2, cond,
                                              cfg)
        never_term = BasicClTerm(("x", "y"), 1, EDGE2, never, unary=False)
        assert localized_ground(s, never_term, cfg)[0] == 0
    assert removal_seen


def test_forced_removal_counts_width_three_patterns_with_edge_bounds():
    """Edge bounds on a path anchored at an end, a triangle, a path whose
    centre is position 3 (placed in BFS order [1, 3, 2]) with bounds on both
    edges, and a width-4 pattern with a triangle, a non-edge and a lo >= 0
    interval (_enumerate's span intersections), each against
    naive.Evaluator."""
    rng = random.Random(239)
    cfg = EvalConfig(**FORCED, cross_check=True)
    vars = ("v1", "v2", "v3", "v4")
    path_psi = and_(and_(DistAtom("v1", "v2", 1),
                         Not(DistAtom("v2", "v3", 1))), Atom("Q", ("v3",)))
    cases = [
        (PatternGraph.of(3, [(1, 2), (2, 3)]), path_psi),
        (PatternGraph.of(3, [(1, 2), (2, 3), (1, 3)]), path_psi),
        (PatternGraph.of(3, [(1, 3), (2, 3)]),
         and_(and_(DistAtom("v1", "v3", 2), Not(DistAtom("v1", "v3", 0))),
              and_(DistAtom("v2", "v3", 1), Atom("Q", ("v2",))))),
        (PatternGraph.of(4, [(1, 2), (1, 3), (2, 3), (3, 4)]),
         and_(and_(Not(DistAtom("v1", "v2", 0)), DistAtom("v2", "v3", 1)),
              Atom("Q", ("v4",)))),
    ]
    for pattern, psi in cases:
        removal_seen = False
        for _ in range(4):
            # sparse enough at width 4 for its non-edges (beyond 3) to hold
            s = random_structure(rng, rng.randint(8, 11),
                                 edge_prob=0.3 if pattern.k == 3 else 0.15)
            removal_seen |= factorized_agrees(s, vars[:pattern.k], pattern,
                                              psi, cfg)
        assert removal_seen


def test_metric_counter_reads_the_position_through_one_search(monkeypatch):
    """Under the forced configuration, width-3 and width-4 counts build no
    dict ball: nothing inside localeval calls GaifmanGraph.ball, not even
    _shortcut_level, which stores the distances of its own search."""
    callers = set()
    ball = GaifmanGraph.ball

    def record(self, *args, **kwargs):
        frame = sys._getframe(1)
        if frame.f_globals.get("__name__") == localeval.__name__:
            callers.add(frame.f_code.co_name)
        return ball(self, *args, **kwargs)

    monkeypatch.setattr(GaifmanGraph, "ball", record)
    rng = random.Random(241)
    for pattern in (PatternGraph.of(3, [(1, 2), (2, 3)]),
                    PatternGraph.of(4, [(1, 2), (2, 3), (3, 4)])):
        s = random_structure(rng, 9, edge_prob=0.3)
        vars = tuple(f"v{i}" for i in range(1, pattern.k + 1))
        psi = and_(Atom("P", (vars[1],)), Atom("Q", (vars[-1],)))
        term = BasicClTerm(vars, 0, pattern, psi, unary=True)
        values, stats = localized_unary(s, term, EvalConfig(**FORCED))
        ev, count = Evaluator(s), term.to_count_term()
        assert values == {a: ev.evaluate(count, {vars[0]: a})
                          for a in s.universe}
        assert stats.removal_steps > 0
    assert not callers


def test_every_decomposed_corpus_term_factorizes():
    """The benchmark corpus's expressions (sampler seeds 0-15): every basic
    term of width 2 or more splits into per-position factors and edge
    bounds."""
    sig = Signature.of({"E": 2, "P": 1, "Q": 1})
    wide, left = 0, []
    for seed in range(16):
        expr = ExpressionSampler(random.Random(seed)).expression()
        decomp = cl_decompose(expr, sig)
        basics = set(decomp.final_term.basics()
                     if decomp.final_term is not None else ())
        for layer in decomp.layers:
            for sym in layer.symbols:
                for arg in sym.args:
                    basics.update(arg.basics())
        for term in basics:
            if term.k >= 2:
                wide += 1
                if localeval._split_factors(term) is None:
                    left.append(render(term.psi))
    assert wide > 0 and not left


def test_indicator_terms_avoid_tuple_counting():
    s = random_structure(random.Random(109), 40, edge_prob=0.05)
    near_p = Exists("z", and_(DistAtom("x", "z", 1), Atom("P", ("z",))))
    indicator = BasicClTerm(("x",), 1, PatternGraph.of(1, []), near_p,
                            unary=True)
    values, stats = localized_unary(s, indicator)
    assert stats.clusters == 0  # counted directly, with no cover
    ev = Evaluator(s)
    for a in s.universe:
        assert values[a] == int(ev.evaluate(near_p, {"x": a}))


def test_exhausted_budget_is_flagged_but_correct(monkeypatch):
    monkeypatch.setattr(localeval, "RECURSION_CAP", 0)
    base = path_graph(20)
    s = base.expand(
        {"C": (1, [(e,) for i, e in enumerate(base.universe) if i % 3 == 0])})
    term = BasicClTerm(("x", "y"), 0, EDGE2, Atom("C", ("y",)), unary=True)
    cfg = EvalConfig(**FORCED, cross_check=True)
    values, stats = localized_unary(s, term, cfg)
    assert "recursion budget exhausted: direct counting" in stats.fallbacks
    for a in s.universe:
        assert values[a] == eval_basic_cl(s, term, a)


def test_run_stats_count_each_fallback_reason():
    """flag counts every time a reason is raised; iterating over fallbacks
    yields each reason once, and to_json sorts them with their counts."""
    stats = RunStats()
    for reason in ("unfactorized", "budget", "unfactorized"):
        stats.flag(reason)
    assert list(stats.fallbacks) == ["unfactorized", "budget"]
    as_json = stats.to_json()["fallbacks"]
    assert list(as_json.items()) == [("budget", 1), ("unfactorized", 2)]


def test_materialized_markers_do_not_touch_the_input():
    s = random_structure(random.Random(113), 12, edge_prob=0.3)
    before = (s.universe, {k: frozenset(v) for k, v in s.relations.items()})
    cond = Exists("z", and_(DistAtom("y", "z", 1), Atom("E", ("y", "z"))))
    term = BasicClTerm(("x", "y"), 1, EDGE2, cond, unary=True)
    localized_unary(s, term, EvalConfig(**FORCED, cross_check=True))
    assert before == (s.universe,
                      {k: frozenset(v) for k, v in s.relations.items()})


def test_quantified_factors_need_no_marker_relations(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the removal recursion built a structure copy "
                             "or a removal formula")

    rng = random.Random(181)
    cfg = EvalConfig(**FORCED, cross_check=True)
    for pattern in (EDGE2, PatternGraph.of(3, [(1, 2), (2, 3)])):
        s = random_structure(rng, 9, edge_prob=0.3)
        before = (s.universe, dict(s.relations))
        vars = tuple(f"v{i}" for i in range(1, pattern.k + 1))
        near = Exists("z", and_(DistAtom(vars[1], "z", 1),
                                Atom("E", (vars[1], "z"))))
        psi = and_(near, Atom("Q", (vars[-1],)))
        term = BasicClTerm(vars, 1, pattern, psi, unary=True)
        ev = Evaluator(s)
        expected = {a: ev.evaluate(term.to_count_term(), {vars[0]: a})
                    for a in s.universe}
        with monkeypatch.context() as m:
            m.setattr(Structure, "expand", refuse)
            m.setattr(localeval, "removal_unary_term", refuse)
            m.setattr(localeval, "removal_ground_term", refuse)
            values, stats = localized_unary(s, term, cfg)
        assert values == expected
        assert stats.removal_steps > 0
        assert before == (s.universe, dict(s.relations))


def test_every_element_gets_a_value(monkeypatch):
    weights = []
    cover = localeval.build_cover

    def record(structure, r):
        built = cover(structure, r)
        weights.append(built.total_weight())
        return built

    monkeypatch.setattr(localeval, "build_cover", record)
    s = random_structure(random.Random(127), 36, edge_prob=0.05)
    # the tree's hub pays for its deletion only when the anchors' searches
    # pass through it, at radius 1 and not at 0
    tree = with_colors(hub_tree(120, random.Random(5)), ("Q",),
                       random.Random(6))
    for structure, term in ((s, unary_q_term(0)), (tree, unary_q_term(1))):
        weights.clear()
        values, stats = localized_unary(structure, term)
        assert set(values) == set(structure.universe)
        assert all(isinstance(v, int) and v >= 0 for v in values.values())
        as_json = stats.to_json()
        for key in ("clusters", "direct_clusters", "removal_clusters",
                    "removal_steps", "max_depth", "depth_histogram",
                    "fallbacks", "depth_bound_checks", "cover_weight"):
            assert key in as_json
        assert as_json["cover_weight"] == sum(weights)
    assert sum(weights) >= len(tree.universe)


def test_kind_and_config_checks():
    s = random_structure(random.Random(131), 6)
    unary = unary_q_term(0)
    ground = BasicClTerm(("x", "y"), 0, EDGE2, Atom("P", ("x",)),
                         unary=False)
    with pytest.raises(InputError):
        localized_unary(s, ground)
    with pytest.raises(InputError):
        localized_ground(s, unary)


def test_end_to_end_evaluation_matches_reference():
    rng = random.Random(139)
    tame = 0
    for _ in range(10):
        s = random_structure(rng, rng.randint(33, 42), edge_prob=0.05)
        sampler = ExpressionSampler(random.Random(rng.randrange(10 ** 9)),
                                    width=2, size_hint=42)
        e = sampler.expression()
        value, _, stats = evaluate(e, s)
        assert value == eval_reference(e, s)
        assert stats.fallbacks == {}
        # a top vertex whose whole ball does not pay for its deletion pays
        # at no threshold, so every cluster is counted directly
        graph = gaifman_graph(s)
        if brute_next_deletion(graph, graph.vertex_set, EvalConfig(),
                               len(graph.vertices)) is None:
            tame += 1
            assert stats.clusters == stats.direct_clusters
            assert stats.removal_clusters == stats.removal_steps == 0
    assert tame >= 5


# -- one-variable conditions read as element sets ---------------------------


def _count_per_element_calls(monkeypatch) -> list[str]:
    """Wrap Evaluator.evaluate; the returned list collects each formula
    evaluated under an assignment, that is, element by element."""
    calls: list[str] = []
    real = Evaluator.evaluate

    def evaluate(self, e, assignment=None):
        if assignment:
            calls.append(render(e))
        return real(self, e, assignment)

    monkeypatch.setattr(Evaluator, "evaluate", evaluate)
    return calls


def test_query_term_reads_its_factors_off_their_relations(monkeypatch):
    """The query's term, #(x,y). P(x) & Q(y) & dist(x,y) <= 2 anchored at
    x, on random-tree:500: P(x) and Q(y) are read as element sets, so the
    engine evaluates nothing element by element."""
    s = with_colors(make_family("random-tree", 500), ("P", "Q"),
                    random.Random(0))
    expr = parse("#(x,y). ((P(x) & Q(y)) & dist(x,y) <= 2)", s.signature)
    (ground,) = cl_decompose(expr, s.signature).final_term.basics()
    term = replace(ground, unary=True)
    want = {a: eval_basic_cl(s, term, a) for a in s.universe}
    calls = _count_per_element_calls(monkeypatch)
    values, stats = localized_unary(s, term)
    assert values == want and stats.clusters > 0
    assert calls == []


@pytest.mark.parametrize("n", [20, 40])
def test_width_one_terms_are_read_from_one_element_set(n):
    """Width-1 unary and ground terms on paths of 20 and 40 elements equal
    eval_basic_cl and build no cluster, a closed conjunct that is false
    included."""
    s = with_colors(path_graph(n), ("P", "Q"), random.Random(n))
    s = s.expand({"Y": (0, [()]), "Z": (0, [])})
    near_q = Exists("u", and_(DistAtom("x", "u", 1), Atom("Q", ("u",))))
    for psi, empty in ((and_(Atom("P", ("x",)), near_q), False),
                       (and_(near_q, Atom("Y", ())), False),
                       (and_(Atom("P", ("x",)), Atom("Z", ())), True)):
        unary = BasicClTerm(("x",), 1, PatternGraph.of(1, []), psi,
                            unary=True)
        ground = replace(unary, unary=False)
        values, unary_stats = localized_unary(s, unary)
        value, ground_stats = localized_ground(s, ground)
        assert values == {a: eval_basic_cl(s, unary, a) for a in s.universe}
        assert value == eval_basic_cl(s, ground) == sum(values.values())
        assert unary_stats.clusters == ground_stats.clusters == 0
        assert (value == 0) == empty


def test_no_sampled_factor_is_evaluated_element_by_element(monkeypatch):
    """200 seeded ExpressionSampler draws, decomposed and evaluated on
    40-element coloured graphs, whose wider terms read their factors
    through _candidates: every factor is read as a set."""
    sets = []
    real = GuardedEvaluator.satisfying

    def satisfying(self, f, v):
        sets.append(f)
        return real(self, f, v)

    monkeypatch.setattr(GuardedEvaluator, "satisfying", satisfying)
    calls = _count_per_element_calls(monkeypatch)
    families = ("random-tree", "bounded-degree", "path", "grid")
    for seed in range(200):
        s = with_colors(make_family(families[seed % 4], 40, seed=seed),
                        ("P", "Q"), random.Random(seed))
        evaluate(ExpressionSampler(random.Random(seed)).expression(), s)
    assert sets and calls == []


def test_small_structures_take_the_engine_and_solve_no_idle_game(
        monkeypatch):
    """Sampled expressions on coloured structures of 2 to 31 elements under
    the default configuration: no width >= 2 term whose psi factorizes is
    counted by eval_basic_cl, through default_engine or the engine, since
    the engine counts every size the same way; and an evaluation in which
    no chain deletes builds no splitter game, since only a deletion reads
    the recursion budget."""
    direct, games, deletions, wide = [], [], [], []
    for module in (cldecomp, localeval):
        real = module.eval_basic_cl

        def recording(structure, term, *args, real=real, **kwargs):
            if term.k > 1 and localeval._split_factors(term) is not None:
                direct.append(render(term.psi))
            return real(structure, term, *args, **kwargs)

        monkeypatch.setattr(module, "eval_basic_cl", recording)
    game_class = covers.SplitterGame
    shortcut = localeval._Localizer._shortcut_level
    engine_call = localeval._Localizer.__call__

    def record_game(graph, r):
        games.append(r)
        return game_class(graph, r)

    def record_deletion(self, state, d):
        deletions.append(d)
        return shortcut(self, state, d)

    def record_term(self, structure, term):
        wide.append(term.k > 1)
        return engine_call(self, structure, term)

    monkeypatch.setattr(covers, "SplitterGame", record_game)
    monkeypatch.setattr(localeval._Localizer, "_shortcut_level",
                        record_deletion)
    monkeypatch.setattr(localeval._Localizer, "__call__", record_term)
    families = ("random-tree", "bounded-degree", "star", "grid")
    deleting = 0
    for seed in range(60):
        n = 2 + seed % 30
        s = with_colors(make_family(families[seed % 4], n, seed=seed),
                        ("P", "Q"), random.Random(seed))
        expr = ExpressionSampler(random.Random(seed)).expression()
        games.clear()
        deletions.clear()
        evaluate(expr, s)
        if deletions:
            deleting += 1
        else:
            assert games == [], (seed, render(expr))
    assert direct == []
    assert any(wide) and deleting > 0
