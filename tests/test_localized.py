"""The cover-and-remove evaluation engine against direct counting."""
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import focount
from focount import localeval
from focount.cldecomp import BasicClTerm, eval_basic_cl
from focount.covers import remove
from focount.errors import InputError
from focount.generators import ExpressionSampler, path_graph, star_graph
from focount.localeval import (EvalConfig, evaluate, localized_ground,
                               localized_unary)
from focount.logic import Atom, DistAtom, Exists, and_
from focount.naive import Evaluator, eval_reference
from focount.structures import PatternGraph, Structure

from helpers import FORCED, random_structure

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


def test_forced_removal_counts_wide_patterns_with_non_edges(monkeypatch):
    widths = []
    enumerate_ = localeval._MetricCounter._enumerate

    def record(self, pattern, usets, anchorpos):
        widths.append(pattern.k)
        return enumerate_(self, pattern, usets, anchorpos)

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
    assert {3, 4} <= set(widths)


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
        lambda self, structure, radius: (self.cfg.recursion_cap, 1)
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
        played.append((state, d, self._theta, level))
        return level

    monkeypatch.setattr(localeval._Localizer, "_shortcut_level", record)
    rng = random.Random(151)
    for _ in range(4):
        s = random_structure(rng, rng.randint(8, 11), edge_prob=0.3)
        localized_unary(s, unary_q_term(rng.randint(0, 1)),
                        EvalConfig(**FORCED))
    assert any(state.levels for state, *_ in played)
    for state, d, theta, level in played:
        if not state.levels:
            original = state.structure
        halos = remove(original, d, theta)
        for b in state.structure.universe:
            if b != d:
                assert level.get(b) == halos.halo_level(b), (d, b)


def test_default_config_on_midsize_structures():
    rng = random.Random(103)
    for _ in range(6):
        s = random_structure(rng, rng.randint(36, 44), edge_prob=0.06)
        term = unary_q_term(1)
        values, _ = localized_unary(s, term)
        spot = rng.sample(s.universe, 8)
        for a in spot:
            assert values[a] == eval_basic_cl(s, term, a)


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
    term = BasicClTerm(("x", "y"), 1, EDGE2, DistAtom("x", "y", 2),
                       unary=True)
    values, stats = localized_unary(star, term, EvalConfig(cross_check=True))
    assert "unfactorized condition on a high-degree cluster: direct counting" \
        in stats.fallbacks
    for a in star.universe:
        assert values[a] == eval_basic_cl(star, term, a)


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


def test_exhausted_budget_is_flagged_but_correct():
    base = path_graph(20)
    s = base.expand(
        {"C": (1, [(e,) for i, e in enumerate(base.universe) if i % 3 == 0])})
    term = BasicClTerm(("x", "y"), 0, EDGE2, Atom("C", ("y",)), unary=True)
    cfg = EvalConfig(**FORCED, rounds_fn=lambda radius: 0, cross_check=True)
    values, stats = localized_unary(s, term, cfg)
    assert "recursion budget exhausted: direct counting" in stats.fallbacks
    for a in s.universe:
        assert values[a] == eval_basic_cl(s, term, a)


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


def test_union_table_matches_brute_force_in_both_modes():
    rng = random.Random(191)
    scan_modes = set()
    for _ in range(40):
        theta = rng.randint(1, 3)
        elems = [f"e{i}" for i in range(rng.randint(1, 12))]
        levels = tuple({b: rng.randint(1, theta) for b in elems
                        if rng.random() < 0.5}
                       for _ in range(rng.randint(1, 8)))
        uset = frozenset(b for b in elems if rng.random() < 0.7)
        table = localeval._UnionTable(uset, levels, theta)
        scan_modes.add(table.scan_mode)
        for _ in range(6):
            active = [(idx, rng.randint(1, theta))
                      for idx in range(len(levels)) if rng.random() < 0.5]
            within = [b for b in uset
                      if any(levels[idx].get(b, theta + 1) <= t
                             for idx, t in active)]
            assert table.union_count(active) == len(within)
    assert scan_modes == {False, True}


def test_every_element_gets_a_value():
    s = random_structure(random.Random(127), 36, edge_prob=0.05)
    values, stats = localized_unary(s, unary_q_term(0))
    assert set(values) == set(s.universe)
    assert all(isinstance(v, int) and v >= 0 for v in values.values())
    as_json = stats.to_json()
    for key in ("clusters", "direct_clusters", "removal_clusters",
                "removal_steps", "max_depth", "depth_histogram", "fallbacks",
                "depth_bound_checks"):
        assert key in as_json


def test_kind_and_config_checks():
    s = random_structure(random.Random(131), 6)
    unary = unary_q_term(0)
    ground = BasicClTerm(("x", "y"), 0, EDGE2, Atom("P", ("x",)),
                         unary=False)
    with pytest.raises(InputError):
        localized_unary(s, ground)
    with pytest.raises(InputError):
        localized_ground(s, unary)
    with pytest.raises(InputError):
        EvalConfig(recursion_cap=0)


def test_end_to_end_evaluation_matches_reference():
    rng = random.Random(139)
    for _ in range(10):
        s = random_structure(rng, rng.randint(33, 42), edge_prob=0.05)
        sampler = ExpressionSampler(random.Random(rng.randrange(10 ** 9)),
                                    width=2, size_hint=42)
        e = sampler.expression()
        value, decomp, stats = evaluate(e, s)
        assert value == eval_reference(e, s)
        assert decomp.symbol_count() >= 0
        assert stats.clusters >= 0
