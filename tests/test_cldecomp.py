"""Pattern formulas, basic counting terms, and the layered decomposition."""
import json
import random
from itertools import product
from pathlib import Path

import pytest

from focount import cldecomp
from focount.cldecomp import (MAX_WIDTH, BasicClTerm, ClTerm,
                              GuardedEvaluator, _fold_separations,
                              cl_decompose, count_to_clterm, default_engine,
                              delta_formula, eval_basic_cl,
                              eval_decomposition, locality_radius)
from focount.errors import InputError, UnsupportedFragmentError
from focount.generators import (ExpressionSampler, make_family, path_graph,
                                with_colors, with_ternary)
from focount.logic import (Atom, DistAtom, Eq, Exists, Falsity, IntConst, Mul,
                           Not, PredApp, Truth, and_, conj, parse,
                           parse_formula, render, simplify, walk)
from focount.naive import Evaluator
from focount.structures import (PatternGraph, Signature, Structure,
                                all_patterns)

from helpers import (MemoEval, count_depth, count_pattern,
                     count_to_clterm_by_sums, eval_reference, is_local,
                     pattern_graph, random_structure)

SIG = Signature.of({"E": 2, "P": 1, "Q": 1})


def test_delta_formula_characterizes_patterns():
    rng = random.Random(3)
    for _ in range(10):
        s = random_structure(rng, rng.randint(2, 6), edge_prob=0.3)
        for radius in (0, 1):
            threshold = 2 * radius + 1
            for pattern in all_patterns(3):
                delta = delta_formula(pattern, threshold, ("v1", "v2", "v3"))
                ev = Evaluator(s)
                for tup in product(s.universe, repeat=3):
                    want = pattern_graph(s, tup, threshold) == pattern
                    got = ev.evaluate(delta, dict(zip(("v1", "v2", "v3"), tup)))
                    assert got == want


def test_locality_radius_by_hand():
    assert locality_radius(parse_formula("P(x)", SIG), ["x"]) == 0
    assert locality_radius(Truth(), ["x"]) == 0
    guarded = parse_formula("exists y. (dist(x,y) <= 2 & E(x,y))", SIG)
    assert locality_radius(guarded, ["x"]) == 2
    nested = parse_formula(
        "exists y. (dist(x,y) <= 1 & exists z. (dist(y,z) <= 1 & E(y,z)))",
        SIG)
    assert locality_radius(nested, ["x"]) == 2
    free_ranging = parse_formula("exists y. E(x,y)", SIG)
    assert locality_radius(free_ranging, ["x"]) is None
    assert is_local(guarded, ["x"], 2)
    assert not is_local(guarded, ["x"], 1)


def test_locality_radius_allows_anchor_distance_atoms():
    # between two anchors the bound may reach 2r+1
    f = DistAtom("x", "y", 3)
    assert locality_radius(f, ["x", "y"]) == 1
    assert locality_radius(DistAtom("x", "y", 1), ["x", "y"]) == 0


def test_basic_term_validation():
    p2 = PatternGraph.of(2, [(1, 2)])
    indicator = BasicClTerm(("x",), 1, PatternGraph.of(1, []),
                            Atom("P", ("x",)), unary=True)
    assert indicator.counted_vars() == ()
    assert indicator.eval_radius == indicator.radius
    with pytest.raises(InputError):
        BasicClTerm(("x", "y"), 1, PatternGraph.of(2, []),
                    Truth(), unary=False)  # disconnected pattern
    with pytest.raises(InputError):
        BasicClTerm(("x", "y"), 1, p2, Atom("P", ("z",)), unary=False)
    with pytest.raises(InputError):
        vars5 = tuple(f"v{i}" for i in range(MAX_WIDTH + 1))
        edges = [(i, i + 1) for i in range(1, MAX_WIDTH + 1)]
        BasicClTerm(vars5, 1, PatternGraph.of(MAX_WIDTH + 1, edges),
                    Truth(), unary=False)
    term = BasicClTerm(("x", "y"), 1, p2, Atom("P", ("y",)), unary=True)
    assert term.threshold == 3
    assert term.eval_radius == 1 + 3
    term.check_local()
    bad = BasicClTerm(("x", "y"), 0, p2,
                      Exists("z", Atom("E", ("y", "z"))), unary=True)
    with pytest.raises(UnsupportedFragmentError):
        bad.check_local()


def brute_basic(structure, term, anchor):
    """Independent count: enumerate tuples with the anchor pinned first,
    match the pattern, check psi."""
    me = MemoEval(structure)
    total = 0
    for rest in product(structure.universe, repeat=term.k - 1):
        tup = (anchor,) + rest
        if pattern_graph(structure, tup, term.threshold) != term.pattern:
            continue
        if me.evaluate(term.psi, dict(zip(term.vars, tup))):
            total += 1
    return total


def _random_connected_pattern(rng, k):
    while True:
        p = rng.choice(all_patterns(k))
        if p.is_connected():
            return p


def test_eval_basic_cl_matches_brute_force():
    rng = random.Random(13)
    for _ in range(25):
        s = random_structure(rng, rng.randint(2, 7), edge_prob=0.3)
        k = rng.randint(2, 3)
        pattern = _random_connected_pattern(rng, k)
        vars = tuple(f"v{i}" for i in range(1, k + 1))
        psi = and_(Atom("P", (vars[0],)), Atom("Q", (vars[-1],)))
        unary = rng.random() < 0.5
        term = BasicClTerm(vars, rng.randint(0, 1), pattern, psi, unary)
        if unary:
            for a in s.universe:
                assert eval_basic_cl(s, term, a) == brute_basic(s, term, a)
        else:
            want = sum(brute_basic(s, term, a) for a in s.universe)
            assert eval_basic_cl(s, term) == want


def _random_local_psi(rng, vars, radius):
    """Conjunction of radius-local parts: colours, negated colours, distance
    atoms between tuple variables and guarded existentials."""
    theta = 2 * radius + 1
    parts = []
    for _ in range(rng.randint(0, 3)):
        pick = rng.randrange(4)
        a, b = rng.choice(vars), rng.choice(vars)
        if pick == 0:
            parts.append(Atom(rng.choice(("P", "Q")), (a,)))
        elif pick == 1:
            parts.append(Not(Atom(rng.choice(("P", "Q")), (a,))))
        elif pick == 2:
            atom = DistAtom(a, b, rng.randint(0, theta))
            parts.append(atom if rng.random() < 0.5 else Not(atom))
        else:
            guard = DistAtom(a, "z", rng.randint(0, radius))
            parts.append(Exists("z", and_(guard, Atom("Q", ("z",)))))
    return conj(parts)


def test_grown_tuples_match_brute_force_on_every_width():
    # structures larger than an anchor's neighbourhood: paths with a few
    # chords and a colour each, so balls are cut off by the radius
    rng = random.Random(67)
    for k in (1, 2, 3, 4):
        for _ in range(8):
            n = rng.randint(7, 9 if k == 4 else 12)
            base = path_graph(n)
            names = base.universe
            chords = [(rng.choice(names), rng.choice(names)) for _ in range(2)]
            edges = set(base.relations["E"]) | set(chords) | \
                {(v, u) for u, v in chords}
            s = Structure(SIG, names, {
                "E": edges,
                "P": [(e,) for e in names if rng.random() < 0.5],
                "Q": [(e,) for e in names if rng.random() < 0.5]})
            radius = 0 if k >= 3 else rng.randint(0, 1)
            pattern = _random_connected_pattern(rng, k)
            vars = tuple(f"v{i}" for i in range(1, k + 1))
            psi = _random_local_psi(rng, vars, radius)
            unary = rng.random() < 0.5
            term = BasicClTerm(vars, radius, pattern, psi, unary)
            term.check_local()
            if unary:
                for a in s.universe:
                    assert eval_basic_cl(s, term, a) == \
                        brute_basic(s, term, a), (k, render(psi))
            else:
                want = sum(brute_basic(s, term, a) for a in s.universe)
                assert eval_basic_cl(s, term) == want, (k, render(psi))


def test_patterns_with_non_edges_match_brute_force():
    rng = random.Random(71)
    s = random_structure(rng, 8, edge_prob=0.2)
    for k, picks in ((3, 3), (4, 12)):
        vars = tuple(f"v{i}" for i in range(1, k + 1))
        sparse = [p for p in all_patterns(k) if p.is_connected()
                  and len(p.edges) < k * (k - 1) // 2]
        for pattern in rng.sample(sparse, picks):
            term = BasicClTerm(vars, 0, pattern,
                               Atom("P", (vars[-1],)), unary=False)
            want = sum(brute_basic(s, term, a) for a in s.universe)
            assert eval_basic_cl(s, term) == want, sorted(pattern.edges)


def test_quantifier_free_psi_builds_no_neighbourhood(monkeypatch):
    induced = []
    original = Structure.induced

    def record(self, elements):
        induced.append(self)
        return original(self, elements)

    monkeypatch.setattr(Structure, "induced", record)
    base = path_graph(30)
    s = base.expand({"P": (1, [(e,) for e in base.universe[::2]])})
    flat = BasicClTerm(("x", "y"), 1, PatternGraph.of(2, [(1, 2)]),
                       and_(Atom("P", ("x",)), DistAtom("x", "y", 2)),
                       unary=False)
    eval_basic_cl(s, flat)
    for a in s.universe[:5]:
        eval_basic_cl(s, BasicClTerm(flat.vars, 1, flat.pattern, flat.psi,
                                     unary=True), a)
    assert induced == []
    near_p = Exists("z", and_(DistAtom("y", "z", 1), Atom("P", ("z",))))
    quantified = BasicClTerm(("x", "y"), 1, flat.pattern, near_p,
                             unary=False)
    # a guarded existential ranges over its guard's ball in s itself
    assert eval_basic_cl(s, quantified) == eval_reference(
        quantified.to_count_term(), s)
    assert induced == []


SIG3 = SIG.extend([("R", 3)])

# formulas with free x, each with the bounds whose balls around x make up
# the elements its outermost quantifier tries, or None for the universe
GUARDED = [
    ("exists y. (dist(x,y) <= 2 & R(x,y,y))", (2,)),
    ("exists y. (Q(y) & (dist(y,x) <= 1 & !E(x,y)))", (1,)),
    ("exists y. (dist(x,y) <= 0 & P(y))", (0,)),
    ("exists y. ((dist(x,y) <= 1 & Q(y)) | (dist(y,x) <= 3 & P(y)))",
     (1, 3)),
    ("exists y. ((dist(x,y) <= 1 & Q(y)) | R(y,y,x))", None),
    ("exists y. (P(y) & !E(x,y))", None),
    ("exists y. (dist(x,y) <= 1 & exists z. (dist(y,z) <= 1 & R(x,y,z)))",
     (1,)),
    ("exists y. (dist(x,y) <= 2 & forall z. (dist(z,y) <= 1 => "
     "(P(z) | R(z,y,x))))", (2,)),
    ("forall y. (dist(x,y) <= 2 => (P(y) | exists z. (dist(z,y) <= 1 & "
     "R(x,z,y))))", (2,)),
    ("forall y. (!dist(y,x) <= 1 | Q(y))", (1,)),
    ("exists z. (P(z) & forall y. (dist(z,y) <= 1 => !Q(y)))", None),
]


def test_guarded_evaluator_agrees_with_naive_on_ternary_structures():
    rng = random.Random(41)
    formulas = [(parse_formula(text, SIG3), bounds)
                for text, bounds in GUARDED]
    for _ in range(12):
        base = random_structure(rng, rng.randint(6, 14),
                                edge_prob=rng.choice((0.1, 0.25)))
        s = with_ternary(base, rng, count=rng.randint(2, 6))
        naive, guarded = Evaluator(s), GuardedEvaluator(s)
        for phi, bounds in formulas:
            # a forall is !exists y. !body
            outer = phi if isinstance(phi, Exists) else phi.sub
            assert guarded.satisfying(phi, "x") == {
                a for a in s.universe if naive.evaluate(phi, {"x": a})}
            for a in s.universe:
                env = {"x": a}
                assert guarded.evaluate(phi, env) == naive.evaluate(phi, env)
                tried = guarded._witnesses(outer.var, outer.sub, env)
                if bounds is None:
                    assert tried is s.universe
                else:
                    assert tried == frozenset().union(
                        *(s.ball(a, b) for b in bounds))


def test_satisfying_takes_one_free_variable():
    s = path_graph(3)
    with pytest.raises(InputError):
        GuardedEvaluator(s).satisfying(Atom("E", ("x", "y")), "x")


def test_satisfying_reads_a_one_variable_atom_off_its_relation():
    s = Structure(SIG3, ["a", "b", "c"], {
        "E": [("a", "a"), ("a", "b"), ("c", "c")],
        "R": [("a", "a", "a"), ("b", "b", "c"), ("c", "b", "b"),
              ("c", "c", "c"), ("b", "c", "b")]})
    naive, guarded = Evaluator(s), GuardedEvaluator(s)
    for atom in (Atom("R", ("x", "x", "x")), Atom("E", ("x", "x"))):
        assert guarded.satisfying(atom, "x") == {"a", "c"} == {
            e for e in s.universe if naive.evaluate(atom, {"x": e})}


def test_a_negative_distance_bound_holds_for_no_pair():
    s = path_graph(3).expand({"P": (1, [("v0",)])})
    far = DistAtom("x", "y", -1)
    near_p = Exists("w", and_(DistAtom("w", "v", -1), Atom("P", ("w",))))
    for ev in (Evaluator(s), GuardedEvaluator(s)):
        assert not ev.evaluate(far, {"x": "v0", "y": "v2"})
        assert not ev.evaluate(far, {"x": "v0", "y": "v0"})
        assert not any(ev.evaluate(near_p, {"v": a}) for a in s.universe)
    assert GuardedEvaluator(s).satisfying(near_p, "v") == frozenset()
    with pytest.raises(InputError, match="radius"):
        BasicClTerm(("x", "y"), -1, PatternGraph.of(2, [(1, 2)]), Truth(),
                    unary=True)


def test_locality_is_checked_once_per_term(monkeypatch):
    calls = []

    def counting(phi, anchors):
        calls.append(phi)
        return locality_radius(phi, anchors)

    monkeypatch.setattr(cldecomp, "locality_radius", counting)
    s = path_graph(6)
    term = BasicClTerm(("x", "y"), 1, PatternGraph.of(2, [(1, 2)]),
                       Atom("E", ("x", "y")), unary=True)
    for a in s.universe * 3:
        eval_basic_cl(s, term, a)
    assert len(calls) == 1
    bad = BasicClTerm(("x", "y"), 0, term.pattern,
                      Exists("z", Atom("E", ("y", "z"))), unary=True)
    for _ in range(2):
        with pytest.raises(UnsupportedFragmentError,
                           match="condition is not 0-local"):
            eval_basic_cl(s, bad, s.universe[0])
    assert len(calls) == 2


def test_basic_cl_term_is_R_local():
    rng = random.Random(19)
    for _ in range(20):
        s = random_structure(rng, rng.randint(3, 9), edge_prob=0.25)
        pattern = PatternGraph.of(2, [(1, 2)])
        term = BasicClTerm(("x", "y"), 1, pattern,
                           Atom("Q", ("y",)), unary=True)
        for a in s.universe:
            inside = s.induced(s.ball(a, term.eval_radius))
            assert eval_basic_cl(s, term, a) == eval_basic_cl(inside, term, a)


def test_count_pattern_partition_is_n_to_the_k():
    rng = random.Random(23)
    for _ in range(12):
        s = random_structure(rng, rng.randint(2, 6), edge_prob=0.35)
        n = len(s.universe)
        for k in (1, 2, 3):
            for radius in (0, 1):
                total = sum(count_pattern(s, p, radius)
                            for p in all_patterns(k))
                assert total == n ** k


def test_count_pattern_matches_enumeration():
    rng = random.Random(31)
    for _ in range(10):
        s = random_structure(rng, rng.randint(2, 6), edge_prob=0.35)
        for k in (2, 3):
            for pattern in all_patterns(k):
                radius = 1
                got = count_pattern(s, pattern, radius)
                want = sum(
                    1 for tup in product(s.universe, repeat=k)
                    if pattern_graph(s, tup, 2 * radius + 1) == pattern)
                assert got == want, (k, sorted(pattern.edges))


def test_count_pattern_anchor_consistency():
    rng = random.Random(37)
    s = random_structure(rng, 6, edge_prob=0.4)
    for pattern in all_patterns(2):
        ground = count_pattern(s, pattern, 1)
        split = sum(count_pattern(s, pattern, 1, anchor=a)
                    for a in s.universe)
        assert ground == split


def test_count_pattern_component_factors():
    rng = random.Random(41)
    s = random_structure(rng, 6, edge_prob=0.3)
    pattern = PatternGraph.of(2, [])  # two far-apart positions
    cond = {frozenset({1}): parse_formula("P(y1)", SIG),
            frozenset({2}): parse_formula("Q(y2)", SIG)}
    got = count_pattern(s, pattern, 0, cond)
    ev = Evaluator(s)
    want = sum(
        1 for tup in product(s.universe, repeat=2)
        if pattern_graph(s, tup, 1) == pattern
        and ev.evaluate(cond[frozenset({1})], {"y1": tup[0]})
        and ev.evaluate(cond[frozenset({2})], {"y2": tup[1]}))
    assert got == want
    with pytest.raises(InputError):
        count_pattern(s, pattern, 0, {frozenset({1, 2}): Truth()})


def test_decomposition_needs_closed_input():
    with pytest.raises(InputError):
        cl_decompose(parse("P(x)", SIG), SIG)


def test_decompose_then_evaluate_equals_reference():
    rng = random.Random(47)
    ok = 0
    for _ in range(60):
        s = random_structure(rng, rng.randint(2, 9), edge_prob=0.3)
        e = ExpressionSampler(random.Random(rng.randrange(10 ** 9)),
                              size_hint=8).expression()
        want = eval_reference(e, s)
        decomp = cl_decompose(e, s.signature)
        got = eval_decomposition(decomp, s)
        assert got == want
        ok += 1
    assert ok == 60


def test_decompose_handles_nested_counts_and_sentences():
    cases = [
        "#(x). P(x)",
        "eq(#(x). eq(#(y). (dist(x,y) <= 1 & E(x,y)), 1), 2)",
        "(#(x). P(x) * #(y). Q(y))",
        "(#(x). (P(x) & exists y. (dist(x,y) <= 1 & Q(y))) + 3)",
        "(#(x). Q(x) >= 1 | prime(#(y). P(y)))",
    ]
    rng = random.Random(53)
    for text in cases:
        e = parse(text, SIG)
        for _ in range(5):
            s = random_structure(rng, rng.randint(2, 8), edge_prob=0.4)
            assert eval_decomposition(cl_decompose(e, SIG), s) == \
                eval_reference(e, s), text


def test_layer_symbols_have_bounded_count_depth():
    e = parse("eq(#(x). eq(#(y). (dist(x,y) <= 1 & E(x,y)), 1), 2)", SIG)
    decomp = cl_decompose(e, SIG)
    assert sum(len(layer.symbols) for layer in decomp.layers) >= 2
    for layer in decomp.layers:
        for sym in layer.symbols:
            for arg in sym.args:
                for basic in arg.basics():
                    basic.check_local()


def basic_terms(decomp):
    out = {b for layer in decomp.layers for sym in layer.symbols
           for arg in sym.args for b in arg.basics()}
    if decomp.final_term is not None:
        out.update(decomp.final_term.basics())
    return out


def test_identically_false_basic_terms_are_dropped():
    # the benchmark's query: its other patterns all carry a false factor
    e = parse("#(x,y). ((P(x) & Q(y)) & dist(x,y) <= 2)", SIG)
    decomp = cl_decompose(e, SIG)
    (basic,) = basic_terms(decomp)
    assert not isinstance(simplify(basic.psi), Falsity)
    s = random_structure(random.Random(59), 9, edge_prob=0.3)
    assert eval_decomposition(decomp, s) == eval_reference(e, s)


def test_far_counted_variable_gives_a_width_one_indicator():
    # when y is far from x the count splits into [P(x)] * #(y). Q(y); the
    # bracket is a width-1 unary term, not one padded with an equality
    e = parse("#(x). geq1(#(y). (P(x) & Q(y)))", SIG)
    decomp = cl_decompose(e, SIG)
    basics = basic_terms(decomp)
    assert any(b.unary and b.k == 1 for b in basics)
    assert not any(isinstance(n, Eq) for b in basics for n in walk(b.psi))
    rng = random.Random(61)
    for _ in range(5):
        s = random_structure(rng, rng.randint(2, 9), edge_prob=0.3)
        assert eval_decomposition(decomp, s) == eval_reference(e, s)


def test_a_guarded_variable_is_separated_inside_a_connected_pattern():
    # w lies within 1 of x, so on the path x - y - z, whose non-edge puts x
    # and z more than 3 apart, E(w,z) never holds: only the triangle is left
    e = parse("#(x,y,z). (((dist(x,y) <= 1 & dist(y,z) <= 1) & P(x)) "
              "& exists w. (dist(x,w) <= 1 & E(w,z)))", SIG)
    decomp = cl_decompose(e, SIG)
    (basic,) = basic_terms(decomp)
    assert basic.radius == 1 and len(basic.pattern.edges) == 3
    for family in ("random-tree", "star", "grid", "path"):
        s = with_colors(make_family(family, 16), ("P", "Q"),
                        random.Random(family))
        assert eval_decomposition(decomp, s) == Evaluator(s).evaluate(e), \
            family


# -- folded constant predicates and live symbols ----------------------------


CORPUS_FAMILIES = ("random-tree", "bounded-degree", "path", "grid")


def corpus_case(i: int, n: int = 40):
    """Sampler expression i of the benchmark corpus on a structure of its
    family, coloured as the benchmark colours it."""
    family = CORPUS_FAMILIES[i % len(CORPUS_FAMILIES)]
    s = with_colors(make_family(family, n, seed=i), ("P", "Q"),
                    random.Random(f"corpus:{i}"))
    return ExpressionSampler(random.Random(i)).expression(), s


def test_equal_basic_terms_hash_equal():
    pattern = PatternGraph.of(2, [(1, 2)])
    text = "exists z. (dist(y,z) <= 1 & Q(z))"
    one = BasicClTerm(("x", "y"), 1, pattern, parse_formula(text, SIG), True)
    two = BasicClTerm(("x", "y"), 1, PatternGraph.of(2, [(1, 2)]),
                      parse_formula(text, SIG), True)
    assert one == two and one.psi is not two.psi
    assert hash(one) == hash(two)
    # the hash the dataclass would generate, so set orders stay as they were
    assert hash(one) == hash((one.vars, one.radius, one.pattern, one.psi,
                              one.unary))
    assert one.sort_key == render(one.to_count_term())
    other = BasicClTerm(("x", "y"), 1, pattern, Truth(), True)
    assert len({one, two, other}) == 2
    # a monomial's factors are ordered by rendering, whatever the order of
    # the product
    p, q = ClTerm.of_basic(one), ClTerm.of_basic(other)
    want = tuple(sorted((one, other), key=lambda b: render(b.to_count_term())))
    assert (p * q).monomials == (q * p).monomials == ((1, want),)


def test_the_fold_keeps_every_subtree_it_does_not_fold():
    theta = parse_formula("(P(x) & exists z. (dist(y,z) <= 1 & Q(z)))", SIG)
    edge = PatternGraph.of(2, [(1, 2)])
    assert _fold_separations(theta, ("x", "y"), edge, 3) is theta
    assert simplify(theta) is theta
    # across a non-edge dist(x,y) <= 1 folds to false, and P(x) stays
    near = parse_formula("(P(x) & (Q(y) | dist(x,y) <= 1))", SIG)
    folded = _fold_separations(near, ("x", "y"), PatternGraph.of(2, []), 3)
    p_x, q_y = near.sub.left.sub, near.sub.right.sub.left
    assert folded.sub.right.sub.right == Falsity()
    assert folded.sub.left.sub is p_x
    assert simplify(folded) == and_(p_x, q_y)
    assert simplify(folded).sub.left.sub is p_x


def test_count_to_clterm_equals_the_running_sum_of_its_patterns(monkeypatch):
    """count_to_clterm sums its patterns' parts once, with one memo for all
    of them; the running `+` of one part per pattern gives the same
    cl-term, monomial order included, on every count that decomposing
    sampled expressions makes."""
    calls = []

    def recording(*args):
        calls.append(args)
        return count_to_clterm(*args)

    monkeypatch.setattr(cldecomp, "count_to_clterm", recording)
    for seed in range(120):
        for width in (3, 4):
            cl_decompose(ExpressionSampler(random.Random(seed), width=width,
                                           max_cost=10 ** 9).expression(),
                         SIG)
    assert {len(args[0]) for args in calls} >= {2, 3, 4}
    for args in calls:
        assert count_to_clterm(*args) == count_to_clterm_by_sums(*args), args


def test_corpus_decompositions_render_as_recorded():
    """tests/data/corpus_decompositions.json holds `to_json()` of the
    decomposition of each corpus expression (sampler seeds 0-15), made
    after sentences became geq1 counts decomposed through the one
    predicate-application path and constant predicates were decided on the
    simplified expression.  The cached sort key and the cached hash change
    no symbol, argument or final part."""
    want = json.loads((Path(__file__).parent / "data"
                       / "corpus_decompositions.json").read_text())
    for seed in range(16):
        expr = ExpressionSampler(random.Random(seed)).expression()
        assert cl_decompose(expr, SIG).to_json() == want[seed], seed


def test_sentences_decompose_as_geq1_counts():
    same = {
        "exists x. exists y. E(x,y)": "geq1(#(x,y). E(x,y))",
        "forall x. (P(x) | Q(x))": "!geq1(#(x). !(P(x) | Q(x)))",
        "#(x). (P(x) & exists y. Q(y))":
            "#(x). (P(x) & geq1(#(y). Q(y)))",
    }
    for text, spelled in same.items():
        got = cl_decompose(parse(text, SIG), SIG).to_json()
        assert got == cl_decompose(parse(spelled, SIG), SIG).to_json(), text
    # the inner chain is closed, so it stays its own symbol a layer below
    decomp = cl_decompose(parse("exists x. exists y. Q(y)", SIG), SIG)
    assert [len(layer.symbols) for layer in decomp.layers] == [1, 1]
    # a sentence shares its layer with the other applications of its round
    decomp = cl_decompose(parse("(exists x. P(x) & eq(#(x). Q(x), 2))",
                                SIG), SIG)
    assert [len(layer.symbols) for layer in decomp.layers] == [2]


def test_constant_predicates_are_decided_while_decomposing():
    cases = {"geq1(0)": Falsity(), "(prime(3) | geq1(#(x). P(x)))": Truth(),
             "(leq(0, 3) & eq(2, (1 + 1)))": Truth(),
             "(prime(4) & geq1(#(x). P(x)))": Falsity(),
             # simplification empties a count, which makes its
             # application constant in turn
             "prime((#(x). (P(x) & false) + 3))": Truth(),
             "geq1(#(x). (P(x) & false))": Falsity(),
             "geq1(#(x). (P(x) & prime(4)))": Falsity(),
             "(exists x. true & !exists y. false)": Truth()}
    for text, want in cases.items():
        decomp = cl_decompose(parse(text, SIG), SIG)
        assert decomp.layers == () and decomp.final_formula == want, text
    # under a count the folded value reaches the body, not a layer
    decomp = cl_decompose(parse("#(x). (prime(4) & P(x))", SIG), SIG)
    assert decomp.layers == () and decomp.final_term.constant == 0
    assert decomp.final_term.monomials == ()
    decomp = cl_decompose(parse("(#(x). (prime(5) & P(x)) + 1)", SIG), SIG)
    (basic,) = decomp.final_term.basics()
    assert basic.psi == Atom("P", ("x",)) and decomp.layers == ()
    for i in range(16):
        expr, s = corpus_case(i, n=12)
        decomp = cl_decompose(expr, SIG)
        for layer in decomp.layers:
            for sym in layer.symbols:
                assert any(count_depth(a.to_term()) for a in sym.args)
        assert eval_decomposition(decomp, s) == Evaluator(s).evaluate(expr)


def test_constant_application_of_an_unknown_or_misapplied_predicate():
    for app in (PredApp("nosuch", (IntConst(3),)),
                PredApp("prime", (IntConst(3), IntConst(4))),
                PredApp("eq", (Mul(IntConst(2), IntConst(3)),))):
        with pytest.raises(InputError):
            cl_decompose(app, SIG)


def counting_engine(calls: list):
    def engine(structure, basic):
        calls.append(basic)
        return default_engine(structure, basic)
    return engine


def layer_basics(decomp, index: int, arity: int | None = None) -> set:
    return {b for sym in decomp.layers[index].symbols for a in sym.args
            for b in a.basics() if arity in (None, sym.arity)}


def test_each_basic_term_reaches_the_engine_once():
    # #(y). P(y) is an argument of the layer-0 symbol and a factor of the
    # final term
    expr = parse("(#(y). P(y) * #(x). (Q(x) & leq(#(y). P(y), 20)))", SIG)
    decomp = cl_decompose(expr, SIG)
    (shared,) = layer_basics(decomp, 0)
    assert shared in decomp.final_term.basics()
    rng = random.Random(73)
    held = set()
    for n in (8, 20, 45):
        s = random_structure(rng, n, edge_prob=0.1, color_prob=0.6)
        calls = []
        got = eval_decomposition(decomp, s, engine=counting_engine(calls))
        assert got == Evaluator(s).evaluate(expr)
        assert len(calls) == len(set(calls)) == len(basic_terms(decomp))
        held.add(len(s.relations["P"]) <= 20)
    assert held == {True, False}


def test_dead_symbols_never_reach_the_engine():
    # corpus 4 and 7 end in "| exists z. true", which simplification
    # decides; 12 and 13 start with a true constant predicate
    for i in (4, 7, 12, 13):
        expr, s = corpus_case(i)
        decomp = cl_decompose(expr, SIG)
        calls = []
        assert eval_decomposition(decomp, s, engine=counting_engine(calls)) \
            is Evaluator(s).evaluate(expr) is True
        assert decomp.layers == () and decomp.final_formula == Truth(), i
        assert calls == [], i
    # corpus 10: geq1(#(z10). true) | <sentence>; both are 0-ary symbols
    # of layer 0, the first one always holds, so the sentence never
    # reaches the engine
    expr, _ = corpus_case(10)
    decomp = cl_decompose(expr, SIG)
    first, sentence = decomp.layers[0].symbols
    assert render(first.args[0].to_term()).startswith("#(z10). ")
    assert sentence.args[0].basics()
    rng = random.Random(67)
    for _ in range(12):
        s = random_structure(rng, rng.randint(2, 7), edge_prob=0.3,
                             color_prob=0.3)
        calls = []
        got = eval_decomposition(decomp, s, engine=counting_engine(calls))
        assert got is Evaluator(s).evaluate(expr) is True
        assert set(calls) == set(first.args[0].basics())


def test_a_decided_sentence_leaves_the_structure_unexpanded(monkeypatch):
    """Corpus 10's cheap disjunct geq1(#(z10). true) decides it: its value
    is substituted into the final formula and no live symbol reads it, so
    the structure is never expanded by it."""
    expr, s = corpus_case(10)
    decomp = cl_decompose(expr, SIG)
    expanded = []
    expand = Structure.expand

    def record(self, extra):
        expanded.append(sorted(extra))
        return expand(self, extra)

    monkeypatch.setattr(Structure, "expand", record)
    assert eval_decomposition(decomp, s) is Evaluator(s).evaluate(expr) \
        is True
    assert expanded == []


def test_false_conjuncts_leave_their_partners_unevaluated():
    rng = random.Random(71)
    never = ("(false & geq1(#(x). P(x)))",
             "(exists x. (P(x) & false) & eq(#(x,y). E(x,y), 2))",
             "((geq1(0) & geq1(#(x). P(x))) | false)")
    for text in never:
        expr = parse(text, SIG)
        decomp = cl_decompose(expr, SIG)
        for _ in range(4):
            s = random_structure(rng, rng.randint(3, 8), edge_prob=0.3)
            calls = []
            got = eval_decomposition(decomp, s, engine=counting_engine(calls))
            assert got is Evaluator(s).evaluate(expr) is False, text
            assert calls == [], text
    # "exists x. true" is decided while decomposing
    expr = parse("(!exists x. true & eq(#(x,y). E(x,y), 2))", SIG)
    decomp = cl_decompose(expr, SIG)
    assert decomp.layers == () and decomp.final_formula == Falsity()
    # the sentence comes first in the one layer it shares with eq, so
    # when P holds somewhere the eq symbol is never materialized
    expr = parse("(!exists x. P(x) & eq(#(x,y). E(x,y), 2))", SIG)
    decomp = cl_decompose(expr, SIG)
    sentence, eq = decomp.layers[0].symbols
    assert len(decomp.layers) == 1 and eq.pred == "eq"
    seen = set()
    for _ in range(12):
        s = random_structure(rng, rng.randint(2, 7), edge_prob=0.3,
                             color_prob=0.2)
        calls = []
        got = eval_decomposition(decomp, s, engine=counting_engine(calls))
        assert got == Evaluator(s).evaluate(expr)
        p_holds = bool(s.relations["P"])
        assert (set(calls) == set(sentence.args[0].basics())) is p_holds
        seen.add(p_holds)
    assert seen == {True, False}
    # the unary symbol of the first disjunct shares layer 0 with the 0-ary
    # geq1 symbol and comes before it; 0-ary symbols run first, so when
    # P holds somewhere the unary one is never materialized
    expr = parse("(exists y. eq(#(z). (dist(y,z) <= 1 & Q(z)), 2) "
                 "| geq1(#(x). P(x)))", SIG)
    decomp = cl_decompose(expr, SIG)
    assert [sym.arity for sym in decomp.layers[0].symbols] == [1, 0]
    geq1 = layer_basics(decomp, 0, arity=0)
    seen = set()
    for _ in range(12):
        s = random_structure(rng, rng.randint(2, 7), edge_prob=0.3,
                             color_prob=0.2)
        calls = []
        got = eval_decomposition(decomp, s, engine=counting_engine(calls))
        assert got == Evaluator(s).evaluate(expr)
        p_holds = bool(s.relations["P"])
        assert (set(calls) == geq1) is p_holds
        seen.add(p_holds)
    assert seen == {True, False}
