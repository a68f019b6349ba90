"""Expression ASTs, parsing, rendering, fragment checks, simplification."""
import os
import random
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import focount
from focount.errors import InputError, ParseError
from focount.generators import ExpressionSampler
from focount.logic import (Atom, CountTerm, IntConst, Not, NumericPredicate,
                           Or, PredApp, Query, Truth, _is_prime,
                           _strong_lucas_probable_prime, and_,
                           default_registry, flatten_conj, free_vars, geq1,
                           parse, render, simplify, validate_fo1c, walk)
from focount.naive import Evaluator
from focount.structures import Signature

from helpers import (count_depth, random_fo_plus, random_structure,
                     render_query)

SIG = Signature.of({"E": 2, "P": 1, "Q": 1})


def test_parse_render_round_trip_by_hand():
    texts = [
        "P(x)",
        "!(!P(x) | !Q(x))",
        "exists y. (E(x,y) & dist(x,y) <= 2)",
        "#(x). P(x)",
        "(#(x). P(x) + #(y). Q(y))",
        "(2 * #(x, y). E(x,y))",
        "eq(#(x). P(x), 3)",
        "#(x). #(y). (dist(x,y) <= 1 & Q(y)) >= 1",
        "true",
        "false",
        "prime(#(x). x = x)",
    ]
    for text in texts:
        e = parse(text, SIG)
        again = parse(render(e), SIG)
        assert again == e, text


def test_parse_render_round_trip_sampled():
    rng = random.Random(7)
    sampler = ExpressionSampler(rng)
    for _ in range(200):
        e = sampler.expression()
        assert parse(render(e), SIG) == e


def test_parse_errors():
    for text in ["", "P(", "exists . P(x)", "#x. P(x)", "(P(x) & Q(x)",
                 "P(x) &", "dist(x) <= 1", "#(x). P(x) >=", "(1 +)"]:
        with pytest.raises(ParseError):
            parse(text, SIG)
    with pytest.raises(ParseError):
        parse("R(x)", SIG)  # unknown relation
    with pytest.raises(ParseError):
        parse("E(x)", SIG)  # arity mismatch
    with pytest.raises(ParseError):
        parse("frob(#(x). P(x))", SIG)  # unknown predicate


def test_geq1_is_parser_sugar():
    assert parse("#(x). P(x) >= 1", SIG) == geq1(parse("#(x). P(x)", SIG))


def test_query_parse_and_validate():
    q = parse("(x, #(y). (dist(x,y) <= 1 & E(x,y))). P(x)", SIG)
    assert isinstance(q, Query)
    q.validate()
    assert parse(render_query(q), SIG) == q
    with pytest.raises(InputError):
        Query(("x",), (), Atom("P", ("y",))).validate()
    with pytest.raises(InputError):
        Query(("x", "x"), (), Truth()).validate()


def test_free_and_bound_vars():
    e = parse("exists y. (E(x,y) & #(z). E(y,z) >= 1)", SIG)
    assert free_vars(e) == {"x"}
    assert free_vars(parse("#(x). P(x)", SIG)) == frozenset()


def test_equal_nodes_from_two_parses_hash_equal():
    text = ("(exists y. (E(x,y) & #(z). (dist(y,z) <= 1 & Q(z)) >= 1) "
            "| eq((2 * #(w). P(w)), 3))")
    one, two = parse(text, SIG), parse(text, SIG)
    assert one == two and one is not two
    for a, b in zip(walk(one), walk(two), strict=True):
        assert a == b and a is not b
        assert hash(a) == hash(b)
        # the hash the frozen dataclass would generate, so set and dict
        # orders stay as they were
        assert hash(a) == hash(tuple(getattr(a, f.name) for f in fields(a)))
        assert free_vars(a) is free_vars(a) == free_vars(b)
    assert len({one, two, simplify(one)}) == 1


def test_count_depth():
    assert count_depth(parse("P(x)", SIG)) == 0
    assert count_depth(parse("#(x). P(x)", SIG)) == 1
    assert count_depth(
        parse("#(x). eq(#(y). E(x,y), 2)", SIG)) == 2
    assert count_depth(
        parse("(#(x). P(x) + #(y). Q(y))", SIG)) == 1


def test_simplify_preserves_semantics():
    rng = random.Random(11)
    for _ in range(150):
        s = random_structure(rng, rng.randint(2, 6))
        f = random_fo_plus(rng, ["x"], 4)
        g = simplify(f)
        ev = Evaluator(s)
        for a in s.universe:
            assert ev.evaluate(f, {"x": a}) == ev.evaluate(g, {"x": a})


def test_flatten_conj_splits_after_simplification():
    a, b, c = Atom("P", ("x",)), Atom("Q", ("x",)), Atom("E", ("x", "x"))
    f = and_(a, and_(b, c))
    assert flatten_conj(f) == [a, b, c]
    assert flatten_conj(simplify(f)) == [a, b, c]
    assert flatten_conj(Truth()) == []
    # a lone disjunction is not a conjunction
    assert flatten_conj(Or(a, b)) == [Or(a, b)]


def test_conj_of_flatten_is_equivalent():
    rng = random.Random(23)
    for _ in range(100):
        s = random_structure(rng, rng.randint(2, 5))
        f = random_fo_plus(rng, ["x"], 4)
        parts = flatten_conj(f)
        ev = Evaluator(s)
        for a in s.universe:
            want = ev.evaluate(f, {"x": a})
            got = all(ev.evaluate(p, {"x": a}) for p in parts)
            assert got == want


def test_validate_fo1c_flags_joint_variables():
    ok = parse("#(x). eq(#(y). E(x,y), 2)", SIG)
    assert validate_fo1c(ok) == []
    t1 = CountTerm(("y",), Atom("E", ("x", "y")))
    t2 = CountTerm(("y",), Atom("E", ("z", "y")))
    bad = PredApp("eq", (t1, t2))
    problems = validate_fo1c(bad)
    assert len(problems) == 1 and "x" in problems[0] and "z" in problems[0]


def joined(left: str, right: str) -> PredApp:
    return PredApp("eq", (CountTerm(("y",), Atom("E", (left, "y"))),
                          CountTerm(("y",), Atom("E", (right, "y")))))


def test_validation_lists_its_problems_parents_first_left_to_right():
    inner = joined("x", "w")
    outer = PredApp("leq", (CountTerm(("u",), and_(inner, Atom("P", ("u",)))),
                            CountTerm(("y",), Atom("E", ("z", "y")))))
    bad = Or(outer, Not(joined("a", "b")))
    problems = validate_fo1c(bad)
    assert [p.split(" joins ")[1] for p in problems] == [
        "free variables ['w', 'x', 'z']", "free variables ['w', 'x']",
        "free variables ['a', 'b']"]
    corpus = [ExpressionSampler(random.Random(seed)).expression()
              for seed in range(16)]
    for e in corpus:
        assert validate_fo1c(e) == []


def test_registry():
    reg = default_registry()
    assert reg.get("eq").holds(3, 3)
    assert not reg.get("leq").holds(4, 3)
    assert reg.get("prime").holds(7) and not reg.get("prime").holds(6)
    assert reg.get("geq1").holds(1) and not reg.get("geq1").holds(0)
    with pytest.raises(InputError):
        reg.get("nope")
    with pytest.raises(InputError):
        reg.register(NumericPredicate("eq", 2, lambda a, b: True))
    with pytest.raises(InputError):
        reg.register(NumericPredicate("exists", 1, lambda a: True))
    with pytest.raises(InputError):
        reg.get("eq").holds(1)


def test_simplify_folds_constants():
    assert simplify(parse("(P(x) & true)", SIG)) == Atom("P", ("x",))
    assert simplify(parse("(P(x) | true)", SIG)) == Truth()
    assert simplify(Not(Not(Atom("P", ("x",))))) == Atom("P", ("x",))
    assert simplify(parse("(0 * #(x). P(x))", SIG)) == IntConst(0)


def test_simplify_returns_its_input_where_nothing_folds():
    e = parse("#(x). (P(x) & exists y. (dist(x,y) <= 1 & Q(y)))", SIG)
    assert simplify(e) is e
    f = parse("(#(x). (P(x) & true) + #(y). (Q(y) | E(y,y)))", SIG)
    g = simplify(f)
    assert g == parse("(#(x). P(x) + #(y). (Q(y) | E(y,y)))", SIG)
    assert g.right is f.right and g.left.body is f.left.body.sub.left.sub
    assert simplify(g) is g


def test_simplify_decides_an_existential_its_own_anchor_witnesses():
    # v = w satisfies dist(v, w) <= b, so the quantifier always holds
    for text in ("exists v. dist(v,w) <= 1", "exists v. dist(w,v) <= 0",
                 "exists v. !!dist(v,w) <= 2"):
        assert simplify(parse(text, SIG)) == Truth(), text
    # no element need lie farther than b from w
    far = parse("exists v. !dist(v,w) <= 1", SIG)
    assert simplify(far) == far
    inner = parse("exists v. exists u. dist(u,w) <= 1", SIG)
    assert simplify(inner) == Truth()
    guarded = parse("exists v. (dist(v,w) <= 1 & P(v))", SIG)
    assert simplify(guarded) == guarded
    rng = random.Random(29)
    seen = set()
    for _ in range(20):
        s = random_structure(rng, rng.randint(1, 5), edge_prob=0.5)
        ev = Evaluator(s)
        for a in s.universe:
            assert ev.evaluate(parse("exists v. dist(v,w) <= 0", SIG),
                               {"w": a})
            holds = ev.evaluate(far, {"w": a})
            assert holds == (s.ball(a, 1) != frozenset(s.universe))
            seen.add(holds)
    assert seen == {True, False}


def test_primality_agrees_with_a_sieve():
    n = 10 ** 5
    sieve = [False, False] + [True] * (n - 1)
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(sieve[p * p::p])
    assert [m for m in range(-10, n + 1) if _is_prime(m)] == \
        [m for m in range(n + 1) if sieve[m]]
    # the strong Lucas test alone is passed by every prime and by exactly
    # these composites below 10^5 (OEIS A217255)
    lucas_liars = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                   40309, 58519, 75077, 97439]
    passed = [m for m in range(43, n + 1, 2)
              if _strong_lucas_probable_prime(m)]
    assert passed == sorted([m for m in range(43, n + 1, 2) if sieve[m]]
                            + lucas_liars)


def test_primality_rejects_pseudoprimes():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161]
    strong = [2047, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051,
              318665857834031151167461,
              # strong pseudoprime to every base up to 41: Baillie-PSW
              3317044064679887385961981]
    m61, m89 = 2 ** 61 - 1, 2 ** 89 - 1
    composite = carmichael + strong + [
        2 ** 67 - 1, 2 ** 101 - 1, m61 * m89, m89 * m89, m89 * 3 ** 40]
    assert not any(_is_prime(m) for m in composite)
    assert all(_is_prime(p) for p in (m61, m89, 2 ** 127 - 1, 10 ** 24 + 7))


def test_prime_needs_no_sympy():
    code = ("import sys\n"
            "from focount.localeval import evaluate\n"
            "from focount.logic import parse\n"
            "from focount.naive import Evaluator\n"
            "from focount.structures import Signature, Structure\n"
            "sig = Signature.of({'E': 2})\n"
            "s = Structure(sig, ['a', 'b', 'c'], {'E': []})\n"
            "e = parse('prime(#(x). x = x)', sig)\n"
            "assert Evaluator(s).evaluate(e) and evaluate(e, s)[0]\n"
            "assert 'sympy' not in sys.modules\n")
    src = str(Path(focount.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
