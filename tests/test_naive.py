"""Reference evaluator: semantics clauses and queries."""
import gc
import random
from itertools import product

import pytest

from focount.errors import InputError
from focount.generators import ExpressionSampler, path_graph
from focount.logic import Atom, CountTerm, Eq, Not, Or, parse
from focount.naive import Evaluator, QueryResult, eval_query
from focount.structures import Signature, Structure

from helpers import (MemoEval, eval_reference, random_fo_plus,
                     random_structure)

SIG = Signature.of({"E": 2, "P": 1, "Q": 1})


def directed_triangle():
    sig = Signature.of({"E": 2})
    return Structure(sig, ["a", "b", "c"],
                     {"E": [("a", "b"), ("b", "c"), ("c", "a")]})


def test_count_all_elements():
    s = random_structure(random.Random(0), 7)
    assert eval_reference(parse("#(x). x = x", SIG), s) == 7


def test_prime_of_vertex_plus_edge_count():
    s = directed_triangle()
    e = parse("prime((#(x). x = x + #(x, y). E(x,y)))", s.signature)
    assert eval_reference(e, s) is False  # 3 + 3 = 6
    e5 = parse("prime((2 + #(x). x = x))", s.signature)
    assert eval_reference(e5, s) is True  # 2 + 3 = 5


def test_out_degree_term():
    s = directed_triangle()
    t = parse("#(z). E(y,z)", s.signature)
    assert eval_reference(t, s, {"y": "a"}) == 1
    star = Structure(Signature.of({"E": 2}), ["c", "l1", "l2", "l3"],
                     {"E": [("c", "l1"), ("c", "l2"), ("c", "l3")]})
    assert eval_reference(parse("#(z). E(y,z)", star.signature),
                          star, {"y": "c"}) == 3


def test_unassigned_free_variable_is_an_error():
    s = directed_triangle()
    with pytest.raises(InputError):
        eval_reference(parse("P(x)", SIG), s)


def test_negation_and_disjunction_truth_tables():
    s = random_structure(random.Random(5), 4)
    ev = Evaluator(s)
    px, qx = Atom("P", ("x",)), Atom("Q", ("x",))
    for a in s.universe:
        env = {"x": a}
        p, q = ev.evaluate(px, env), ev.evaluate(qx, env)
        assert ev.evaluate(Not(px), env) == (not p)
        assert ev.evaluate(Or(px, qx), env) == (p or q)
        assert ev.evaluate(Not(Or(Not(px), Not(qx))), env) == (p and q)


def test_agrees_with_independent_memoizing_evaluator():
    rng = random.Random(17)
    for _ in range(60):
        s = random_structure(rng, rng.randint(2, 7))
        e = ExpressionSampler(random.Random(rng.randrange(10 ** 9)),
                              size_hint=6).expression()
        got = Evaluator(s).evaluate(e)
        want = MemoEval(s).evaluate(e)
        if isinstance(want, bool):
            assert bool(got) == want
        else:
            assert got == want


def test_count_clause_by_brute_force():
    rng = random.Random(29)
    for _ in range(30):
        s = random_structure(rng, rng.randint(2, 5))
        body = random_fo_plus(rng, ["x", "y"], 2)
        t = CountTerm(("x", "y"), body)
        ev = Evaluator(s)
        want = sum(
            1 for pair in product(s.universe, repeat=2)
            if ev.evaluate(body, dict(zip(("x", "y"), pair))))
        assert ev.evaluate(t) == want


def test_eval_query_rows():
    s = Structure(SIG, ["a", "b", "c"],
                  {"E": [("a", "b"), ("b", "a")], "P": [("a",), ("c",)],
                   "Q": []})
    q = parse("(x, #(y). E(x,y)). P(x)", SIG)
    res = eval_query(q, s)
    assert res.rows == (("a", 1), ("c", 0))
    empty = eval_query(parse("(x). (P(x) & false)", SIG), s)
    assert empty.rows == ()
    ground = eval_query(parse("(#(x). P(x)). true", SIG), s)
    assert ground.rows == ((2,),)


def test_query_result_json_uses_strings_for_big_integers():
    big = 2 ** 60
    assert QueryResult(((big,),)).to_json() == [[str(big)]]
    assert QueryResult((("a", 3),)).to_json() == [["a", 3]]


def test_cached_values_survive_a_reused_id():
    s = path_graph(6)
    ev = Evaluator(s)
    edges = CountTerm(("x", "y"), Atom("E", ("x", "y")))
    assert ev.evaluate(edges) == 10
    del edges
    gc.collect()
    # one of these lands on the freed id unless the evaluator pins its keys
    fresh = [CountTerm(("x",), Eq("x", "x")) for _ in range(2000)]
    assert [ev.evaluate(t) for t in fresh] == [6] * len(fresh)
