"""Rewrites that survive deleting one element: formulas and counting terms."""
import random

import pytest

from focount.covers import remove
from focount.errors import InputError
from focount.logic import (Atom, CountTerm, DistAtom, Eq, Exists, Falsity,
                           Not, Or, PredApp, Truth, free_vars, parse_formula)
from focount.naive import Evaluator
from focount.removal import (BasicTerm, removal_formula, removal_ground_term,
                             removal_unary_term)
from focount.structures import Signature, Structure

from helpers import (eval_reference, q_rank_check, random_fo_plus,
                     random_structure)


def test_equality_rewrites():
    eq = Eq("x1", "x2")
    assert removal_formula(eq, {"x1", "x2"}, 1) == Truth()
    assert removal_formula(eq, {"x1"}, 1) == Falsity()
    assert removal_formula(eq, set(), 1) == eq


def test_negative_halo_radius_is_refused():
    with pytest.raises(InputError, match="halo radius"):
        removal_formula(Atom("E", ("x", "y")), {"x"}, -1)


def test_dist_atom_rewrites():
    one_side = removal_formula(DistAtom("x1", "x2", 2), {"x1"}, 3)
    assert one_side == Atom("S__2", ("x2",))
    assert removal_formula(DistAtom("x1", "x2", 0), {"x1"}, 3) == Falsity()
    assert removal_formula(DistAtom("x1", "x2", 2), {"x1", "x2"}, 3) == Truth()
    both_alive = removal_formula(DistAtom("x1", "x2", 2), set(), 3,
                                 simplified=False)
    assert isinstance(both_alive, Or)
    assert both_alive.left == DistAtom("x1", "x2", 2)


def test_dist_detours_pair_up_halo_levels():
    got = removal_formula(DistAtom("x", "y", 3), set(), 3, simplified=False)
    assert isinstance(got, Or)
    names = set()
    stack = [got.right]
    while stack:
        node = stack.pop()
        if isinstance(node, (Or,)):
            stack += [node.left, node.right]
        elif isinstance(node, Not):
            stack.append(node.sub)
        elif isinstance(node, Atom):
            names.add((node.rel, node.args))
    assert ("S__1", ("x",)) in names and ("S__2", ("y",)) in names
    assert ("S__2", ("x",)) in names and ("S__1", ("y",)) in names
    assert ("S__3", ("x",)) not in names  # both-alive paths need i1, i2 >= 1


def test_atom_projection():
    r_xy = Atom("E", ("x", "y"))
    assert removal_formula(r_xy, {"y"}, 1) == Atom("E__d2", ("x",))
    assert removal_formula(r_xy, {"x", "y"}, 1) == Atom("E__d12", ())
    assert removal_formula(r_xy, set(), 1) == r_xy


def test_rewrite_rejects_counting_and_wide_bounds():
    with pytest.raises(InputError):
        removal_formula(PredApp("geq1", (CountTerm(("y",), Truth()),)),
                        set(), 1)
    with pytest.raises(InputError):
        removal_formula(DistAtom("x", "y", 3), set(), 2)


def test_exists_splits_into_at_d_and_elsewhere():
    phi = Exists("y", Atom("E", ("x", "y")))
    got = removal_formula(phi, set(), 1, simplified=False)
    assert isinstance(got, Or)
    assert got.left == Atom("E__d2", ("x",))
    assert got.right == Exists("y", Atom("E", ("x", "y")))


def test_quantifier_free_rewrite_without_removed_vars_is_identity():
    phi = Or(Atom("E", ("x", "y")), Not(Eq("x", "y")))
    assert removal_formula(phi, set(), 2, simplified=False) == phi


def _removal_pair(rng, n: int, r: int):
    s = random_structure(rng, n, edge_prob=0.35)
    d = rng.choice(s.universe)
    return s, d, remove(s, d, r)


def test_formula_contract_on_random_instances():
    rng = random.Random(61)
    for _ in range(150):
        n = rng.randint(2, 8)
        r = rng.randint(0, 4)
        s, d, removed = _removal_pair(rng, n, r)
        vars = [f"x{i}" for i in range(1, rng.randint(2, 4))]
        phi = random_fo_plus(rng, vars, rng.randint(0, 2), max_dist=r)
        pinned = {v for v in vars if rng.random() < 0.4}
        beta = {v: (d if v in pinned else rng.choice(
            [e for e in s.universe if e != d])) for v in vars}
        want = Evaluator(s).evaluate(phi, beta)
        tilde = removal_formula(phi, pinned, r)
        assert free_vars(tilde) <= free_vars(phi) - pinned
        shrunk = {v: e for v, e in beta.items() if v not in pinned}
        got = Evaluator(removed.structure).evaluate(tilde, shrunk)
        assert got == want


def test_ground_count_of_true_splits_as_n_minus_one_plus_one():
    s = random_structure(random.Random(67), 3, edge_prob=0.5)
    term = BasicTerm(("y",), Truth())
    d = s.universe[0]
    removed = remove(s, d, 1)
    pieces = removal_ground_term(term, 1)
    assert len(pieces) == 2
    values = {pinned: eval_reference(p.to_count_term(), removed.structure)
              for pinned, p in pieces}
    assert values[()] == 2
    assert values[(1,)] == 1
    assert sum(values.values()) == 3


def test_ground_edge_count_on_triangle():
    pairs = [("a", "b"), ("a", "d"), ("b", "d")]
    edges = pairs + [(y, x) for x, y in pairs]
    s = Structure(Signature.of({"E": 2}), ["a", "b", "d"], {"E": edges})
    term = BasicTerm(("x", "y"), Atom("E", ("x", "y")))
    removed = remove(s, "d", 1)
    pieces = removal_ground_term(term, 1)
    assert len(pieces) == 4
    total = sum(eval_reference(p.to_count_term(), removed.structure)
                for _, p in pieces)
    assert total == 6


def test_ground_false_body_gives_zero_pieces():
    s = random_structure(random.Random(71), 4)
    removed = remove(s, s.universe[0], 1)
    pieces = removal_ground_term(BasicTerm(("x", "y"), Falsity()), 1)
    for _, p in pieces:
        assert eval_reference(p.to_count_term(), removed.structure) == 0


def test_ground_sum_contract_on_random_instances():
    rng = random.Random(73)
    for _ in range(80):
        n = rng.randint(2, 7)
        r = rng.randint(0, 3)
        s, d, removed = _removal_pair(rng, n, r)
        k = rng.randint(1, 3)
        vars = tuple(f"y{i}" for i in range(1, k + 1))
        body = random_fo_plus(rng, list(vars), rng.randint(0, 1), max_dist=r)
        term = BasicTerm(vars, body)
        pieces = removal_ground_term(term, r)
        assert len(pieces) == 2 ** k
        want = eval_reference(term.to_count_term(), s)
        got = sum(eval_reference(p.to_count_term(), removed.structure)
                  for _, p in pieces)
        assert got == want


def test_out_degree_on_directed_cycle():
    s = Structure(Signature.of({"E": 2}), ["a", "b", "c"],
                  {"E": [("a", "b"), ("b", "c"), ("c", "a")]})
    term = BasicTerm(("z",), Atom("E", ("x1", "z")), anchor="x1")
    for d in s.universe:
        removed = remove(s, d, 1)
        split = removal_unary_term(term, 1)
        at_d = sum(eval_reference(p.to_count_term(), removed.structure)
                   for _, p in split.grounds)
        assert at_d == 1  # every vertex of the cycle has out-degree 1
        for a in removed.structure.universe:
            alive = sum(
                eval_reference(p.to_count_term(), removed.structure, {"x1": a})
                for _, p in split.unaries)
            assert alive == 1


def test_unary_identity_body_keeps_value_one():
    s = random_structure(random.Random(79), 3)
    term = BasicTerm(("z",), Eq("x1", "z"), anchor="x1")
    d = s.universe[-1]
    removed = remove(s, d, 1)
    split = removal_unary_term(term, 1)
    assert sum(eval_reference(p.to_count_term(), removed.structure)
               for _, p in split.grounds) == 1
    for a in removed.structure.universe:
        assert sum(eval_reference(p.to_count_term(), removed.structure,
                                  {"x1": a})
                   for _, p in split.unaries) == 1


def test_unary_two_branch_contract_on_random_instances():
    rng = random.Random(83)
    for _ in range(60):
        n = rng.randint(2, 7)
        r = rng.randint(0, 3)
        s, d, removed = _removal_pair(rng, n, r)
        k = rng.randint(1, 2)
        vars = tuple(f"y{i}" for i in range(1, k + 1))
        body = random_fo_plus(rng, ["x1", *vars], rng.randint(0, 1),
                              max_dist=r)
        term = BasicTerm(vars, body, anchor="x1")
        split = removal_unary_term(term, r)
        assert len(split.grounds) == 2 ** k
        assert len(split.unaries) == 2 ** k
        at_d = sum(eval_reference(p.to_count_term(), removed.structure)
                   for _, p in split.grounds)
        assert at_d == eval_reference(term.to_count_term(), s, {"x1": d})
        for a in removed.structure.universe:
            want = eval_reference(term.to_count_term(), s, {"x1": a})
            got = sum(
                eval_reference(p.to_count_term(), removed.structure, {"x1": a})
                for _, p in split.unaries)
            assert got == want


def test_split_kind_checks():
    ground = BasicTerm(("y",), Truth())
    unary = BasicTerm(("y",), Truth(), anchor="x1")
    with pytest.raises(InputError):
        removal_ground_term(unary, 1)
    with pytest.raises(InputError):
        removal_unary_term(ground, 1)
    with pytest.raises(InputError):
        BasicTerm(("y", "y"), Truth())
    with pytest.raises(InputError):
        BasicTerm(("y",), Atom("P", ("w",)))


def test_q_rank_check():
    sig = Signature.of({"E": 2, "P": 1, "Q": 1})
    inside = parse_formula("exists y. dist(x,y) <= 4", sig)
    assert q_rank_check(inside, 1, 1) == []
    deep = parse_formula("exists y. exists z. E(y,z)", sig)
    assert q_rank_check(deep, 1, 1) != []
    wide = DistAtom("x", "y", 17)
    assert q_rank_check(wide, 1, 1) != []
    assert q_rank_check(wide, 1, 2) == []  # budget 4^3 = 64
    with pytest.raises(InputError):
        q_rank_check(parse_formula("#(y). E(x,y) >= 1", sig), 1, 1)
    with pytest.raises(InputError):
        q_rank_check(inside, 0, 1)


def test_rank_discipline_survives_the_rewrite():
    rng = random.Random(89)
    done = 0
    while done < 40:
        vars = ["x1", "x2"]
        phi = random_fo_plus(rng, vars, rng.randint(0, 2), max_dist=2)
        q, rank = 2, 2
        if q_rank_check(phi, q, rank):
            continue
        pinned = {v for v in vars if rng.random() < 0.5}
        tilde = removal_formula(phi, pinned, 4)
        assert not q_rank_check(tilde, q, rank)
        done += 1
