"""Property test: the localized engine against the reference evaluator on
drawn structures and queries, under the default and the forced-removal
configuration.  Every drawn structure carries a few ternary tuples, which
no query names but every distance reads."""
import random

from hypothesis import given, settings, strategies as st

from focount.cldecomp import GuardedEvaluator
from focount.generators import (FAMILY_NAMES, ExpressionSampler, make_family,
                                with_colors, with_ternary)
from focount.localeval import EvalConfig, evaluate
from focount.logic import (Atom, DistAtom, Eq, Exists, Falsity, Not, Or,
                           Truth, and_, conj, render)
from focount.naive import Evaluator
from focount.structures import Structure

from helpers import FORCED

SEEDS = st.integers(0, 2 ** 32 - 1)
# the forced configuration takes the removal route on every cluster with a
# vertex of degree two or more, and solves the exact splitter game once per
# graph and radius for its budget; its cost climbs steeply with size, so larger
# draws run only under the default configuration, which covers draws of at
# least EvalConfig().brute_force_threshold (32) elements and counts smaller
# ones directly
FORCED_MAX_N = 14
# FAMILY_NAMES holds seven spread-out families and two hub-heavy ones;
# 52 draws give the seven about the 40 they had alone (40 * 9 / 7)
EXAMPLES = 52


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(FAMILY_NAMES), n=st.integers(2, 48),
       colour_seed=SEEDS, sampler_seed=SEEDS)
def test_local_engine_agrees_with_naive(family, n, colour_seed,
                                        sampler_seed):
    extras = random.Random(colour_seed)
    structure = make_family(family, n, seed=colour_seed)
    structure = with_ternary(with_colors(structure, ("P", "Q"), extras),
                             extras)
    expr = ExpressionSampler(random.Random(sampler_seed)).expression()
    want = Evaluator(structure).evaluate(expr)
    configs = [EvalConfig()]
    if n <= FORCED_MAX_N:
        configs.append(EvalConfig(**FORCED, cross_check=True))
    for cfg in configs:
        value, _, stats = evaluate(expr, structure, cfg)
        assert value == want
        # a second evaluation reads the covers and games that the first
        # left on the structure's graph, and must not tell them apart
        again, _, warm = evaluate(expr, structure, cfg)
        assert (again, warm.to_json()) == (value, stats.to_json())


# -- one-variable conditions read as element sets ---------------------------

# every shape that GuardedEvaluator.satisfying reads as a set, and the three
# that it evaluates element by element (unguarded, reads-v, or-body)
SHAPES = ("atom", "closed", "shadow", "not", "or", "and", "guarded",
          "chain", "unguarded", "reads-v", "or-body")


class _OneVariable:
    """Random formulas whose only free variable is the given one, each of
    a named top-level shape, over P, Q, E, the ternary R and the 0-ary Z."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.fresh = 0

    def var(self) -> str:
        self.fresh += 1
        return f"w{self.fresh}"

    def guard(self, w: str, x: str) -> DistAtom:
        bound = self.rng.randint(0, 2)
        return (DistAtom(w, x, bound) if self.rng.random() < 0.5
                else DistAtom(x, w, bound))

    def leaf(self, x: str):
        return self.rng.choice([
            Atom("P", (x,)), Atom("Q", (x,)), Atom("E", (x, x)),
            Atom("R", (x, x, x)), Eq(x, x), DistAtom(x, x, 1),
            DistAtom(x, x, -1), Atom("Z", ()),
            Truth(), Falsity()])

    def any(self, x: str, depth: int):
        if depth == 0 or self.rng.random() < 0.3:
            return self.leaf(x)
        return self.shape(self.rng.choice(SHAPES), x, depth - 1)

    def guarded(self, x: str, depth: int, inner=None):
        w = self.var()
        parts = [self.guard(w, x)]
        parts += [self.any(w, depth) for _ in range(self.rng.randint(0, 2))]
        if inner is not None:
            parts.append(inner(w))
        self.rng.shuffle(parts)
        return Exists(w, conj(parts))

    def shape(self, shape: str, x: str, depth: int):
        sub = lambda y=x: self.any(y, depth)
        match shape:
            case "atom":
                return self.leaf(x)
            case "closed":
                u = self.var()
                return and_(Exists(u, and_(Atom("P", (u,)), sub(u))), sub())
            case "shadow":
                # an inner existential over x itself: closed, or bound
                # again inside a guarded existential
                if self.rng.random() < 0.5:
                    return and_(sub(), Exists(x, sub()))
                return self.guarded(x, depth, lambda w: Exists(
                    x, and_(self.guard(x, w), sub())))
            case "not":
                return Not(sub())
            case "or":
                return Or(sub(), sub())
            case "and":
                return and_(sub(), sub())
            case "guarded":
                return self.guarded(x, depth)
            case "chain":
                return self.guarded(x, depth,
                                    lambda w: self.guarded(w, depth))
            case "unguarded":
                w = self.var()
                return Exists(w, and_(Atom("E", (x, w)), sub(w)))
            case "reads-v":
                return self.guarded(x, depth, lambda w: Atom("E", (x, w)))
            case "or-body":
                w = self.var()
                return Exists(w, Or(and_(self.guard(w, x), sub(w)),
                                    and_(self.guard(w, x), sub(w))))
        raise ValueError(shape)


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(FAMILY_NAMES), n=st.integers(1, 24),
       structure_seed=SEEDS, formula_seed=SEEDS, loops=st.booleans(),
       zero_ary=st.booleans())
def test_satisfying_is_the_set_of_elements_where_naive_holds(
        family, n, structure_seed, formula_seed, loops, zero_ary):
    extras = random.Random(structure_seed)
    s = with_ternary(with_colors(make_family(family, n, seed=structure_seed),
                                 ("P", "Q"), extras), extras)
    if loops:
        looped = {(a, a) for a in s.universe if extras.random() < 0.5}
        s = Structure(s.signature, s.universe,
                      {**s.relations, "E": s.relations["E"] | looped})
    s = s.expand({"Z": (0, [()] if zero_ary else [])})
    draw = _OneVariable(random.Random(formula_seed))
    for shape in SHAPES:
        f = draw.shape(shape, "v", 2)
        naive = Evaluator(s)
        want = {b for b in s.universe if naive.evaluate(f, {"v": b})}
        assert GuardedEvaluator(s).satisfying(f, "v") == want, render(f)
