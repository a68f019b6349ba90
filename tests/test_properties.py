"""Property test: the localized engine against the reference evaluator on
drawn structures and queries, under the default and the forced-removal
configuration.  Every drawn structure carries a few ternary tuples, which
no query names but every distance reads."""
import random

from hypothesis import given, settings, strategies as st

from focount.generators import (FAMILY_NAMES, ExpressionSampler, make_family,
                                with_colors, with_ternary)
from focount.localeval import EvalConfig, evaluate
from focount.naive import Evaluator

from helpers import FORCED

SEEDS = st.integers(0, 2 ** 32 - 1)
# the forced configuration plays the exact splitter game at every removal
# step; its cost still climbs steeply with size, so larger draws run only
# under the default configuration, which covers draws of at least
# EvalConfig().brute_force_threshold (32) elements and counts smaller ones
# directly
FORCED_MAX_N = 14


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
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
    assert evaluate(expr, structure)[0] == want
    if n <= FORCED_MAX_N:
        forced = EvalConfig(**FORCED, cross_check=True)
        assert evaluate(expr, structure, forced)[0] == want
