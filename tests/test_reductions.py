"""The tree and string hardness encodings against the reference evaluator."""
import random

import pytest

from focount.generators import (cycle_graph, path_graph, random_simple_graph,
                                star_graph)
from focount.naive import Evaluator
from focount.reductions import (encode_string, encode_tree,
                                rewrite_string_formula, rewrite_tree_formula)

from helpers import role_formulas, sentence_pool, tree_height

GRAPHS = {
    "path2": path_graph(2),
    "path3": path_graph(3),
    "star4": star_graph(4),
    "cycle3": cycle_graph(3),
    "random4": random_simple_graph(4, random.Random(1), 0.5),
}


@pytest.mark.parametrize("name", GRAPHS)
def test_encodings_preserve_every_pool_sentence(name):
    graph = GRAPHS[name]
    on_graph = Evaluator(graph)
    on_tree = Evaluator(encode_tree(graph).tree)
    on_string = Evaluator(encode_string(graph))
    for label, phi in sentence_pool():
        want = on_graph.evaluate(phi)
        assert on_tree.evaluate(rewrite_tree_formula(phi)) == want, label
        assert on_string.evaluate(rewrite_string_formula(phi)) == want, label


@pytest.mark.parametrize("name", GRAPHS)
def test_role_formulas_recognise_the_tree_roles(name):
    encoding = encode_tree(GRAPHS[name])
    assert tree_height(encoding) == 3
    ev = Evaluator(encoding.tree)
    for role, phi in role_formulas().items():
        for node, tag in encoding.vertex_tags.items():
            assert ev.evaluate(phi, {"x": node}) == (tag == role), (role, node)
