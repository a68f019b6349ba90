"""Cold time of one width-3 count through `evaluate`, per family and size.

    PYTHONPATH=src python3 tools/wide_cost.py --sizes 4000 16000

The count is the path `#(x,y,z). (dist(x,y) <= 1 & dist(y,z) <= 1)`, which
`cl_decompose` splits into basic terms of width 3.  Each cell builds its
structure afresh (`make_family(family, n, seed)`), so the Gaifman graph, its
cover and its game are built inside the timed call, and times one
`evaluate` on it.  The value is checked against sum over v of
(deg v + 1)^2, read off `gaifman_graph(...).adj`: the tuples whose middle
element is v are its closed neighbourhood squared.  The script prints one
JSON object: per cell the family, n, seconds, value and whether it is
correct, and per family the log-log slope of seconds against n (a
least-squares fit over the sizes).  It exits 1 when a value is wrong.  It
times whichever `focount` is first on the path, named under "focount", so
two checkouts compare by pointing PYTHONPATH at each one's `src`.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time

import focount
from focount.generators import make_family
from focount.localeval import evaluate
from focount.logic import parse
from focount.structures import gaifman_graph

QUERY = "#(x,y,z). (dist(x,y) <= 1 & dist(y,z) <= 1)"
FAMILIES = ("random-tree", "grid")


def cell(family: str, n: int, seed: int = 0) -> dict:
    """One cold evaluation of QUERY on a fresh `family:n` structure."""
    structure = make_family(family, n, seed=seed)
    expr = parse(QUERY, structure.signature)
    start = time.perf_counter()
    value, _, _ = evaluate(expr, structure)
    seconds = time.perf_counter() - start
    adj = gaifman_graph(structure).adj
    expected = sum((len(nbrs) + 1) ** 2 for nbrs in adj.values())
    return {"family": family, "n": n, "seconds": seconds, "value": value,
            "correct": value == expected}


def slope(cells: list[dict]) -> float | None:
    """The least-squares slope of log seconds against log n; None below
    two sizes."""
    points = [(math.log(c["n"]), math.log(c["seconds"])) for c in cells]
    if len({x for x, _ in points}) < 2:
        return None
    mx = sum(x for x, _ in points) / len(points)
    my = sum(y for _, y in points) / len(points)
    return (sum((x - mx) * (y - my) for x, y in points)
            / sum((x - mx) ** 2 for x, _ in points))


def costs(sizes, families=FAMILIES, seed: int = 0) -> dict:
    cells = [cell(family, n, seed) for family in families for n in sizes]
    return {"focount": focount.__file__, "query": QUERY, "seed": seed,
            "cells": cells,
            "slopes": {family: slope([c for c in cells
                                      if c["family"] == family])
                       for family in families}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[4000, 16000])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if min(args.sizes) < 1:
        parser.error("--sizes must be at least 1")
    report = costs(args.sizes, seed=args.seed)
    print(json.dumps(report, indent=1))
    return 0 if all(c["correct"] for c in report["cells"]) else 1


if __name__ == "__main__":
    sys.exit(main())
