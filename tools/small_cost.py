"""Cold time of sampled expressions on small structures, through `evaluate`.

    PYTHONPATH=src python3 tools/small_cost.py --seeds 16 --sizes 12 20 30

Each cell is one sampled expression (`ExpressionSampler` seed i) on a
coloured graph of one corpus family (`make_family(FAMILIES[i % 4], n,
seed=i)` with colours P and Q from `random.Random(i)`), so the defaults
give 16 seeds times 3 sizes, 48 evaluations.  A cell builds its structure
afresh for each of `--repeats` timed `evaluate` calls, so every call builds
its Gaifman graph, covers and games, and keeps the fastest.  Before the
timed calls, one untimed evaluation on another fresh structure gives the
value, checked against `naive.Evaluator`, and counts the calls the engine
makes to `solve_splitter`.  The script prints one JSON object: per cell the
seed, family, n, seconds, value, solves and whether it is correct, and the
sum of seconds and of solves.  It exits 1 when a value is wrong.  It times
whichever `focount` is first on the path, named under "focount", so two
checkouts compare by pointing PYTHONPATH at each one's `src`.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import time
from contextlib import contextmanager

import focount
from focount import localeval
from focount.generators import ExpressionSampler, make_family, with_colors
from focount.localeval import evaluate
from focount.naive import Evaluator

FAMILIES = ("random-tree", "bounded-degree", "path", "grid")


@contextmanager
def counting_solves():
    """Counts the engine's calls to solve_splitter: yields a list that gets
    one radius per call."""
    real, calls = localeval.solve_splitter, []

    def solve(graph, r, *args, **kwargs):
        calls.append(r)
        return real(graph, r, *args, **kwargs)

    localeval.solve_splitter = solve
    try:
        yield calls
    finally:
        localeval.solve_splitter = real


def cell(seed: int, n: int, repeats: int) -> dict:
    """Sampled expression `seed` on `n` elements: its value and solves from
    one evaluation, and the fastest of `repeats` timed ones."""
    family = FAMILIES[seed % len(FAMILIES)]

    def fresh():
        return with_colors(make_family(family, n, seed=seed), ("P", "Q"),
                           random.Random(seed))

    expr = ExpressionSampler(random.Random(seed)).expression()
    with counting_solves() as solves:
        value, _, _ = evaluate(expr, fresh())
    seconds = []
    for _ in range(repeats):
        structure = fresh()
        start = time.perf_counter()
        evaluate(expr, structure)
        seconds.append(time.perf_counter() - start)
    return {"seed": seed, "family": family, "n": n, "seconds": min(seconds),
            "value": value, "solves": len(solves),
            "correct": value == Evaluator(fresh()).evaluate(expr)}


def costs(seeds: int, sizes, repeats: int) -> dict:
    cells = [cell(seed, n, repeats) for seed in range(seeds) for n in sizes]
    return {"focount": focount.__file__, "repeats": repeats, "cells": cells,
            "seconds": sum(c["seconds"] for c in cells),
            "solves": sum(c["solves"] for c in cells)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=16)
    parser.add_argument("--sizes", type=int, nargs="+", default=[12, 20, 30])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.seeds < 1 or args.repeats < 1 or min(args.sizes) < 1:
        parser.error("--seeds, --sizes and --repeats must be at least 1")
    report = costs(args.seeds, args.sizes, args.repeats)
    print(json.dumps(report, indent=1))
    return 0 if all(c["correct"] for c in report["cells"]) else 1


if __name__ == "__main__":
    sys.exit(main())
