"""Cold time of the pairs query on hub families, with and without deletion.

    PYTHONPATH=src python3 tools/hub_cost.py --sizes 16000

The pairs query is `localized_ground` on the width-2 basic term of
`#(y1,y2). dist(y1,y2) <= 3`: radius 1, one pattern edge, threshold 3.  Per
size n the families are
- pref-tree:n and caterpillar:n, `make_family(family, n, seed=0)`;
- apex-grid:n,a for a = 1 and 4: `grid_graph(q, n // q)` with q = isqrt(n),
  plus apex vertices h0..h{a-1}, each joined to each grid vertex, in sorted
  name order, with probability 0.02, drawn from one `random.Random(0)`;
- star-path:n,k for k = 40 and k = n // 100: k stars with n // k - 13
  leaves each, consecutive hubs joined by a path of 12 new vertices;
and, at sizes of their own, star:S (`--star`, default 4000) and
hub-tree:1000, the random tree with one vertex of degree 17
(`make_family("random-tree", 1000, seed=371)`).

Each cell runs three configurations: the default cost test, degree 16 (the
explicit override `hub_degree_threshold=16`, the rule before the cost test)
and no deletion (`hub_degree_threshold=10**9`).  Each timed call runs on a
freshly built structure, so the Gaifman graph, its cover and its game are
built inside it; the cell runs the three in turn `--repeats` times and
keeps each one's fastest.  The script prints one row per cell: the seconds
of each configuration with its `removal_steps` in brackets, then the value and
whether every configuration's value equals the networkx count, the sizes of
the cutoff-3 single-source shortest path lengths summed over the vertices.
It exits 1 when a value is wrong.  It times whichever `focount` is first on
the path, named in the header, so two checkouts compare by pointing
PYTHONPATH at each one's `src`.
"""
from __future__ import annotations

import argparse
import math
import random
import sys
import time
from typing import Callable

import networkx as nx

import focount
from focount.cldecomp import BasicClTerm
from focount.generators import grid_graph, make_family, star_graph
from focount.localeval import EvalConfig, localized_ground
from focount.logic import Truth
from focount.structures import (PatternGraph, Signature, Structure,
                                gaifman_graph)

TERM = BasicClTerm(("y1", "y2"), 1, PatternGraph.of(2, [(1, 2)]), Truth(),
                   unary=False)
# the least size at which each of star-path's 40 stars has a leaf
MIN_SIZE = 14 * 40
CONFIGS = {"default": EvalConfig(),
           "degree 16": EvalConfig(hub_degree_threshold=16),
           "no deletion": EvalConfig(hub_degree_threshold=10 ** 9)}


def apex_grid(n: int, a: int, p: float = 0.02) -> Structure:
    """A grid of about n vertices plus a apices, each joined to each grid
    vertex with probability p."""
    q = math.isqrt(n)
    grid = grid_graph(q, n // q)
    names = sorted(grid.universe)
    edges = list(grid.relations["E"])
    rng, apices = random.Random(0), [f"h{i}" for i in range(a)]
    joins = [(h, v) for h in apices for v in names if rng.random() < p]
    edges += joins + [(v, h) for h, v in joins]
    return Structure(grid.signature, names + apices, {"E": edges})


def star_path(n: int, k: int) -> Structure:
    """k stars of n // k - 13 leaves, consecutive hubs joined by a path of
    12 new vertices: a tree."""
    names, edges = [], []
    for i in range(k):
        hub = f"s{i}"
        leaves = [f"s{i}_{j}" for j in range(n // k - 13)]
        names += [hub] + leaves
        edges += [(hub, leaf) for leaf in leaves]
        if i:
            path = [f"s{i - 1}"] + [f"p{i}_{j}" for j in range(12)] + [hub]
            names += path[1:-1]
            edges += list(zip(path, path[1:]))
    return Structure(Signature.of({"E": 2}), names,
                     {"E": edges + [(v, u) for u, v in edges]})


def families(sizes, star: int) -> list[tuple[str, int, Callable]]:
    """(family, n, builder of a fresh structure) per cell."""
    cells = []
    for n in sizes:
        cells += [
            ("pref-tree", n, lambda n=n: make_family("pref-tree", n)),
            ("caterpillar", n, lambda n=n: make_family("caterpillar", n)),
            ("apex-grid a=1", n, lambda n=n: apex_grid(n, 1)),
            ("apex-grid a=4", n, lambda n=n: apex_grid(n, 4)),
            ("star-path k=40", n, lambda n=n: star_path(n, 40)),
            ("star-path k=n/100", n,
             lambda n=n: star_path(n, max(n // 100, 1)))]
    return cells + [
        ("star", star, lambda: star_graph(star)),
        ("hub-tree", 1000, lambda: make_family("random-tree", 1000, seed=371))]


def expected(structure: Structure) -> int:
    """The pairs within distance 3, from networkx."""
    g = nx.Graph()
    adj = gaifman_graph(structure).adj
    g.add_nodes_from(adj)
    g.add_edges_from((u, v) for u in adj for v in adj[u])
    return sum(len(nx.single_source_shortest_path_length(g, v, cutoff=3))
               for v in g)


def cell(family: str, n: int, build: Callable, repeats: int) -> dict:
    """Each configuration's fastest cold seconds, its removal steps and
    values, checked against networkx."""
    out: dict = {"family": family, "n": n}
    seconds = {name: [] for name in CONFIGS}
    values = set()
    for _ in range(repeats):
        for name, cfg in CONFIGS.items():
            structure = build()
            start = time.perf_counter()
            value, stats = localized_ground(structure, TERM, cfg)
            seconds[name].append(time.perf_counter() - start)
            out[name] = {"seconds": min(seconds[name]),
                         "removal_steps": stats.removal_steps}
            values.add(value)
    want = expected(build())
    out["value"] = want if values == {want} else sorted(values)
    out["correct"] = values == {want}
    return out


def row(c: dict) -> str:
    cols = [f"{c[name]['seconds']:.3f} ({c[name]['removal_steps']})"
            for name in CONFIGS]
    return " | ".join([f"{c['family']}:{c['n']}", *cols, str(c["value"]),
                       "ok" if c["correct"] else "WRONG"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[16000])
    parser.add_argument("--star", type=int, default=4000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    if min(args.sizes) < MIN_SIZE or args.star < 1 or args.repeats < 1:
        parser.error(f"--sizes must be at least {MIN_SIZE}, and --star and "
                     "--repeats at least 1")
    print(f"focount: {focount.__file__}")
    print(" | ".join(["cell", *CONFIGS, "value", "check"]))
    cells = []
    for c in families(args.sizes, args.star):
        cells.append(cell(*c, args.repeats))
        print(row(cells[-1]), flush=True)
    return 0 if all(c["correct"] for c in cells) else 1


if __name__ == "__main__":
    sys.exit(main())
