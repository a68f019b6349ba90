"""Deterministic structure families and a seeded random query generator.

Graph builders return structures over one symmetric binary relation E;
with_colors adds random unary relations on top, and with_ternary a few
random ternary tuples.  random_expression builds closed counting queries
that stay inside the fragment the localized evaluator accepts: counting
bodies are conjunctions of per-variable facts, distance constraints between
counted variables and distance-guarded quantifiers, so every counting term
admits a cluster decomposition by construction.
"""
from __future__ import annotations

import math
import random
from typing import Iterable, Sequence

from .errors import InputError
from .logic import (Atom, CountTerm, DistAtom, Exists, Expr, Formula,
                    IntConst, Mul, Add, Not, Or, PredApp, Truth, and_, conj,
                    exists_chain, free_vars, walk)
from .structures import Signature, Structure, disjoint_union

EDGE_SIG = Signature.of({"E": 2})


def _vertex_names(n: int, prefix: str = "v") -> list[str]:
    if n < 1:
        raise InputError("need at least one vertex")
    width = len(str(n - 1)) if n > 1 else 1
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def _graph(names: Sequence[str], pairs: Iterable[tuple[str, str]]) -> Structure:
    edges = []
    for u, v in pairs:
        edges.append((u, v))
        edges.append((v, u))
    return Structure(EDGE_SIG, names, {"E": edges})


def path_graph(n: int) -> Structure:
    names = _vertex_names(n)
    return _graph(names, zip(names, names[1:]))


def cycle_graph(n: int) -> Structure:
    names = _vertex_names(n)
    pairs = list(zip(names, names[1:]))
    if n > 2:
        pairs.append((names[-1], names[0]))
    return _graph(names, pairs)


def star_graph(n: int) -> Structure:
    """n vertices total: one hub adjacent to n - 1 leaves."""
    names = _vertex_names(n)
    return _graph(names, ((names[0], leaf) for leaf in names[1:]))


def grid_graph(rows: int, cols: int) -> Structure:
    if rows < 1 or cols < 1:
        raise InputError("grid needs positive dimensions")
    width_r, width_c = len(str(rows - 1)) or 1, len(str(cols - 1)) or 1
    name = lambda r, c: f"g{r:0{max(width_r, 1)}d}_{c:0{max(width_c, 1)}d}"
    names = [name(r, c) for r in range(rows) for c in range(cols)]
    pairs = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                pairs.append((name(r, c), name(r + 1, c)))
            if c + 1 < cols:
                pairs.append((name(r, c), name(r, c + 1)))
    return _graph(names, pairs)


def random_tree(n: int, rng: random.Random) -> Structure:
    """Random recursive tree: vertex i attaches to a uniform earlier vertex."""
    names = _vertex_names(n)
    pairs = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    return _graph(names, pairs)


def preferential_tree(n: int, rng: random.Random) -> Structure:
    """Preferential-attachment tree: from the edge v0-v1 on, vertex i joins
    an endpoint, chosen uniformly, of an edge drawn uniformly from those so
    far, so a vertex is joined in proportion to its degree."""
    names = _vertex_names(n)
    pairs = [(names[0], names[1])] if n > 1 else []
    for i in range(2, n):
        pairs.append((rng.choice(rng.choice(pairs)), names[i]))
    return _graph(names, pairs)


def caterpillar(n: int) -> Structure:
    """A path of hubs, one every 33 vertices, each hub followed by its 32
    leaves; the last hub has only the leaves left before n."""
    names = _vertex_names(n)
    hubs = names[::33]
    pairs = list(zip(hubs, hubs[1:]))
    pairs += [(names[i - i % 33], names[i]) for i in range(n) if i % 33]
    return _graph(names, pairs)


def random_bounded_degree(n: int, max_degree: int, rng: random.Random,
                          tries_per_vertex: int = 4) -> Structure:
    names = _vertex_names(n)
    deg = {v: 0 for v in names}
    have: set[tuple[str, str]] = set()
    for _ in range(tries_per_vertex * n):
        u, v = rng.choice(names), rng.choice(names)
        if u == v or (min(u, v), max(u, v)) in have:
            continue
        if deg[u] < max_degree and deg[v] < max_degree:
            have.add((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
    return _graph(names, sorted(have))


def random_simple_graph(n: int, rng: random.Random,
                        edge_prob: float = 0.4) -> Structure:
    names = _vertex_names(n)
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]
             if rng.random() < edge_prob]
    return _graph(names, pairs)


def with_colors(structure: Structure, names: Sequence[str],
                rng: random.Random, density: float = 0.5) -> Structure:
    """Add fresh unary relations, each element kept with the given density.
    A name given twice raises InputError, as one already present does."""
    extra = {}
    for name in names:
        if name in extra:
            raise InputError(f"colour {name!r} given twice")
        extra[name] = (1, [(e,) for e in structure.universe
                           if rng.random() < density])
    return structure.expand(extra)


def with_ternary(structure: Structure, rng: random.Random,
                 count: int = 3) -> Structure:
    """Add a fresh ternary relation R holding `count` random tuples.  A query
    need not name R to see it: its tuples join their elements in the
    Gaifman graph, which every distance atom reads."""
    elems = structure.universe
    tuples = [tuple(rng.choice(elems) for _ in range(3)) for _ in range(count)]
    return structure.expand({"R": (3, tuples)})


FAMILY_NAMES = ("path", "cycle", "star", "grid", "random-tree",
                "bounded-degree", "two-trees", "pref-tree", "caterpillar")


def make_family(name: str, n: int, seed: int = 0) -> Structure:
    """Named family dispatcher used by the benchmark and the CLI.  n < 1
    raises InputError in every family.  `grid:n` rounds up to a full
    rectangle of isqrt(n) rows, and `two-trees:1` has 2 vertices, one per
    tree."""
    if n < 1:
        raise InputError("need at least one vertex")
    rng = random.Random((seed, name, n).__repr__())
    if name == "path":
        return path_graph(n)
    if name == "cycle":
        return cycle_graph(n)
    if name == "star":
        return star_graph(n)
    if name == "grid":
        rows = math.isqrt(n)
        return grid_graph(rows, -(-n // rows))
    if name == "random-tree":
        return random_tree(n, rng)
    if name == "bounded-degree":
        return random_bounded_degree(n, 3, rng)
    if name == "two-trees":
        half = max(1, n // 2)
        return disjoint_union(random_tree(half, rng),
                              random_tree(max(1, n - half), rng))
    if name == "pref-tree":
        return preferential_tree(n, rng)
    if name == "caterpillar":
        return caterpillar(n)
    raise InputError(f"unknown family {name!r}; pick one of {FAMILY_NAMES}")


# -- random queries --------------------------------------------------------


def evaluation_cost(e: Expr, n: int) -> int:
    """Rough count of innermost evaluation steps a memoizing reference
    evaluator spends on e over an n-element structure: each binder node is
    charged once per assignment of its free and bound variables."""
    total = 0
    for node in walk(e):
        binders = len(node.vars) if isinstance(node, CountTerm) else \
            1 if isinstance(node, Exists) else 0
        total += n ** (len(free_vars(node)) + binders)
    return total


class ExpressionSampler:
    """Random closed counting queries over a graph-with-colors signature.

    count_depth bounds the nesting of counting operators, width bounds the
    number of jointly counted variables.  Bodies only use unary facts,
    bounded distance atoms and distance-guarded quantifiers, keeping every
    generated query inside the supported local fragment.  Draws whose
    estimated reference-evaluation cost on a size_hint-element structure
    exceeds max_cost are rejected and retried, so a corpus stays affordable
    to cross-check against the reference evaluator.
    """

    def __init__(self, rng: random.Random, colors: Sequence[str] = ("P", "Q"),
                 count_depth: int = 2, width: int = 3, max_bound: int = 2,
                 size_hint: int = 30, max_cost: int = 200_000):
        if width < 1 or count_depth < 0:
            raise InputError("width must be >= 1 and count_depth >= 0")
        self.rng = rng
        self.colors = tuple(colors)
        self.count_depth = count_depth
        self.width = width
        self.max_bound = max_bound
        self.size_hint = size_hint
        self.max_cost = max_cost
        self._fresh = 0

    def _var(self) -> str:
        self._fresh += 1
        return f"z{self._fresh}"

    def _fact(self, var: str, depth: int) -> Formula:
        roll = self.rng.random()
        if roll < 0.45 and self.colors:
            atom = Atom(self.rng.choice(self.colors), (var,))
            return Not(atom) if self.rng.random() < 0.3 else atom
        if roll < 0.65:
            w = self._var()
            guard = DistAtom(var, w, 1)
            return Exists(w, and_(guard, self._fact(w, 0)))
        if roll < 0.8 and depth > 0:
            return self._unary_pred(var, depth - 1)
        return Truth()

    def _body(self, vars: Sequence[str], depth: int) -> Formula:
        parts: list[Formula] = [self._fact(v, depth) for v in vars]
        for i, u in enumerate(vars):
            for v in vars[i + 1:]:
                roll = self.rng.random()
                if roll < 0.3:
                    bound = self.rng.randint(1, self.max_bound)
                    atom = DistAtom(u, v, bound)
                    parts.append(Not(atom) if self.rng.random() < 0.4
                                 else atom)
        self.rng.shuffle(parts)
        return conj(parts)

    def _count(self, anchor: str | None, depth: int) -> CountTerm:
        room = self.width if anchor is None else self.width - 1
        k = self.rng.randint(1, max(1, min(room, 3)))
        vars = tuple(self._var() for _ in range(k))
        body = self._body(vars, depth)
        if anchor is not None:
            guard = DistAtom(anchor, vars[0], self.rng.randint(1, 2))
            body = and_(guard, body)
        return CountTerm(vars, body)

    def _term(self, anchor: str | None, depth: int) -> Expr:
        roll = self.rng.random()
        if roll < 0.15:
            return IntConst(self.rng.randint(0, 3))
        base = self._count(anchor, depth)
        if roll < 0.45:
            return base
        other: Expr = IntConst(self.rng.randint(1, 2))
        if roll < 0.6 and depth > 0:
            other = self._count(anchor, depth - 1 if anchor is None else 0)
        op = Add if self.rng.random() < 0.6 else Mul
        return op(base, other)

    def _unary_pred(self, anchor: str, depth: int) -> Formula:
        pred = self.rng.choice(("geq1", "eq", "leq", "prime"))
        first = self._term(anchor, depth)
        if pred in ("geq1", "prime"):
            return PredApp(pred, (first,))
        second: Expr = IntConst(self.rng.randint(0, 4))
        return PredApp(pred, (first, second))

    def _closed_pred(self, depth: int) -> Formula:
        pred = self.rng.choice(("geq1", "eq", "leq", "prime"))
        first = self._term(None, depth)
        if pred in ("geq1", "prime"):
            return PredApp(pred, (first,))
        second: Expr = (self._term(None, 0) if self.rng.random() < 0.4
                        else IntConst(self.rng.randint(0, 6)))
        return PredApp(pred, (first, second))

    def _exists_sentence(self, depth: int) -> Formula:
        k = self.rng.randint(1, min(self.width, 2))
        vars = [self._var() for _ in range(k)]
        return exists_chain(vars, self._body(vars, depth))

    def _sentence_once(self) -> Formula:
        depth = self.count_depth
        leaves = [self._closed_pred(depth - 1 if depth else 0)]
        if self.rng.random() < 0.5:
            leaves.append(self._exists_sentence(depth - 1 if depth else 0))
        if self.rng.random() < 0.3:
            leaves.append(self._closed_pred(0))
        out = leaves[0]
        for leaf in leaves[1:]:
            if self.rng.random() < 0.4:
                leaf = Not(leaf)
            out = Or(out, leaf) if self.rng.random() < 0.5 else and_(out, leaf)
        return out

    def _affordable(self, draw, fallback) -> Expr:
        for _ in range(12):
            cand = draw()
            if evaluation_cost(cand, self.size_hint) <= self.max_cost:
                return cand
        return fallback()

    def sentence(self) -> Formula:
        def tiny() -> Formula:
            v = self._var()
            return PredApp("geq1", (CountTerm((v,), self._fact(v, 0)),))
        return self._affordable(self._sentence_once, tiny)

    def ground_term(self) -> Expr:
        depth = self.count_depth

        def tiny() -> Expr:
            v = self._var()
            return CountTerm((v,), self._fact(v, 0))
        return self._affordable(
            lambda: self._term(None, depth - 1 if depth else 0), tiny)

    def expression(self) -> Expr:
        return (self.sentence() if self.rng.random() < 0.6
                else self.ground_term())
