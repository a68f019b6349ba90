"""Graph encodings into trees and strings, with formula rewriting.

A graph G on vertices 1..n becomes a height-3 tree T_G: a root, one a-node
per vertex i carrying i+1 attached b-c pendant paths (a unary counter for
i), and per directed edge (i, j) a d-node below a(i) carrying j+1 e-leaves.
Edges are then first-order testable on the tree by comparing e-leaf counts
with b-child counts through an equality predicate on counting terms.  The
string encoding writes vertex i as the block "a c^i" followed by "b c^j"
for each neighbour j, concatenated in vertex order over letters a/b/c with
a linear order; run lengths play the role the pendant counts play on trees.

rewrite_tree_formula / rewrite_string_formula translate any FO sentence
over one binary edge relation into a counting sentence over the encoding
with the same truth value.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import InputError
from .logic import (Atom, CountTerm, Eq, Exists, Falsity, Formula, IntConst,
                    Not, Or, PredApp, Truth, and_, conj, forall, implies,
                    render, walk)
from .structures import Signature, Structure

EDGE = "E"


def _graph_adjacency(graph: Structure) -> dict[str, list[str]]:
    if not graph.signature.has(EDGE) or graph.signature.arity(EDGE) != 2:
        raise InputError("graph structures need one binary relation E")
    adj: dict[str, set[str]] = {v: set() for v in graph.universe}
    for (u, v) in graph.relations[EDGE]:
        if u == v:
            raise InputError("self-loops are not supported")
        adj[u].add(v)
        adj[v].add(u)
    return {v: sorted(ns) for v, ns in adj.items()}


def _indexing(graph: Structure) -> dict[str, int]:
    return {v: i + 1 for i, v in enumerate(graph.universe)}


# -- tree encoding ---------------------------------------------------------


@dataclass(frozen=True)
class TreeEncoding:
    """The encoded tree plus its bookkeeping, which CLI `reduce` prints: the
    role of every tree node and the a-node standing for each original
    vertex."""

    tree: Structure
    vertex_tags: dict[str, str]
    a_nodes: dict[str, str]


def encode_tree(graph: Structure) -> TreeEncoding:
    """Height-3 tree encoding; one a-node per vertex, pendant b-c paths
    count the vertex index, d-nodes with e-leaves encode directed edges."""
    adj = _graph_adjacency(graph)
    index = _indexing(graph)
    tags: dict[str, str] = {"r": "root"}
    a_nodes: dict[str, str] = {}
    edges: list[tuple[str, str]] = []

    def link(u: str, v: str) -> None:
        edges.append((u, v))
        edges.append((v, u))

    for v in graph.universe:
        i = index[v]
        a = f"a_{i}"
        a_nodes[v] = a
        tags[a] = "a"
        link("r", a)
        for j in range(1, i + 2):
            b, c = f"b_{i}_{j}", f"c_{i}_{j}"
            tags[b] = "b"
            tags[c] = "c"
            link(a, b)
            link(b, c)
        for w in adj[v]:
            j = index[w]
            d = f"d_{i}_{j}"
            tags[d] = "d"
            link(a, d)
            for m in range(1, j + 2):
                e = f"e_{i}_{j}_{m}"
                tags[e] = "e"
                link(d, e)
    tree = Structure(Signature.of({EDGE: 2}), tags.keys(), {EDGE: edges})
    return TreeEncoding(tree, tags, a_nodes)


class _TreeFormulas:
    """Role and edge formulas over the tree; bound variables are drawn away
    from a caller-provided avoid set."""

    def __init__(self, avoid: set[str]):
        self._avoid = set(avoid)
        self._counter = 0

    def _fresh(self, n: int) -> list[str]:
        out = []
        while len(out) < n:
            self._counter += 1
            cand = f"u{self._counter}"
            if cand not in self._avoid:
                out.append(cand)
        return out

    def _deg(self, x: str) -> CountTerm:
        (z,) = self._fresh(1)
        return CountTerm((z,), Atom(EDGE, (x, z)))

    def deg_ge(self, x: str, m: int) -> Formula:
        if m <= 1:
            return PredApp("geq1", (self._deg(x),))
        return Not(PredApp("leq", (self._deg(x), IntConst(m - 1))))

    def deg_eq(self, x: str, m: int) -> Formula:
        return PredApp("eq", (self._deg(x), IntConst(m)))

    def leaf(self, x: str) -> Formula:
        return self.deg_eq(x, 1)

    def with_neighbour(self, x: str, prop) -> Formula:
        (y,) = self._fresh(1)
        return Exists(y, and_(Atom(EDGE, (x, y)), prop(y)))

    def role_e(self, x: str) -> Formula:
        return and_(self.leaf(x),
                    self.with_neighbour(x, lambda y: self.deg_ge(y, 3)))

    def role_b(self, x: str) -> Formula:
        return and_(self.deg_eq(x, 2), self.with_neighbour(x, self.leaf))

    def role_d(self, x: str) -> Formula:
        return and_(self.deg_ge(x, 3), self.with_neighbour(x, self.leaf))

    def role_a(self, x: str) -> Formula:
        return and_(self.deg_ge(x, 2), self.with_neighbour(x, self.role_b))

    def edge(self, x: str, xp: str) -> Formula:
        (y,) = self._fresh(1)
        (z1,) = self._fresh(1)
        (z2,) = self._fresh(1)
        left = CountTerm((z1,), and_(Atom(EDGE, (y, z1)), self.role_e(z1)))
        right = CountTerm((z2,), and_(Atom(EDGE, (xp, z2)), self.role_b(z2)))
        return Exists(y, conj([Atom(EDGE, (x, y)), self.role_d(y),
                               PredApp("eq", (left, right))]))


def _names_in(phi: Formula) -> set[str]:
    out: set[str] = set()
    for node in walk(phi):
        match node:
            case Atom(_, args):
                out.update(args)
            case Eq(a, b):
                out.update((a, b))
            case Exists(v, _):
                out.add(v)
            case CountTerm(vs, _):
                out.update(vs)
    return out


def _check_edge_only(phi: Formula) -> None:
    for node in walk(phi):
        match node:
            case Atom(rel, args):
                if rel != EDGE or len(args) != 2:
                    raise InputError(
                        f"expected formulas over E only, found {render(node)}")
            case PredApp() | CountTerm():
                raise InputError("expected a plain first-order sentence")


def _relativize(phi: Formula, edge: Callable[[str, str], Formula],
                 vertex: Callable[[str], Formula]) -> Formula:
    """phi with every edge atom E(x, y) replaced by edge(x, y) and every
    quantifier over v relativized to vertex(v)."""

    def go(node: Formula) -> Formula:
        match node:
            case Truth() | Falsity() | Eq():
                return node
            case Atom(_, (x, y)):
                return edge(x, y)
            case Not(sub):
                return Not(go(sub))
            case Or(a, b):
                return Or(go(a), go(b))
            case Exists(v, sub):
                return Exists(v, and_(vertex(v), go(sub)))
            case _:
                raise InputError(f"unsupported construct: {render(node)}")

    return go(phi)


def rewrite_tree_formula(phi: Formula) -> Formula:
    """Sentence over the tree encoding equivalent to phi over the graph:
    quantifiers relativized to a-nodes, edges tested by count comparison."""
    _check_edge_only(phi)
    forms = _TreeFormulas(_names_in(phi))
    return _relativize(phi, forms.edge, forms.role_a)


# -- string encoding -------------------------------------------------------

LE, PA, PB, PC = "le", "Pa", "Pb", "Pc"


def encode_string(graph: Structure) -> Structure:
    """Concatenation of per-vertex blocks "a c^i (b c^j)*" over a linear
    order with letter predicates."""
    adj = _graph_adjacency(graph)
    index = _indexing(graph)
    letters: list[str] = []
    for v in graph.universe:
        i = index[v]
        letters.append("a")
        letters.extend("c" * i)
        for w in adj[v]:
            letters.append("b")
            letters.extend("c" * index[w])
    width = len(str(len(letters) - 1))
    names = [f"p{k:0{width}d}" for k in range(len(letters))]
    rels: dict[str, list[tuple[str, ...]]] = {
        LE: [(names[i], names[j]) for i in range(len(names))
             for j in range(i, len(names))],
        PA: [(p,) for p, l in zip(names, letters) if l == "a"],
        PB: [(p,) for p, l in zip(names, letters) if l == "b"],
        PC: [(p,) for p, l in zip(names, letters) if l == "c"],
    }
    sig = Signature.of({LE: 2, PA: 1, PB: 1, PC: 1})
    return Structure(sig, names, rels)


def decode_string(s: Structure) -> str:
    """Read the letter sequence back (universe order equals the order)."""
    out = []
    for p in s.universe:
        for letter, rel in (("a", PA), ("b", PB), ("c", PC)):
            if (p,) in s.relations[rel]:
                out.append(letter)
                break
        else:
            raise InputError(f"position {p} carries no letter")
    return "".join(out)


class _StringFormulas:
    def __init__(self, avoid: set[str]):
        self._avoid = set(avoid)
        self._counter = 0

    def _fresh(self) -> str:
        while True:
            self._counter += 1
            cand = f"u{self._counter}"
            if cand not in self._avoid:
                return cand

    def lt(self, x: str, y: str) -> Formula:
        return and_(Atom(LE, (x, y)), Not(Eq(x, y)))

    def in_segment(self, x: str, y: str) -> Formula:
        """y lies after x but before the next a-position."""
        w = self._fresh()
        return and_(self.lt(x, y),
                    Not(Exists(w, conj([Atom(PA, (w,)), self.lt(x, w),
                                        Atom(LE, (w, y))]))))

    def run_after(self, x: str) -> CountTerm:
        """Length of the c-run immediately following position x."""
        z = self._fresh()
        w = self._fresh()
        inside = forall(w, implies(and_(self.lt(x, w), Atom(LE, (w, z))),
                                   Atom(PC, (w,))))
        return CountTerm((z,), conj([Atom(PC, (z,)), self.lt(x, z), inside]))

    def edge(self, x: str, xp: str) -> Formula:
        y = self._fresh()
        return Exists(y, conj([
            Atom(PB, (y,)),
            self.in_segment(x, y),
            PredApp("eq", (self.run_after(y), self.run_after(xp))),
        ]))


def rewrite_string_formula(phi: Formula) -> Formula:
    """Sentence over the string encoding equivalent to phi over the graph:
    quantifiers relativized to a-positions, edges tested by comparing
    b-run lengths with the target vertex's index run."""
    _check_edge_only(phi)
    forms = _StringFormulas(_names_in(phi))
    return _relativize(phi, forms.edge, lambda v: Atom(PA, (v,)))
