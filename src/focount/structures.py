"""Finite relational structures, Gaifman graphs, balls and distance patterns.

Element identifiers are opaque strings; every ordering used for deterministic
output is lexicographic over identifiers.  Distances are non-negative integers
or the distinguished value INFINITY (which compares greater than any int).
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import InputError

INFINITY = math.inf


@dataclass(frozen=True)
class Signature:
    """An ordered list of relation symbols with arities."""

    relations: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.relations]
        if len(names) != len(set(names)):
            raise InputError("duplicate relation symbol in signature")
        for name, arity in self.relations:
            if arity < 0:
                raise InputError(f"negative arity for {name!r}")
        object.__setattr__(self, "_arity", dict(self.relations))

    @staticmethod
    def of(mapping: Mapping[str, int] | Iterable[tuple[str, int]]) -> "Signature":
        items = mapping.items() if isinstance(mapping, Mapping) else mapping
        return Signature(tuple((str(k), int(v)) for k, v in items))

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.relations)

    def has(self, name: str) -> bool:
        return name in self._arity

    def arity(self, name: str) -> int:
        try:
            return self._arity[name]
        except KeyError:
            raise InputError(f"unknown relation symbol {name!r}") from None

    def extend(self, extra: Iterable[tuple[str, int]]) -> "Signature":
        extra = tuple(extra)
        for name, _ in extra:
            if self.has(name):
                raise InputError(f"relation symbol {name!r} already present")
        return Signature(self.relations + extra)

    def restrict(self, names: Iterable[str]) -> "Signature":
        wanted = set(names)
        missing = wanted - set(self.names())
        if missing:
            raise InputError(f"cannot restrict to unknown symbols {sorted(missing)}")
        return Signature(tuple(p for p in self.relations if p[0] in wanted))


class Structure:
    """A finite structure: universe plus one relation per signature symbol.

    Relations are stored as frozensets of element tuples.  A 0-ary relation is
    either empty (false) or the singleton {()} (true).  Gaifman adjacency,
    per-element tuple indexes and full-BFS distance maps are cached lazily.
    """

    def __init__(self, signature: Signature,
                 universe: Iterable[str],
                 relations: Mapping[str, Iterable[Sequence[str]]]):
        self.signature = signature
        self.universe: tuple[str, ...] = tuple(sorted(set(map(str, universe))))
        if not self.universe:
            raise InputError("universe must be non-empty")
        self._uset = frozenset(self.universe)
        rels: dict[str, frozenset[tuple[str, ...]]] = {}
        for name, arity in signature.relations:
            tuples = frozenset(tuple(map(str, t)) for t in relations.get(name, ()))
            for t in tuples:
                if len(t) != arity:
                    raise InputError(
                        f"tuple {t} in {name!r} has length {len(t)}, expected {arity}")
                for e in t:
                    if e not in self._uset:
                        raise InputError(f"element {e!r} in {name!r} not in universe")
            rels[name] = tuples
        unknown = set(relations) - set(signature.names())
        if unknown:
            raise InputError(f"relations not in signature: {sorted(unknown)}")
        self.relations = rels
        self._adj: dict[str, frozenset[str]] | None = None
        self._tuple_index: dict[str, list[tuple[str, tuple[str, ...]]]] | None = None
        self._dist_maps: dict[str, dict[str, int]] = {}

    # -- equality ignores caches ------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Structure)
                and self.signature == other.signature
                and self.universe == other.universe
                and self.relations == other.relations)

    __hash__ = None  # mutable caches; structures are not hashable

    def __repr__(self):
        counts = {k: len(v) for k, v in sorted(self.relations.items())}
        return f"Structure(|A|={len(self.universe)}, {counts})"

    @property
    def size(self) -> int:
        """Number of elements plus total length of all stored tuples."""
        return len(self.universe) + sum(
            len(t) for ts in self.relations.values() for t in ts)

    def check_element(self, e: str) -> str:
        if e not in self._uset:
            raise InputError(f"element {e!r} not in universe")
        return e

    # -- Gaifman graph ----------------------------------------------------

    def adjacency(self) -> dict[str, frozenset[str]]:
        if self._adj is None:
            adj: dict[str, set[str]] = {e: set() for e in self.universe}
            for tuples in self.relations.values():
                for t in tuples:
                    distinct = tuple(dict.fromkeys(t))
                    for i, u in enumerate(distinct):
                        for v in distinct[i + 1:]:
                            adj[u].add(v)
                            adj[v].add(u)
            self._adj = {e: frozenset(s) for e, s in adj.items()}
        return self._adj

    def tuple_index(self) -> dict[str, list[tuple[str, tuple[str, ...]]]]:
        """Map each element to the (relation, tuple) pairs mentioning it."""
        if self._tuple_index is None:
            index: dict[str, list[tuple[str, tuple[str, ...]]]] = {
                e: [] for e in self.universe}
            for name in self.signature.names():
                for t in self.relations[name]:
                    for e in set(t):
                        index[e].append((name, t))
            self._tuple_index = index
        return self._tuple_index

    # -- distances --------------------------------------------------------

    def _bfs_from(self, source: str) -> dict[str, int]:
        adj = self.adjacency()
        seen = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            du = seen[u]
            for v in adj[u]:
                if v not in seen:
                    seen[v] = du + 1
                    queue.append(v)
        return seen

    def dist(self, a: str | Sequence[str], b: str | Sequence[str]):
        """Distance in the Gaifman graph; tuples take the minimum over entries."""
        avs = (a,) if isinstance(a, str) else tuple(a)
        bvs = (b,) if isinstance(b, str) else tuple(b)
        for e in avs + bvs:
            self.check_element(e)
        best = INFINITY
        for u in avs:
            dmap = self._dist_maps.get(u)
            if dmap is None:
                dmap = self._bfs_from(u)
                self._dist_maps[u] = dmap
            for v in bvs:
                d = dmap.get(v, INFINITY)
                if d < best:
                    best = d
        return best

    def ball_with_dist(self, centre: str | Sequence[str], r: int) -> dict[str, int]:
        """BFS truncated at depth r; returns element -> distance (<= r)."""
        sources = (centre,) if isinstance(centre, str) else tuple(centre)
        adj = self.adjacency()
        seen = {self.check_element(s): 0 for s in sources}
        queue = deque(seen)
        while queue:
            u = queue.popleft()
            du = seen[u]
            if du == r:
                continue
            for v in adj[u]:
                if v not in seen:
                    seen[v] = du + 1
                    queue.append(v)
        return seen

    def ball(self, centre: str | Sequence[str], r: int) -> frozenset[str]:
        return frozenset(self.ball_with_dist(centre, r))

    # -- derived structures ----------------------------------------------

    def induced(self, elements: Iterable[str]) -> "Structure":
        """Substructure induced on a subset of the universe."""
        keep = frozenset(elements)
        for e in keep:
            self.check_element(e)
        if not keep:
            raise InputError("induced substructure needs a non-empty element set")
        if len(keep) > len(self.universe) // 2:
            rels = {name: [t for t in tuples if all(e in keep for e in t)]
                    for name, tuples in self.relations.items()}
        else:
            # walk only tuples that mention a kept element
            index = self.tuple_index()
            rels = {name: set() for name in self.signature.names()}
            for e in keep:
                for name, t in index[e]:
                    if all(x in keep for x in t):
                        rels[name].add(t)
            for name, arity in self.signature.relations:
                if arity == 0:
                    rels[name] = self.relations[name]
        return Structure(self.signature, keep, rels)

    def neighborhood(self, centre: str | Sequence[str], r: int) -> "Structure":
        """Induced substructure on the r-ball around `centre`."""
        return self.induced(self.ball(centre, r))

    def expand(self, extra: Mapping[str, tuple[int, Iterable[Sequence[str]]]]) -> "Structure":
        """Add new relations (name -> (arity, tuples)) over the same universe."""
        sig = self.signature.extend((name, arity) for name, (arity, _) in extra.items())
        rels = dict(self.relations)
        for name, (_, tuples) in extra.items():
            rels[name] = tuples
        return Structure(sig, self.universe, rels)

    def reduct(self, names: Iterable[str]) -> "Structure":
        sig = self.signature.restrict(names)
        return Structure(sig, self.universe,
                         {n: self.relations[n] for n in sig.names()})


def gaifman_graph(structure: Structure) -> "GaifmanGraph":
    return GaifmanGraph(structure.universe, structure.adjacency())


@dataclass(frozen=True)
class GaifmanGraph:
    """Undirected graph on element identifiers."""

    vertices: tuple[str, ...]
    adj: Mapping[str, frozenset[str]]

    def neighbors(self, v: str) -> frozenset[str]:
        return self.adj[v]

    def degree(self, v: str) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[str, str]]:
        out = []
        for u in self.vertices:
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        return sorted(out)

    def ball(self, centre: str, r: int,
             allowed: frozenset[str] | None = None) -> dict[str, int]:
        if allowed is not None and centre not in allowed:
            return {}
        seen = {centre: 0}
        queue = deque([centre])
        while queue:
            u = queue.popleft()
            du = seen[u]
            if du == r:
                continue
            for v in self.adj[u]:
                if v not in seen and (allowed is None or v in allowed):
                    seen[v] = du + 1
                    queue.append(v)
        return seen

    def subgraph(self, keep: Iterable[str]) -> "GaifmanGraph":
        keep = frozenset(keep)
        return GaifmanGraph(tuple(sorted(keep)),
                            {v: self.adj[v] & keep for v in keep})

    def components(self) -> list[frozenset[str]]:
        left = set(self.vertices)
        out = []
        while left:
            start = min(left)
            comp = set(self.ball(start, len(self.vertices)))
            out.append(frozenset(comp))
            left -= comp
        return sorted(out, key=min)

    def is_connected(self) -> bool:
        return len(self.components()) <= 1


# -- distance patterns ----------------------------------------------------


@dataclass(frozen=True)
class PatternGraph:
    """A graph on positions 1..k recording which tuple entries are close.

    Edges are stored as (i, j) pairs with i < j, 1-based.
    """

    k: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for i, j in self.edges:
            if not (1 <= i < j <= self.k):
                raise InputError(f"bad pattern edge ({i},{j}) for k={self.k}")

    @staticmethod
    def of(k: int, edges: Iterable[tuple[int, int]]) -> "PatternGraph":
        norm = frozenset((min(i, j), max(i, j)) for i, j in edges)
        return PatternGraph(k, norm)

    def has_edge(self, i: int, j: int) -> bool:
        if i == j:
            return False
        return (min(i, j), max(i, j)) in self.edges

    def neighbors(self, i: int) -> frozenset[int]:
        return frozenset(j for j in range(1, self.k + 1) if self.has_edge(i, j))

    def components(self) -> tuple[frozenset[int], ...]:
        left = set(range(1, self.k + 1))
        comps = []
        while left:
            start = min(left)
            comp = {start}
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for v in self.neighbors(u):
                    if v not in comp:
                        comp.add(v)
                        queue.append(v)
            comps.append(frozenset(comp))
            left -= comp
        return tuple(sorted(comps, key=min))

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def spanning_tree(self, root: int) -> tuple[tuple[int, int | None], ...]:
        """(position, tree parent) pairs of root's component in BFS order;
        the root comes first, with parent None."""
        order: list[tuple[int, int | None]] = [(root, None)]
        seen = {root}
        for p, _ in order:
            for q in sorted(self.neighbors(p)):
                if q not in seen:
                    seen.add(q)
                    order.append((q, p))
        return tuple(order)

    def induced(self, positions: Sequence[int]) -> "PatternGraph":
        """Pattern on the selected positions, renumbered 1..len in given order."""
        pos = list(positions)
        remap = {p: i + 1 for i, p in enumerate(pos)}
        edges = [(remap[i], remap[j]) for (i, j) in self.edges
                 if i in remap and j in remap]
        return PatternGraph.of(len(pos), edges)

    def relabel(self, perm: Mapping[int, int]) -> "PatternGraph":
        return PatternGraph.of(self.k, ((perm[i], perm[j]) for i, j in self.edges))


@lru_cache(maxsize=None)
def all_patterns(k: int) -> tuple[PatternGraph, ...]:
    """Every pattern graph on positions 1..k, deterministically ordered."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    out = []
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for b, p in enumerate(pairs) if mask >> b & 1)
        out.append(PatternGraph(k, edges))
    return tuple(sorted(out, key=lambda g: (len(g.edges), sorted(g.edges))))


def pattern_graph(structure: Structure, elements: Sequence[str], r: int) -> PatternGraph:
    """Pattern of a tuple: edge {i,j} iff i != j and dist(a_i, a_j) <= r."""
    elems = [structure.check_element(e) for e in elements]
    k = len(elems)
    balls = {}
    edges = set()
    for i in range(k):
        for j in range(i + 1, k):
            a, b = elems[i], elems[j]
            if a == b:
                edges.add((i + 1, j + 1))
                continue
            if a not in balls:
                balls[a] = structure.ball(a, r)
            if b in balls[a]:
                edges.add((i + 1, j + 1))
    return PatternGraph.of(k, edges)


# -- combination operators -------------------------------------------------


def disjoint_union(a: Structure, b: Structure) -> Structure:
    """Union with universes kept apart by 'L:'/'R:' prefixes."""
    if a.signature != b.signature:
        raise InputError("disjoint union needs identical signatures")
    universe = [f"L:{e}" for e in a.universe] + [f"R:{e}" for e in b.universe]
    rels: dict[str, set[tuple[str, ...]]] = {}
    for name, _arity in a.signature.relations:
        tuples: set[tuple[str, ...]] = set()
        for t in a.relations[name]:
            tuples.add(tuple(f"L:{e}" for e in t))
        for t in b.relations[name]:
            tuples.add(tuple(f"R:{e}" for e in t))
        rels[name] = tuples
    return Structure(a.signature, universe, rels)


# -- JSON ------------------------------------------------------------------


def structure_to_json(structure: Structure) -> dict:
    return {
        "universe": list(structure.universe),
        "relations": {
            name: {
                "arity": structure.signature.arity(name),
                "tuples": sorted([list(t) for t in structure.relations[name]]),
            }
            for name in structure.signature.names()
        },
    }


def _loads(data):
    if isinstance(data, (str, bytes)):
        try:
            return json.loads(data)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
    return data


def _arity(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InputError(f"arity of {name!r} must be a non-negative integer, "
                         f"got {value!r}")
    return value


def _elements(values: list, where: str) -> None:
    for e in values:
        if isinstance(e, bool) or not isinstance(e, (str, int)):
            raise InputError(f"{where} entry {e!r} must be a string or an "
                             f"integer")


def _tuples(name: str, tuples) -> list[tuple]:
    if not isinstance(tuples, list):
        raise InputError(f"tuples of {name!r} must be a list")
    for t in tuples:
        if not isinstance(t, list):
            raise InputError(f"tuple {t!r} of {name!r} must be a list")
        _elements(t, f"tuple of {name!r}")
    return [tuple(t) for t in tuples]


def signature_from_json(data) -> Signature:
    """A signature from a JSON object mapping relation names to arities."""
    data = _loads(data)
    if not isinstance(data, dict):
        raise InputError('a signature must be a JSON object of name -> '
                         'arity, e.g. {"E": 2}')
    return Signature.of((name, _arity(name, a)) for name, a in data.items())


def structure_from_json(data) -> Structure:
    data = _loads(data)
    if not isinstance(data, dict) or "universe" not in data:
        raise InputError("structure JSON needs a 'universe' key")
    universe = data["universe"]
    if not isinstance(universe, list):
        raise InputError("'universe' must be a list of strings or integers")
    _elements(universe, "universe")
    raw = data.get("relations", {})
    if not isinstance(raw, dict):
        raise InputError("'relations' must be an object")
    sig_items = []
    rels = {}
    for name, body in raw.items():
        if isinstance(body, dict):
            if "arity" not in body:
                raise InputError(f"relation {name!r} needs an 'arity'")
            arity = _arity(name, body["arity"])
            tuples = _tuples(name, body.get("tuples", []))
        elif isinstance(body, list):
            if not body:
                raise InputError(
                    f"relation {name!r} has no tuples to take its arity "
                    f'from; write {{"arity": k, "tuples": []}}')
            tuples = _tuples(name, body)
            arity = len(tuples[0])
        else:
            raise InputError(f"relation {name!r} must be an object or list")
        sig_items.append((name, arity))
        rels[name] = tuples
    return Structure(Signature.of(sig_items), universe, rels)

