"""Finite relational structures, Gaifman graphs, balls and distance patterns.

Element identifiers are opaque strings; every ordering used for deterministic
output is lexicographic over identifiers.  Distances are non-negative
integers, read off balls: an element outside every ball around another is
at no finite distance from it.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import InputError


class cached:
    """A property computed on first read and stored in the instance's
    `__dict__`, where later reads find it without calling the descriptor.
    functools.cached_property does the same, but on Python 3.11 it takes a
    lock on every first read, which more than doubles that read's cost.
    Works on frozen dataclasses, whose `__setattr__` it bypasses."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


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


class Structure:
    """A finite structure: universe plus one relation per signature symbol.

    Relations are stored as frozensets of element tuples.  A 0-ary relation is
    either empty (false) or the singleton {()} (true).  The one GaifmanGraph
    that gaifman_graph returns for the structure (with its adjacency and
    its integer view, which the engine's pair counts read) is cached
    lazily.  A structure built from this one by expand with relations of
    arity at most one has the same Gaifman graph and reads this one's; any
    other derived structure starts with an empty cache.
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
        self._graph: GaifmanGraph | None = None
        # the structure whose Gaifman graph this one reads, None for its own
        self._graph_of: Structure | None = None

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

    def check_element(self, e: str) -> str:
        if e not in self._uset:
            raise InputError(f"element {e!r} not in universe")
        return e

    def ball(self, centre: str, r: int) -> frozenset[str]:
        """The elements within r of `centre` in the Gaifman graph."""
        return frozenset(gaifman_graph(self).ball(self.check_element(centre),
                                                  r))

    # -- derived structures ----------------------------------------------

    def induced(self, elements: Iterable[str]) -> "Structure":
        """Substructure induced on a subset of the universe."""
        keep = frozenset(elements)
        for e in keep:
            self.check_element(e)
        if not keep:
            raise InputError("induced substructure needs a non-empty element set")
        rels = {name: [t for t in tuples if all(e in keep for e in t)]
                for name, tuples in self.relations.items()}
        return Structure(self.signature, keep, rels)

    def expand(self, extra: Mapping[str, tuple[int, Iterable[Sequence[str]]]]) -> "Structure":
        """Add new relations (name -> (arity, tuples)) over the same universe."""
        sig = self.signature.extend((name, arity) for name, (arity, _) in extra.items())
        rels = dict(self.relations)
        for name, (_, tuples) in extra.items():
            rels[name] = tuples
        out = Structure(sig, self.universe, rels)
        if all(arity <= 1 for arity, _ in extra.values()):
            # such relations join no two elements: the graph is this one's
            out._graph_of = self if self._graph_of is None else self._graph_of
        return out


def gaifman_graph(structure: Structure) -> "GaifmanGraph":
    """The structure's Gaifman graph, built once and cached on it, or on
    the structure it was expanded from by relations of arity at most one
    (Structure.expand): such expansions, like the layers of an evaluation,
    share one graph and so every cover and game built on it."""
    owner = structure._graph_of or structure
    if owner._graph is None:
        adj: dict[str, set[str]] = {e: set() for e in owner.universe}
        for tuples in owner.relations.values():
            for t in tuples:
                distinct = tuple(dict.fromkeys(t))
                for i, u in enumerate(distinct):
                    for v in distinct[i + 1:]:
                        adj[u].add(v)
                        adj[v].add(u)
        owner._graph = GaifmanGraph(
            owner.universe, {e: frozenset(s) for e, s in adj.items()})
    return owner._graph


@dataclass(frozen=True)
class GaifmanGraph:
    """Undirected graph on element identifiers.  The name view is `adj`,
    and `ball` over it, the one search on names: the r-neighbourhood of an
    element or of a set, with each vertex's distance.  Besides it the graph
    has an integer view, built lazily once: `index` maps a name to its
    position in `vertices`, and `nbrs` holds per position the positions of
    its neighbours.  `vertex_set` and `by_degree` are built lazily once
    too, and so is `derived`: the neighbourhood cover and the splitter game
    that `covers` derives from the graph at a radius, each built on its
    first use and read by every later one, for as long as the graph
    lives."""

    vertices: tuple[str, ...]
    adj: Mapping[str, frozenset[str]]

    @cached
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @cached
    def by_degree(self) -> tuple[str, ...]:
        """The vertices, highest degree first."""
        adj = self.adj
        return tuple(sorted(self.vertices, key=lambda v: -len(adj[v])))

    @cached
    def derived(self) -> dict:
        """(kind, radius) -> what covers built from the graph at that
        radius."""
        return {}

    @cached
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached
    def nbrs(self) -> tuple[tuple[int, ...], ...]:
        index = self.index
        return tuple(tuple(index[u] for u in self.adj[v])
                     for v in self.vertices)

    def ball(self, centre: str | Iterable[str], r: int,
             allowed: frozenset[str] | None = None) -> dict[str, int]:
        """Vertex -> distance from `centre`, one name or a collection of
        names, for the vertices within r of it inside `allowed`: one
        breadth-first search from every centre at once, a level per round,
        which stops at its first empty level.  A centre outside `allowed`
        is left out, and r < 0 reaches nothing."""
        if r < 0:
            return {}
        if isinstance(centre, str):  # one name, never its characters
            seen = {centre: 0} if allowed is None or centre in allowed else {}
        else:
            seen = dict.fromkeys(centre if allowed is None
                                 else [c for c in centre if c in allowed], 0)
        adj, frontier, level = self.adj, [*seen], 0
        while frontier and level < r:
            level += 1
            reached = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen and (allowed is None or v in allowed):
                        seen[v] = level
                        reached.append(v)
            frontier = reached
        return seen


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

    @lru_cache(maxsize=None)
    def components(self) -> tuple[frozenset[int], ...]:
        """The position sets of the connected components, by least
        position, each the spanning tree of its least position; computed
        once per pattern."""
        left = set(range(1, self.k + 1))
        comps = []
        while left:
            comp = frozenset(p for p, _ in self.spanning_tree(min(left)))
            comps.append(comp)
            left -= comp
        return tuple(comps)

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


@lru_cache(maxsize=None)
def all_patterns(k: int) -> tuple[PatternGraph, ...]:
    """Every pattern graph on positions 1..k, deterministically ordered."""
    pairs = [(i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    out = []
    for mask in range(1 << len(pairs)):
        edges = frozenset(p for b, p in enumerate(pairs) if mask >> b & 1)
        out.append(PatternGraph(k, edges))
    return tuple(sorted(out, key=lambda g: (len(g.edges), sorted(g.edges))))


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

