"""Localized evaluation of basic cl-terms on sparse structures.

Anchored counts are computed cluster by cluster.  A structure whose Gaifman
graph is tame (at most cluster_direct_max vertices, or none with more than
hub_degree_threshold neighbours) is one cluster, counted directly inside
balls as on bounded degree.  Only a structure with a hub gets a
neighbourhood cover: each anchor's whole evaluation ball lies inside its
cluster, so per-cluster work, the removal recursion included, never leaves
the cluster.  The structure's one Gaifman graph serves the whole
evaluation: a cluster, and every removal position inside it, is a set of
its vertices, and balls, degrees and moves read the graph restricted to
that set, so a deletion keeps every adjacency between the other vertices,
whatever the arity of the tuple behind it.

Psi is read as one-variable factors plus a distance interval (lo, hi] on
each pattern edge: `dist(u, v) <= b` between the edge's positions lowers hi
from the threshold to b, its negation raises lo from -1 to b, and an empty
interval makes the term 0.  Each pattern position carries the set of
cluster elements satisfying its factors.  The factors are read once per
covered evaluation, over the whole structure itself, as element sets by
GuardedEvaluator.satisfying: a closed part is evaluated once, an atom on
the one variable is read off its relation, negation and disjunction are
complement and union, and an existential guarded by dist(w, v) <= b whose
other conjuncts read only w is the b-neighbourhood of their set, one
breadth-first search from all of it.  Only what is left (an unguarded
existential, a guarded body that also reads v, a disjunctive body, a
predicate application) is evaluated element by element, its guarded
existentials trying only their guards' balls.  So a factor reads only its
element's ball, and the engine copies no structure.  The clusters narrow
each set, and a one-variable condition does not change when other
elements are deleted.

Inside a cluster the engine either counts directly (small or low-degree
clusters) or repeatedly deletes a splitter vertex.  Deleting d splits the
count into pieces indexed by the positions pinned to d: pinned positions
need d in their sets and pairwise an edge whose interval holds 0, every
other position's set loses d and keeps the elements whose shortcut level to
d lies in the intervals of its edges to the pinned positions (beyond the
threshold without such edges), and the pieces are counted on the smaller
position.  Width-1 terms skip the cover at every size: psi is read as one
element set the same way, a unary term is its 0/1 indicator and a ground
one its size.

The deleted vertex is, at every size, the vertex of highest degree inside
the position, the first in name order among equals.  Any deleted vertex
keeps the count exact.  Every piece goes on in the whole position minus
that vertex, so a position is a function of the cluster and its depth:
each cluster keeps one chain of positions and their deletions, extended by
the first branch to delete at its end and read by every other.  The
splitter's exact reply would bound the depth only if the recursion went on
inside the pick's ball, so the engine plays no moves.  The splitter game
only sets the recursion budget: a structure of at most EXACT_GAME_CAP
vertices reads its game's exact value at twice the term's evaluation
radius, and a larger one gets RECURSION_CAP.  Every covered evaluation
asks covers for its cover and its game value, and covers builds each once
per Gaifman graph and radius, so a later evaluation at the same radius
pays a memo read for them.

Distances of the cluster are recovered exactly on a smaller position:
d_old(u, v) = min(d_new(u, v), min over removed c of s_c(u) + s_c(v)),
where s_c is the bounded distance-to-c map saved at the step that deleted
c.  A bound b <= threshold holds through a level when s_c(u) + s_c(v) <= b,
and an interval (lo, hi] holds the pairs within hi but not within lo.
Counting reads the graph's integer view (`index`, and `nbrs`, the neighbour
positions per vertex), and the chain keeps its state by vertex position,
built once per step: the current position lives in the search stamps
(`_Marks.seen`), where a vertex outside it holds a sentinel above every
stamp, and each level is a distance list per position with its rings and,
per bound t, the bit mask of the positions within t.  A search is
level-synchronous over `nbrs`, tests each edge once (`seen[v] < stamp`:
in the position and not yet reached), marks what it reaches with a fresh
stamp, stops at its first empty ring and builds no ball set.  Width-2
patterns are counted in one loop over the anchors: one search per anchor,
to the interval's hi, counts the candidates it reaches within lo and
within hi, so an interval costs one search.  A
candidate set is a stamped mark per position, and one that holds the whole
position is not tested at all.  The candidates within a bound through some
level are a popcount of the union of the active levels' masks with the
candidates' mask, memoised per tuple of active levels, which is what makes
hub-heavy structures (stars) near-linear instead of quadratic; those that
the search reaches too are subtracted in one pass over its hits.  Every
wider connected pattern is enumerated: its positions are placed in BFS
order from the anchor, each drawn from its tree parent's span, narrowed by
the spans of the other placed positions, and the last one is not placed but
counted, as the size of its pool.  A span is one search, its hits bucketed
by depth and lowered through the levels, and is kept in a table keyed by
its candidate set, interned by value as a small id, and its interval.  A
counter on a cluster that deleted nothing counts on the cluster itself, so
the engine gives every such counter on the cluster one table for all the
basic terms it counts on the Gaifman graph, and the terms of one wide count
search from each vertex once; a counter below a deletion keeps its own.
Every count is kept per element at the anchor position; a ground count is
their sum.

When psi has a conjunct that ties tuple variables other than through such a
distance atom (a relation atom on two positions, say), each member of the
cluster is counted by eval_basic_cl on the structure itself: always
correct, flagged in the stats on high-degree clusters.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Collection, Iterable, Sequence

from .cldecomp import (BasicClTerm, GuardedEvaluator, cl_decompose,
                       cross_extensions, default_engine, eval_basic_cl,
                       eval_decomposition)
from .covers import (EXACT_GAME_CAP, build_cover, solve_splitter,
                     validate_cover)
from .errors import InputError
from .logic import (DistAtom, Formula, Not, Registry, default_registry,
                    flatten_conj, free_vars)
# unused here; kept importable because perfbench's tracer patches them by name
from .covers import splitter_move  # noqa: F401
from .removal import removal_ground_term, removal_unary_term  # noqa: F401
from .structures import GaifmanGraph, PatternGraph, Structure, gaifman_graph

_INF = 10 ** 9
# _Marks.seen of a vertex outside the current position: above every stamp,
# and the largest int that Python 3.11 compares on its one-digit fast path
_OUT = (1 << 30) - 1
# the recursion budget on structures too large to solve the game exactly
RECURSION_CAP = 16


@dataclass
class EvalConfig:
    """Knobs for the localized engine.  The middle two say which vertex
    sets are tame (_Localizer._next_deletion): a tame structure is one
    cluster and builds no cover, and a tame cluster or removal position is
    counted with no further deletion.  cross_check checks every cover with
    validate_cover and every value against direct counting, raising
    RuntimeError on a difference."""

    brute_force_threshold: int = 32
    cluster_direct_max: int = 32
    hub_degree_threshold: int = 16
    cross_check: bool = False


@dataclass
class RunStats:
    """Counters accumulated over an engine's calls.  A hub-free structure
    counts as one direct cluster; a structure with a hub counts each cluster
    of its cover.  removal_steps counts the positions each cluster's chain
    deletes from, once however many branches read them; max_depth is the
    longest chain.  cover_weight sums the total weight of the covers built.
    fallbacks maps each reason for direct counting to the number of times
    it was flagged."""

    clusters: int = 0
    direct_clusters: int = 0
    removal_clusters: int = 0
    removal_steps: int = 0
    max_depth: int = 0
    depth_histogram: dict[int, int] = field(default_factory=dict)
    fallbacks: dict[str, int] = field(default_factory=dict)
    depth_bound_checks: int = 0
    cover_weight: int = 0

    def note_cluster(self, depth: int) -> None:
        self.depth_histogram[depth] = self.depth_histogram.get(depth, 0) + 1
        self.max_depth = max(self.max_depth, depth)

    def flag(self, msg: str) -> None:
        self.fallbacks[msg] = self.fallbacks.get(msg, 0) + 1

    def to_json(self) -> dict:
        return {
            "clusters": self.clusters,
            "direct_clusters": self.direct_clusters,
            "removal_clusters": self.removal_clusters,
            "removal_steps": self.removal_steps,
            "max_depth": self.max_depth,
            "depth_histogram": {str(k): v for k, v in
                                sorted(self.depth_histogram.items())},
            "fallbacks": dict(sorted(self.fallbacks.items())),
            "depth_bound_checks": self.depth_bound_checks,
            "cover_weight": self.cover_weight,
        }


@dataclass(frozen=True)
class _State:
    """A removal position: the cluster's vertices not yet deleted, read as
    the structure's Gaifman graph restricted to them, plus the level of
    each deleted vertex."""

    alive: frozenset[str]
    levels: tuple[_Level, ...]


def _split_factors(term: BasicClTerm):
    """Psi read as per-position factors plus distance bounds on pattern
    edges: per-position lists of the single-variable conjuncts, the closed
    conjuncts, and a map from each edge (i, j), i < j, that psi bounds to
    its interval (lo, hi].  A tuple realizes the edge when lo < dist <= hi
    in the original metric; an edge absent from the map has the pattern's
    own interval (-1, threshold].  `dist(u, v) <= b` on an edge lowers hi to
    b and its negation raises lo to b; when lo >= hi the term counts 0.
    None when some other conjunct ties several tuple variables together."""
    pos_of = {v: i + 1 for i, v in enumerate(term.vars)}
    factors: dict[int, list[Formula]] = {i + 1: [] for i in range(term.k)}
    closed: list[Formula] = []
    bounds: dict[tuple[int, int], tuple[int, int]] = {}
    for part in flatten_conj(term.psi):
        owners = {pos_of[v] for v in free_vars(part)}
        if len(owners) > 1:
            negated = isinstance(part, Not)
            atom = part.sub if negated else part
            edge = (min(owners), max(owners))
            if not (isinstance(atom, DistAtom)
                    and term.pattern.has_edge(*edge)):
                return None
            lo, hi = bounds.get(edge, (-1, term.threshold))
            if negated:
                lo = max(lo, atom.bound)
            else:
                hi = min(hi, atom.bound)
            bounds[edge] = (lo, hi)
        elif owners:
            factors[owners.pop()].append(part)
        else:
            closed.append(part)
    return factors, closed, bounds


def _interval(bounds, theta: int, i: int, j: int) -> tuple[int, int]:
    return bounds.get((min(i, j), max(i, j)), (-1, theta))


def _sub_bounds(bounds, positions: Sequence[int]):
    """`bounds` on the pattern induced by `positions`, renumbered 1.. in
    their order, each key (i, j) with i < j."""
    remap = {p: new for new, p in enumerate(positions, 1)}
    return {tuple(sorted((remap[i], remap[j]))): iv
            for (i, j), iv in bounds.items() if i in remap and j in remap}


class _Localizer:
    """Engine instance: accumulates RunStats across calls, and keeps the
    span tables of the Gaifman graph it last counted on until it counts on
    another (_MetricCounter)."""

    def __init__(self, cfg: EvalConfig | None = None,
                 registry: Registry | None = None):
        self.cfg = cfg or EvalConfig()
        self.registry = registry or default_registry()
        self.stats = RunStats()
        # per cluster of one Gaifman graph, the tables of _MetricCounter
        # that every counter on it that deleted nothing shares
        self._span_graph: GaifmanGraph | None = None
        self._span_tables: dict[frozenset[str], tuple[dict, dict]] = {}

    def __call__(self, structure: Structure, term: BasicClTerm):
        """The term's value per element when unary, its total when ground.
        A width-1 term is read at every size from the set of elements
        satisfying psi (GuardedEvaluator.satisfying): a unary one is that
        set's 0/1 indicator, a ground one its size.  Wider terms on small
        structures are counted directly by eval_basic_cl, which cross_check
        also compares the width-1 values with."""
        term.check_local()
        if term.k == 1:
            holds = GuardedEvaluator(structure, self.registry).satisfying(
                term.psi, term.vars[0])
            value = ({a: int(a in holds) for a in structure.universe}
                     if term.unary else len(holds))
            if self.cfg.cross_check and value != default_engine(
                    structure, term, self.registry):
                raise RuntimeError("width-1 values diverge from direct "
                                   "counting")
            return value
        if len(structure.universe) < self.cfg.brute_force_threshold:
            return default_engine(structure, term, self.registry)
        if term.unary:
            return self._covered_values(structure, term)
        anchored = replace(term, unary=True)
        return sum(self._covered_values(structure, anchored).values())

    # -- cover loop --------------------------------------------------------

    def _covered_values(self, structure: Structure,
                        term: BasicClTerm) -> dict[str, int]:
        self._structure = structure
        self._ev = GuardedEvaluator(structure, self.registry)
        # a finite distance among n vertices is below n, so every bound past
        # n is read as n: the answers stay, and no level or search grows
        # with the bound
        n = len(structure.universe)
        self._theta = min(term.threshold, n)
        # None when psi does not split, else the _candidates sets and the
        # edge bounds
        factored = None
        split = _split_factors(term)
        if split is not None:
            factors, closed, bounds = split
            bounds = {edge: (min(lo, n), min(hi, n))
                      for edge, (lo, hi) in bounds.items()}
            if not all(self._ev.evaluate(c) for c in closed) or any(
                    lo >= hi for lo, hi in bounds.values()):
                return {a: 0 for a in structure.universe}
            factored = self._candidates(term, factors), bounds
        radius = term.eval_radius
        # one graph for every cluster and removal position
        self._graph = graph = gaifman_graph(structure)
        if graph is not self._span_graph:
            self._span_graph, self._span_tables = graph, {}
        self._marks = _Marks(graph)
        self._game_radius = 2 * radius
        everything = graph.vertex_set
        if self._next_deletion(everything) is None:
            # counted with no removal step, so the whole graph is the one
            # cluster: its metric is the true one, no ball can leave it
            clusters = [(everything, graph.vertices)]
        else:
            cover = build_cover(structure, radius)
            self.stats.cover_weight += cover.total_weight()
            if self.cfg.cross_check:
                report = validate_cover(structure, cover)
                if not report.ok:
                    raise RuntimeError(f"invalid cover: {report.problems}")
            clusters = [(cluster, cover.members(cid))
                        for cid, cluster in enumerate(cover.clusters)]
        self._depth_cap, bound = self._budget()
        out: dict[str, int] = {}
        for cluster, members in clusters:
            out.update(self._cluster(cluster, term, factored, members, bound))
        return out

    def _budget(self):
        """The depth at which the removal recursion stops deleting, and the
        game value its depth is checked against.  A structure of at most
        EXACT_GAME_CAP vertices reads its exact value at the term's game
        radius, from the graph's one game (solve_splitter solves it on the
        first call and reads it after): the cap is the value minus one, so
        the check holds by construction.  A larger structure gets
        RECURSION_CAP and no check.
        The game value caps the chain's length but does not steer it: each
        step deletes _next_deletion of the whole position, not the
        splitter's reply in a pick's ball, until the position is tame."""
        vertices = self._graph.vertices
        if len(vertices) <= EXACT_GAME_CAP:
            gv = solve_splitter(self._graph, self._game_radius,
                                round_cap=len(vertices) + 1)
            return max(gv.value - 1, 0), gv.value
        return RECURSION_CAP, None

    def _cluster(self, cluster: frozenset[str], term: BasicClTerm, factored,
                 members: Sequence[str],
                 bound_known: int | None) -> dict[str, int]:
        self.stats.clusters += 1
        self._chain = [(_State(cluster, ()), self._next_deletion(cluster))]
        if factored is None:
            if self._chain[0][1] is not None:
                self.stats.flag("unfactorized condition on a high-degree "
                                "cluster: direct counting")
            values = {a: eval_basic_cl(self._structure, term, a,
                                       self.registry) for a in members}
        else:
            cands, bounds = factored
            usets = {pos: cands[pos] & cluster if pos in cands else cluster
                     for pos in range(1, term.k + 1)}
            if len(members) < len(cluster):
                usets[1] &= frozenset(members)
            self._marks.enter(cluster)
            self._counter = None
            # every anchor that counts is a member
            values = dict.fromkeys(members, 0)
            values.update(self._count(0, term.pattern, bounds, usets))
        depth = len(self._chain) - 1
        if factored is not None and bound_known is not None:
            self.stats.depth_bound_checks += 1
            if depth > max(bound_known - 1, 0):
                raise RuntimeError(f"removal depth {depth} exceeded the "
                                   f"exact game value {bound_known}")
        if self.cfg.cross_check:
            direct = {a: eval_basic_cl(self._structure, term, a,
                                       self.registry) for a in members}
            if direct != values:
                raise RuntimeError(
                    "localized cluster values diverge from direct counting: "
                    f"{values} vs {direct}")
        if depth > 0:
            self.stats.removal_clusters += 1
        else:
            self.stats.direct_clusters += 1
        self.stats.note_cluster(depth)
        return values

    def _candidates(self, term: BasicClTerm,
                    factors: dict[int, list[Formula]]):
        """Per position with factors, the elements of the structure
        satisfying them: the intersection of each factor's set from
        GuardedEvaluator.satisfying, which reads atoms, boolean combinations
        and guarded existentials as element sets and evaluates any other
        factor element by element.  A factor reads only its element's ball,
        so one set over the structure serves every cluster, and whether an
        element satisfies it survives every deletion.  A position without
        factors has no set: its clusters take all their elements
        unevaluated."""
        usets = {}
        for pos, fs in factors.items():
            if fs:
                var = term.vars[pos - 1]
                usets[pos] = frozenset.intersection(
                    *(self._ev.satisfying(f, var) for f in fs))
        return usets

    def _next_deletion(self, alive: frozenset[str]) -> str | None:
        """The vertex of highest degree inside `alive`, the first in name
        order among equals; None when `alive` is tame, counted with no
        removal step: it has at most cluster_direct_max vertices, or none
        with more than hub_degree_threshold neighbours in it.  No degree
        inside `alive` exceeds the full one, so the walk down by_degree
        stops at the first full degree below the best found."""
        if len(alive) <= self.cfg.cluster_direct_max:
            return None
        adj, best = self._graph.adj, None
        top = self.cfg.hub_degree_threshold + 1
        for v in self._graph.by_degree:
            if len(adj[v]) < top:
                break
            if v in alive:
                degree = len(adj[v] & alive)
                if degree > top or degree == top and (best is None
                                                      or v < best):
                    best, top = v, degree
        return best

    # -- removal recursion -------------------------------------------------

    def _count(self, depth: int, pattern: PatternGraph, bounds,
               usets: dict[int, frozenset[str]]) -> dict[str, int]:
        """Tuples over the original cluster metric realizing `pattern` with
        its edge `bounds` and each position in its candidate set, per element
        at position 1, on the chain's position at `depth`.  Deletes that
        position's next deletion until it is tame or `depth` reaches the
        cap from _budget.  The first branch to delete at a depth appends the
        smaller position to the chain; every later branch reads it.  That
        first branch pins nothing, so the chain is whole before any piece is
        counted, and every count that reads the metric runs on its last
        position: one _MetricCounter per cluster, on the marks of that
        position, serves them all."""
        state, d = self._chain[depth]
        # a width-1 piece counts its candidates and reads no metric, so
        # deleting vertices under it is wasted work
        if pattern.k == 1 or d is None or depth >= self._depth_cap:
            if pattern.k > 1 and d is not None:
                self.stats.flag("recursion budget exhausted: direct counting")
            if self._counter is None:
                # with nothing deleted the position is the cluster itself,
                # so a span is a function of the cluster, its vertex, its
                # interval and its candidate set, and serves every term
                tables = None if state.levels else (
                    self._span_tables.setdefault(state.alive, ({}, {})))
                self._counter = _MetricCounter(self._marks, state.levels,
                                               self._theta, len(state.alive),
                                               tables)
            return self._counter.pattern_count(pattern, bounds, usets)
        if len(self._chain) == depth + 1:
            level = self._shortcut_level(state, d)
            self._marks.drop(d)
            smaller = _State(state.alive - {d}, state.levels + (level,))
            self._chain.append((smaller, self._next_deletion(smaller.alive)))
            self.stats.removal_steps += 1
        out: dict[str, int] = {}
        for size in range(pattern.k + 1):
            for pinned in combinations(range(1, pattern.k + 1), size):
                for a, v in self._piece(depth + 1, pattern, bounds, usets,
                                        pinned).items():
                    out[a] = out.get(a, 0) + v
        return out

    def _piece(self, depth: int, pattern: PatternGraph, bounds,
               usets: dict[int, frozenset[str]],
               pinned: tuple[int, ...]) -> dict[str, int]:
        """One pinned-subset branch below the deletion of d, the chain's
        step into `depth`: positions in `pinned` take d, so each pair of
        them needs an edge whose interval holds 0; the rest are counted on
        the smaller position, each with d's level inside the intervals of
        its edges to `pinned`, or beyond the threshold when it has none.
        Per element at position 1, so all of a branch that pins position 1
        is d's."""
        theta, d = self._theta, self._chain[depth - 1][1]
        if any(d not in usets[i] for i in pinned) or not all(
                pattern.has_edge(i, j)
                and _interval(bounds, theta, i, j)[0] < 0
                for i, j in combinations(pinned, 2)):
            return {}
        if not pinned:
            return self._count(depth, pattern, bounds,
                               {p: s - {d} for p, s in usets.items()})
        others = [p for p in range(1, pattern.k + 1) if p not in pinned]
        if not others:
            return {d: 1}
        dist = self._chain[depth][0].levels[-1].dist
        index = self._graph.index
        sub_usets = {}
        for new, p in enumerate(others, 1):
            keep = pattern.has_edge(pinned[0], p)
            if any(pattern.has_edge(i, p) != keep for i in pinned):
                return {}
            # beyond the threshold: past every distance a level stores
            lo, hi = theta, _INF
            if keep:
                ivs = [_interval(bounds, theta, i, p) for i in pinned]
                lo, hi = max(iv[0] for iv in ivs), min(iv[1] for iv in ivs)
            sub_usets[new] = frozenset(
                b for b in usets[p] if b != d and lo < dist[index[b]] <= hi)
        counts = self._count(depth, pattern.induced(others),
                             _sub_bounds(bounds, others), sub_usets)
        return counts if pinned[0] > 1 else {d: sum(counts.values())}

    def _shortcut_level(self, state: _State, d: str) -> _Level:
        """Distances to d in the cluster's original metric, capped at the
        threshold: one search from d in the position, then paths through
        previously deleted vertices restored by shortcutting over their
        levels, so by induction every stored level is exact for the original
        metric."""
        theta, graph = self._theta, self._graph
        s = graph.index[d]
        dist = [theta + 1] * len(graph.vertices)
        reached = set()
        for t, ring in enumerate(self._marks.rings(s, theta)):
            for b in ring:
                dist[b] = t
            if t:
                reached.update(ring)
        for level in state.levels:
            sd = level.dist[s]
            for t in range(1, theta - sd + 1):
                for b in level.rings[t]:
                    if sd + t < dist[b]:
                        dist[b] = sd + t
                        reached.add(b)
        return _Level(dist, theta, reached)


def _masks(groups: Iterable[Iterable[int]], size: int) -> list[int]:
    """Per group, the bit mask (bit p for position p) of the positions in it
    and in every group before it, over `size` positions."""
    bits = bytearray(b"0") * size
    out = []
    for group in groups:
        for p in group:
            bits[size - 1 - p] = 49  # ord("1")
        out.append(int(bits, 2))
    return out


class _Level:
    """The level of a deleted vertex d: d's distances in the cluster's
    original metric up to theta.  `dist` holds one per vertex position
    (theta + 1 beyond theta), `rings[t]` the positions at distance t, and
    `within[t]` the bit mask of the positions within t, for t = 1..theta.
    `reached` holds each position within theta once, d itself not among
    them."""

    __slots__ = ("dist", "rings", "within")

    def __init__(self, dist: list[int], theta: int, reached: Iterable[int]):
        self.dist = dist
        self.rings: list[list[int]] = [[] for _ in range(theta + 1)]
        for p in reached:
            self.rings[dist[p]].append(p)
        self.within = [0] + _masks(self.rings[1:], len(dist))


class _Marks:
    """Scratch space of one engine call, one slot per vertex position of
    the graph, read through stamps so that nothing is cleared between uses.
    `seen` holds the current removal position too: a vertex outside it
    holds _OUT, larger than every stamp, and a search marks what it reaches
    with a fresh stamp, so `seen[v] < stamp` is the one test per edge that
    says v is in the position and not yet reached.  `choose` marks a
    candidate set.  It is mutable, so it lives with the call and not on the
    cached graph."""

    def __init__(self, graph: GaifmanGraph):
        self.index, self.nbrs = graph.index, graph.nbrs
        self.seen = [_OUT] * len(graph.vertices)
        self.stamp = 0
        self._position: frozenset[str] = frozenset()
        self._slots: list[list[int]] = []
        self._choice = 0

    def enter(self, vertices: frozenset[str]) -> None:
        """Make `vertices` the current position, at a cost of its size and
        the previous position's."""
        seen, index = self.seen, self.index
        if len(vertices) == len(seen):
            self.seen = [0] * len(seen)
        else:
            for v in self._position:
                seen[index[v]] = _OUT
            for v in vertices:
                seen[index[v]] = 0
        self._position = vertices

    def drop(self, vertex: str) -> None:
        """Delete `vertex` from the current position."""
        self.seen[self.index[vertex]] = _OUT

    def reserve(self, count: int) -> int:
        """Take `count` fresh stamps, the ones after the returned value.
        When they would reach _OUT, the slots of the position are cleared
        to 0 and the stamps start again."""
        if self.stamp + count >= _OUT:
            self.seen = [0 if s < _OUT else _OUT for s in self.seen]
            self.stamp = 0
        first = self.stamp
        self.stamp += count
        return first

    def choose(self, slot: int, names: Iterable[str]) -> tuple[list[int], int]:
        """Mark the candidate set `names` in `slot`, at a cost of its size:
        the slot's array and the stamp that its members carry there until
        the slot is chosen again."""
        while len(self._slots) <= slot:
            self._slots.append([0] * len(self.seen))
        self._choice += 1
        chosen, choice, index = self._slots[slot], self._choice, self.index
        for v in names:
            chosen[index[v]] = choice
        return chosen, choice

    def rings(self, source: int, hi: int) -> list[list[int]]:
        """The positions of the current position within hi of `source`, by
        distance: one level-synchronous search over `nbrs`, which stops at
        its first empty ring.  Empty when `source` is not in the
        position."""
        stamp = self.reserve(1) + 1
        seen, nbrs = self.seen, self.nbrs
        if seen[source] == _OUT:
            return []
        seen[source] = stamp
        frontier = [source]
        rings = [frontier]
        for _ in range(hi):
            reached = []
            for u in frontier:
                for v in nbrs[u]:
                    if seen[v] < stamp:
                        seen[v] = stamp
                        reached.append(v)
            if not reached:
                break
            rings.append(reached)
            frontier = reached
        return rings


class _MetricCounter:
    """Counts pattern tuples on the chain's last position, where distance
    means: graph distance in the position that `marks` holds, shortcut
    through any of `levels` otherwise.  Every bound asked about is at most
    theta, up to which the levels are exact.  `size` is the position's
    size, and every candidate set lies inside the position.  Names are read
    at the boundary only: counts are keyed by the anchors' names, and
    everything in between is a vertex position.  `tables` is a pair: a dict
    interning candidate sets by value as small ints, and the span table,
    keyed by (set id, lo, hi), each entry a dict from vertex position to
    span.  The engine hands every counter with no level on one cluster the
    same pair; without one the counter keeps its own."""

    def __init__(self, marks: _Marks, levels: Sequence[_Level], theta: int,
                 size: int, tables: tuple[dict, dict] | None = None):
        self.marks = marks
        self.levels = levels
        self.theta = theta
        self.size = size
        self.set_ids, self.spans = tables or ({}, {})

    def pattern_count(self, pattern: PatternGraph, bounds,
                      usets: dict[int, frozenset[str]]) -> dict[str, int]:
        """Tuples realizing the pattern with its edge bounds, each position
        in its set, per element at position 1."""
        comps = pattern.components()
        if len(comps) == 1:
            return self._leg(pattern, bounds, usets)
        home = comps[0]
        rest = frozenset(range(1, pattern.k + 1)) - home
        side = self._restricted(pattern, bounds, usets, home)
        rest_total = sum(
            self._restricted(pattern, bounds, usets, rest).values())
        # an edge that an extension adds has the default interval
        corrections = [self.pattern_count(ext, bounds, usets)
                       for ext in cross_extensions(pattern, home)]
        return {a: v * rest_total - sum(c.get(a, 0) for c in corrections)
                for a, v in side.items()}

    def _restricted(self, pattern: PatternGraph, bounds, usets, positions):
        pos = sorted(positions)
        sub_usets = {i: usets[p] for i, p in enumerate(pos, 1)}
        return self.pattern_count(pattern.induced(pos),
                                  _sub_bounds(bounds, pos), sub_usets)

    def _leg(self, pattern: PatternGraph, bounds, usets) -> dict[str, int]:
        """A connected pattern: width 1 counts each candidate once, width 2
        is _pair_counts, and every wider one is counted by _enumerate."""
        k = pattern.k
        if k == 1:
            return dict.fromkeys(usets[1], 1)
        if k > 2:
            return self._enumerate(pattern, bounds, usets)
        lo, hi = _interval(bounds, self.theta, 1, 2)
        return self._pair_counts(usets[1], usets[2], lo, hi)

    def _pair_counts(self, anchors: Collection[str], cands: frozenset[str],
                     lo: int, hi: int) -> dict[str, int]:
        """Per anchor a, |{c in cands : lo < dist(a, c) <= hi}|.  One search
        from a, to depth hi in the position, counts the candidates it
        reaches within lo and within hi; a candidate set that holds the
        whole position is not tested.  The search is _Marks.rings, inlined
        here because it runs once per anchor: it stops at its first empty
        ring, counts the ring at depth hi in the pass that marks it, and
        keeps its rings only for an anchor that some level reaches.  Each
        level that a reaches in sa < b adds the candidates within b - sa of
        its vertex, for b = hi and lo: a popcount of the union of those
        levels' masks with the candidates' mask, memoised per tuple of
        active levels.  One pass over the hits then subtracts those a level
        reaches too."""
        marks, levels = self.marks, self.levels
        index, nbrs = marks.index, marks.nbrs
        stamp = marks.reserve(len(anchors))
        seen = marks.seen
        whole = len(cands) == self.size
        chosen, choice = (None, 0) if whole else marks.choose(0, cands)
        dists = [level.dist for level in levels]
        # active levels -> the candidates they reach within hi and within lo
        unions: dict[tuple, tuple[int, int]] = {}
        cand_mask = None
        out = {}
        for a in anchors:
            s = index[a]
            # (level index, distance from a) for each level a reaches below hi
            active = []
            if dists:
                for i, dist in enumerate(dists):
                    if dist[s] < hi:
                        active.append((i, dist[s]))
            near = low = 0
            rings = []
            if seen[s] < _OUT:
                stamp += 1
                seen[s] = stamp
                frontier = [s]
                if whole or chosen[s] == choice:
                    near = 1
                if lo >= 0:
                    low = near
                if active:
                    rings.append(frontier)
                # the rings up to hi are listed when a level reads them;
                # otherwise the ring at hi is counted as it is marked
                depth, listed = 1, hi + 1 if active else hi
                while depth < listed:
                    reached = []
                    for u in frontier:
                        for v in nbrs[u]:
                            if seen[v] < stamp:
                                seen[v] = stamp
                                reached.append(v)
                    if not reached:
                        break
                    if whole:
                        near += len(reached)
                    else:
                        for v in reached:
                            if chosen[v] == choice:
                                near += 1
                    # <=, so that a search stopping before lo sets low
                    if depth <= lo:
                        low = near
                    if active:
                        rings.append(reached)
                    frontier = reached
                    depth += 1
                else:
                    if depth == hi:
                        if whole:
                            for u in frontier:
                                for v in nbrs[u]:
                                    if seen[v] < stamp:
                                        seen[v] = stamp
                                        near += 1
                        else:
                            for u in frontier:
                                for v in nbrs[u]:
                                    if seen[v] < stamp:
                                        seen[v] = stamp
                                        if chosen[v] == choice:
                                            near += 1
            if active:
                key = tuple(active)
                union = unions.get(key)
                if union is None:
                    if cand_mask is None:
                        cand_mask = _masks([[index[c] for c in cands]],
                                           len(seen))[0]
                    union = unions[key] = (
                        self._union(active, hi, cand_mask),
                        self._union(active, lo, cand_mask))
                both_hi = both_lo = 0
                for depth, ring in enumerate(rings):
                    for v in ring:
                        if whole or chosen[v] == choice:
                            via = _INF
                            for i, sa in active:
                                if sa + dists[i][v] < via:
                                    via = sa + dists[i][v]
                            if via <= hi:
                                both_hi += 1
                                if depth <= lo and via <= lo:
                                    both_lo += 1
                near += union[0] - both_hi
                low += union[1] - both_lo
            out[a] = near - low
        return out

    def _union(self, active, bound: int, cand_mask: int) -> int:
        """How many candidates of `cand_mask` lie within `bound` through
        some of the `active` (level index, distance) pairs."""
        union = 0
        for i, sa in active:
            if sa < bound:
                union |= self.levels[i].within[bound - sa]
        return (union & cand_mask).bit_count()

    def _span(self, u: int, interval, pick) -> set[int]:
        """The candidates marked by `pick` whose distance to position u lies
        in `interval`, as positions: one search from u to hi, its hits
        bucketed by depth, each lowered through the levels that reach u in
        less than hi."""
        lo, hi = interval
        chosen, choice = pick
        best = {}
        for depth, ring in enumerate(self.marks.rings(u, hi)):
            for v in ring:
                if chosen[v] == choice:
                    best[v] = depth
        for level in self.levels:
            su = level.dist[u]
            for t in range(1, hi - su + 1):
                via = su + t
                for c in level.rings[t]:
                    if chosen[c] == choice and via < best.get(c, _INF):
                        best[c] = via
        return {c for c, dist in best.items() if dist > lo}

    def _enumerate(self, pattern: PatternGraph, bounds,
                   usets) -> dict[str, int]:
        """Tuples of a connected pattern of width 3 or more, per anchor at
        position 1, placed in BFS order from position 1.  Each later
        position reads every position placed before it, its tree parent
        first: an edge through its interval, a non-edge through (-1,
        theta].  _extend draws it from those reads.  A read takes its spans
        from the counter's table, under its candidate set's id and its
        interval, so a read from the anchor, a read from a later position
        and a read of another count on the same table search from a vertex
        once between them.  Its loops are plain loops, since before Python
        3.12 a comprehension over local names is a closure."""
        theta, marks = self.theta, self.marks
        ids, spans = self.set_ids, self.spans
        tree = pattern.spanning_tree(1)
        order = [p for p, _ in tree]
        # per position after the first: its marked candidates and its reads
        # (placed index, interval, edge or not, span table)
        steps = []
        for i, (p, q) in enumerate(tree[1:], 1):
            sid = ids.setdefault(usets[p], len(ids))
            parent = order.index(q)
            reads = []
            for j in (parent, *range(parent), *range(parent + 1, i)):
                edge = j == parent or pattern.has_edge(order[j], p)
                interval = (_interval(bounds, theta, order[j], p) if edge
                            else (-1, theta))
                reads.append((j, interval, edge,
                               spans.setdefault((sid, *interval), {})))
            steps.append((marks.choose(i, usets[p]), reads))
        out = {}
        for a in usets[1]:
            out[a] = self._extend(steps, [marks.index[a]])
        return out

    def _extend(self, steps, placed: list[int]) -> int:
        """The tuples of _enumerate that start with `placed`.  The next
        position's pool is its parent's span, intersected with the span of
        every other edge read, minus the span of every non-edge read.  The
        last position is not placed: its pool's size is the number of tuples
        that end there, so a width-3 count is one pass over the anchor's
        span.  A method, not a nested function: a recursive nested function
        holds itself in its closure cell, a reference cycle that only the
        cycle collector frees, and until then it would keep the steps and
        the span tables they read alive."""
        pick, reads = steps[len(placed) - 1]
        pool = None
        for j, interval, edge, memo in reads:
            u = placed[j]
            got = memo.get(u)
            if got is None:
                got = memo[u] = self._span(u, interval, pick)
            pool = (got if pool is None
                    else pool & got if edge else pool - got)
        if len(placed) == len(steps):
            return len(pool)
        total = 0
        for c in pool:
            placed.append(c)
            total += self._extend(steps, placed)
            placed.pop()
        return total


# -- public API ------------------------------------------------------------


def localized_unary(structure: Structure, term: BasicClTerm,
                    cfg: EvalConfig | None = None,
                    registry: Registry | None = None):
    """Per-element values of a unary basic cl-term; equals eval_basic_cl at
    every element."""
    if not term.unary:
        raise InputError("unary evaluation needs a unary basic term")
    engine = _Localizer(cfg, registry)
    return engine(structure, term), engine.stats


def localized_ground(structure: Structure, term: BasicClTerm,
                     cfg: EvalConfig | None = None,
                     registry: Registry | None = None):
    """Value of a ground basic cl-term via per-anchor localized counting."""
    if term.unary:
        raise InputError("ground evaluation needs a ground basic term")
    engine = _Localizer(cfg, registry)
    return engine(structure, term), engine.stats


def evaluate(expr, structure: Structure, cfg: EvalConfig | None = None,
             registry: Registry | None = None):
    """End-to-end localized evaluation: decompose, then run the layers with
    the localized engine.  Returns (value, decomposition, stats)."""
    registry = registry or default_registry()
    decomp = cl_decompose(expr, structure.signature, registry)
    engine = _Localizer(cfg, registry)
    value = eval_decomposition(decomp, structure, registry, engine)
    return value, decomp, engine.stats
