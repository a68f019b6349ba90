"""Localized evaluation of basic cl-terms on sparse structures.

Anchored counts are computed cluster by cluster, by one route at every
size.  A structure whose Gaifman graph is tame (no vertex whose deletion
pays, below) is one cluster, counted directly inside balls as on bounded
degree.  Only a structure with a vertex worth deleting gets a
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

Inside a cluster the engine either counts directly (low-degree clusters)
or repeatedly deletes a splitter vertex.  Deleting d splits the
count into pieces indexed by the positions pinned to d: pinned positions
need d in their sets and pairwise an edge whose interval holds 0, every
other position's set loses d and keeps the elements whose shortcut level to
d lies in the intervals of its edges to the pinned positions (beyond the
threshold without such edges), and the pieces are counted on the smaller
position.  Width-1 terms skip the cover at every size: psi is read as one
element set the same way, a unary term is its 0/1 indicator and a ground
one its size.

The deleted vertex is the vertex v of highest degree inside the position,
the first in name order among equals, and it is deleted only where that
pays: when deg(v) * |B|, with B the (theta - 1)-ball of v and both read
inside the position, exceeds STEP_COST * n, n the graph's vertex count.
The searches from the anchors in B each scan v's neighbours, while deleting
costs a cover of the whole graph, built at the first deletion, and n-bit
masks wherever a step's pieces read a union (below), so a vertex that few
anchors' searches pass through is cheaper to search through than to delete.
STEP_COST = 4 was chosen on tools/hub_cost.py at 16000 vertices (2-vCPU VM,
Python 3.11), over 1 to 8, when a step also paid an n-long distance list:
hub-tree:1000 deletes at 1 and at no value from 2, pref-tree's time falls
as it grows to 4, and it must stay below 9.5, the score deg(v) * |B| / n of
the hubs of star-path with 40 stars, where deleting is 4.6 times faster
than not.  Now that a step costs its ball it keeps the same picks on every
hub_cost family.  A structure of at most EXACT_GAME_CAP vertices never
deletes: its first step would solve the exact splitter game, and on 16
vertices deleting lost even with no game (the pairs query on a star: 0.11
ms counted directly, 0.18 ms deleting the hub, 0.32 ms with the game; on a
random graph of edge density 0.6: 0.26, 0.61 and 297 ms).  An int
EvalConfig.hub_degree_threshold replaces the test by a degree threshold,
for forced runs.  Any deleted vertex keeps the count exact.  Every piece
goes on in the whole position minus that vertex, so a position is a
function of the cluster and its depth: each cluster keeps one chain of
positions and their deletions, extended by the first branch to delete at
its end and read by every other.  The splitter's exact reply would bound
the depth only if the recursion went on inside the pick's ball, so the
engine plays no moves.  The splitter game only sets the recursion budget,
read once a chain deletes, which only a forced run does on a structure of
at most EXACT_GAME_CAP vertices: such a structure reads its game's exact
value at twice the term's evaluation radius, and a larger one gets
RECURSION_CAP.  Covers builds each cover and game once per Gaifman graph
and radius, so a later evaluation at the same radius pays a memo read for
them.

Distances of the cluster are recovered exactly on a smaller position:
d_old(u, v) = min(d_new(u, v), min over removed c of s_c(u) + s_c(v)),
where s_c is the bounded distance-to-c map saved at the step that deleted
c.  A bound b <= threshold holds through a level when s_c(u) + s_c(v) <= b,
and an interval (lo, hi] holds the pairs within hi but not within lo.
Below the API everything is a vertex position of the graph's integer view
(`index`, and `nbrs`, the neighbour positions per vertex): the cover's
clusters and members, anchors, candidate sets, the chain and per-anchor
counts.  Names come back only where `localized_unary`, `localized_ground`
and `evaluate` return, and a ground count sums counts by position.  The
current position lives only in the search stamps (`_Marks.seen`), where a
vertex outside it holds a sentinel above every stamp; the chain keeps, per
depth, the deleted vertices and their levels, and a level is its vertex's
theta-ball: a distance per position in the ball, and its rings.  A step
costs that ball: its search, the parts of earlier levels within theta of d,
and pieces built from d's rings.  The branch that pins nothing copies no
set, since a candidate set may hold deleted vertices and every reader skips
them; a non-pinned set of any other branch is the candidates on d's rings
inside its interval, or, without an edge to a pinned position, the set
minus d's ball.  A search is level-synchronous over `nbrs`, tests each edge
once (`seen[v] < stamp`: in the position and not yet reached), marks what
it reaches with a fresh stamp, stops at its first empty ring and builds no
ball set.  Width-2 patterns are counted in one loop over the anchors: one
search per anchor, to the interval's hi, counts the candidates it reaches
within lo and within hi, so an interval costs one search.  A candidate set
is a stamped mark per position, and one that holds the whole position is
not tested at all.  The candidates within a bound through some level are a
popcount of the union of the active levels' masks with the candidates'
mask, memoised per tuple of active levels, which is what makes hub-heavy
structures (stars) near-linear instead of quadratic; those that the search
reaches too are subtracted in one pass over its hits.  A level builds its
masks, per bound t the n-bit mask of the positions within t, on the first
union that reads it.  Every wider connected pattern is enumerated: its
positions are placed in BFS order from the anchor, each drawn from its tree
parent's span, narrowed by the spans of the other placed positions; the
last one is not placed but counted, as the size of its pool, and the
next-to-last is not recursed into, so a width-3 count is one loop per
anchor.  A span is one search, its hits bucketed by depth and lowered
through the levels, and is kept in a table keyed by its candidate set,
interned by value as a small id, and its interval.  A counter on a cluster
that deleted nothing counts on the cluster itself, so the engine gives
every such counter on the cluster one table for all the basic terms it
counts on the Gaifman graph, and the terms of one wide count search from
each vertex once; a counter below a deletion keeps its own.

When psi has a conjunct that ties tuple variables other than through such a
distance atom (a relation atom on two positions, say), each member of the
cluster is counted by eval_basic_cl on the structure itself: always
correct, flagged in the stats on high-degree clusters.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain, combinations
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
# _next_deletion deletes a vertex when its degree times its (theta - 1)-ball
# exceeds STEP_COST times the graph's vertex count (module docstring)
STEP_COST = 4


@dataclass
class EvalConfig:
    """Knobs for the localized engine.  By default which vertex sets are
    tame (_Localizer._next_deletion) is a cost test with no knob: a vertex
    is deleted when its degree times its ball exceeds STEP_COST (4) times
    the graph's vertex count, a constant chosen on tools/hub_cost.py
    (module docstring).  A tame structure is one cluster and builds no
    cover, and a tame cluster or removal position is counted with no
    further deletion.  An int hub_degree_threshold replaces the cost test
    by a degree test: a vertex with more neighbours than that is
    deleted.  Only forced runs set it (the tests' FORCED, the benchmark's
    removal configuration), to make small graphs delete.  cross_check
    checks every cover with validate_cover and every value against direct
    counting, raising RuntimeError on a difference.  brute_force_threshold
    and cluster_direct_max are read by nothing, and stay only while the
    benchmark's removal configuration names them."""

    brute_force_threshold: int = 32
    cluster_direct_max: int = 32
    hub_degree_threshold: int | None = None
    cross_check: bool = False


@dataclass
class RunStats:
    """Counters accumulated over an engine's calls.  A tame structure
    counts as one direct cluster; any other counts each cluster of its
    cover.  removal_steps counts the positions each cluster's chain
    deletes from, once however many branches read them; max_depth is the
    longest chain.  cover_weight sums the total weight of the covers built.
    fallbacks maps each reason for direct counting to the number of times
    it was flagged.  `evaluate` sets symbols to the number of its
    decomposition's layer symbols and symbols_decomposed to the number of
    those whose cl-terms were built when it returned: the live ones."""

    clusters: int = 0
    direct_clusters: int = 0
    removal_clusters: int = 0
    removal_steps: int = 0
    max_depth: int = 0
    depth_histogram: dict[int, int] = field(default_factory=dict)
    fallbacks: dict[str, int] = field(default_factory=dict)
    depth_bound_checks: int = 0
    cover_weight: int = 0
    symbols: int = 0
    symbols_decomposed: int = 0

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
            "symbols": self.symbols,
            "symbols_decomposed": self.symbols_decomposed,
        }


@dataclass(frozen=True)
class _State:
    """A removal position, by what the chain has deleted from its cluster:
    the level of each deleted vertex, in deletion order, and the set of
    their positions.  The vertices of the position itself are held only by
    the search stamps (_Marks.seen) of the chain's last position; candidate
    sets may still hold a vertex of `gone`, and every reader skips it."""

    levels: tuple[_Level, ...]
    gone: frozenset[int]


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
    another (_MetricCounter), and the candidate set of each factor on the
    structure it last counted on until it counts on another (_candidates)."""

    def __init__(self, cfg: EvalConfig | None = None,
                 registry: Registry | None = None):
        self.cfg = cfg or EvalConfig()
        self.registry = registry or default_registry()
        self.stats = RunStats()
        # per cluster of one Gaifman graph, the tables of _MetricCounter
        # that every counter on it that deleted nothing shares
        self._span_graph: GaifmanGraph | None = None
        self._span_tables: dict[Collection[int], tuple[dict, dict]] = {}
        # per (factor, variable), the positions of the elements of one
        # structure satisfying it
        self._sets_structure: Structure | None = None
        self._sets: dict[tuple[Formula, str], frozenset[int]] = {}

    def __call__(self, structure: Structure, term: BasicClTerm):
        """The term's value per element when unary, its total when ground,
        by one route at every size.  A width-1 term is read from the set of
        elements satisfying psi (GuardedEvaluator.satisfying): a unary one
        is that set's 0/1 indicator, a ground one its size.  Wider terms
        are counted per anchor position by the cover loop; here, and only
        here, positions become names: an element's position is its index in
        the structure's universe, which the Gaifman graph's vertices are."""
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
        if not term.unary:
            anchored = replace(term, unary=True)
            return sum(sum(counts.values()) for counts in
                       self._covered_values(structure, anchored))
        values = dict.fromkeys(range(len(structure.universe)), 0)
        for counts in self._covered_values(structure, term):
            values.update(counts)
        return dict(zip(structure.universe, values.values()))

    # -- cover loop --------------------------------------------------------

    def _covered_values(self, structure: Structure,
                        term: BasicClTerm) -> list[dict[int, int]]:
        """Per cluster, the count of each anchor position that the cluster
        counts; an anchor absent from every dict counts 0."""
        self._structure = structure
        self._ev = GuardedEvaluator(structure, self.registry)
        # a finite distance among n vertices is below n, so every bound past
        # n is read as n: the answers stay, and no level or search grows
        # with the bound
        n = len(structure.universe)
        self._theta = min(term.threshold, n)
        split = _split_factors(term)
        if split is not None:
            factors, closed, bounds = split
            bounds = {edge: (min(lo, n), min(hi, n))
                      for edge, (lo, hi) in bounds.items()}
            if not all(self._ev.evaluate(c) for c in closed) or any(
                    lo >= hi for lo, hi in bounds.values()):
                return []
        radius = term.eval_radius
        # one graph for every cluster and removal position
        self._graph = graph = gaifman_graph(structure)
        if graph is not self._span_graph:
            self._span_graph, self._span_tables = graph, {}
        if structure is not self._sets_structure:
            self._sets_structure, self._sets = structure, {}
        # None when psi does not split, else the _candidates sets and the
        # edge bounds
        factored = None if split is None else (
            self._candidates(term, factors), bounds)
        self._marks = _Marks(graph)
        self._game_radius = 2 * radius
        everything = graph.positions
        self._marks.enter(everything)
        if self._next_deletion() is None:
            # counted with no removal step, so the whole graph is the one
            # cluster: its metric is the true one, no ball can leave it
            clusters = [(everything, everything)]
        else:
            cover = build_cover(structure, radius)
            self.stats.cover_weight += cover.total_weight()
            if self.cfg.cross_check:
                report = validate_cover(structure, cover)
                if not report.ok:
                    raise RuntimeError(f"invalid cover: {report.problems}")
            clusters = self._clusters(cover)
        # read by the first chain that deletes (_count)
        self._depth_cap = self._game_value = None
        return [self._cluster(cluster, term, factored, members)
                for cluster, members in clusters]

    def _clusters(self, cover) -> list[tuple[Collection[int], Collection[int]]]:
        """Each cluster of `cover` and the elements assigned to it, as
        vertex positions: built once per cover and kept beside it in
        GaifmanGraph.derived, so a later evaluation that reads the same
        cover reads them too."""
        key = ("clusters", cover.r)
        kept = self._graph.derived.get(key)
        if kept is None or kept[0] is not cover:
            index = self._graph.index
            kept = self._graph.derived[key] = cover, [
                (frozenset([index[v] for v in cluster]),
                 [index[v] for v in cover.members(cid)])
                for cid, cluster in enumerate(cover.clusters)]
        return kept[1]

    def _budget(self):
        """The depth at which the removal recursion stops deleting, and the
        game value its depth is checked against; read when an evaluation's
        first chain deletes.  A structure of at most EXACT_GAME_CAP vertices
        reads its exact value at the term's game radius, from the graph's
        one game (solve_splitter solves it on the first call and reads it
        after): the cap is the value minus one, so the check holds by
        construction.  A larger structure gets RECURSION_CAP and no check.
        The game value caps the chain's length but does not steer it: each
        step deletes _next_deletion of the whole position, not the
        splitter's reply in a pick's ball, until the position is tame."""
        vertices = self._graph.vertices
        if len(vertices) <= EXACT_GAME_CAP:
            gv = solve_splitter(self._graph, self._game_radius,
                                round_cap=len(vertices) + 1)
            return max(gv.value - 1, 0), gv.value
        return RECURSION_CAP, None

    def _cluster(self, cluster: Collection[int], term: BasicClTerm, factored,
                 members: Collection[int]) -> dict[int, int]:
        """The count of each anchor position among `members`, counted on
        `cluster`; an anchor left out counts 0."""
        self.stats.clusters += 1
        self._marks.enter(cluster)
        self._chain = [(_State((), frozenset()), self._next_deletion())]
        if factored is None:
            if self._chain[0][1] is not None:
                self.stats.flag("unfactorized condition on a high-degree "
                                "cluster: direct counting")
            values = self._direct(term, members)
        else:
            cands, bounds = factored
            whole = cluster is self._graph.positions
            usets = {pos: cluster if pos not in cands
                     else cands[pos] if whole else cands[pos] & cluster
                     for pos in range(1, term.k + 1)}
            if len(members) < len(cluster):
                usets[1] = usets[1].intersection(members)
            self._counter = None
            values = self._count(0, term.pattern, bounds, usets)
        depth = len(self._chain) - 1
        if self._game_value is not None:
            self.stats.depth_bound_checks += 1
            if depth > max(self._game_value - 1, 0):
                raise RuntimeError(f"removal depth {depth} exceeded the "
                                   f"exact game value {self._game_value}")
        if self.cfg.cross_check:
            names = self._graph.vertices
            got = dict.fromkeys(members, 0)
            got.update(values)
            direct = self._direct(term, members)
            if direct != got:
                got, direct = ({names[a]: v for a, v in d.items()}
                               for d in (got, direct))
                raise RuntimeError(
                    "localized cluster values diverge from direct counting: "
                    f"{got} vs {direct}")
        if depth > 0:
            self.stats.removal_clusters += 1
        else:
            self.stats.direct_clusters += 1
        self.stats.note_cluster(depth)
        return values

    def _direct(self, term: BasicClTerm,
                members: Collection[int]) -> dict[int, int]:
        """eval_basic_cl at each member, by position."""
        names = self._graph.vertices
        return {a: eval_basic_cl(self._structure, term, names[a],
                                 self.registry) for a in members}

    def _candidates(self, term: BasicClTerm,
                    factors: dict[int, list[Formula]]):
        """Per position with factors, the positions of the elements of the
        structure satisfying them: the intersection of each factor's set
        from GuardedEvaluator.satisfying, which reads atoms, boolean
        combinations and guarded existentials as element sets and evaluates
        any other factor element by element.  A factor reads only its
        element's ball, so one set over the structure serves every cluster,
        and whether an element satisfies it survives every deletion.  Each
        factor's set is kept per variable for the structure, so the basic
        terms counted on it that share a factor search it once.  A position
        without factors has no set: its clusters take all their elements
        unevaluated."""
        usets = {}
        for pos, fs in factors.items():
            if fs:
                var = term.vars[pos - 1]
                first, *rest = (self._factor_set(f, var) for f in fs)
                usets[pos] = first.intersection(*rest) if rest else first
        return usets

    def _factor_set(self, f: Formula, var: str) -> frozenset[int]:
        got = self._sets.get((f, var))
        if got is None:
            index = self._graph.index
            got = self._sets[f, var] = frozenset(
                [index[a] for a in self._ev.satisfying(f, var)])
        return got

    def _next_deletion(self) -> int | None:
        """The vertex v of highest degree inside the current position (the
        one _Marks.seen holds), the first in position order, which is name
        order, among equals, when deleting it pays; None when the position
        is tame, counted with no removal step.  Deleting pays when
        deg(v) * |B| > STEP_COST * n, with deg(v) and the (theta - 1)-ball
        B of v read inside the position and n the graph's vertex count
        (_paying).  A graph of at most EXACT_GAME_CAP vertices never
        deletes, since its first step would solve the exact game (_budget).
        An int hub_degree_threshold overrides the test by degree alone: then
        v is deleted when its degree exceeds the threshold.  The whole
        graph's answer depends on the graph and theta alone, so it is kept
        in GaifmanGraph.derived beside the cover."""
        graph, threshold = self._graph, self.cfg.hub_degree_threshold
        if threshold is not None:
            return self._top_vertex(threshold + 1)[0]
        if self._marks.size < len(graph.vertices):
            return self._paying()
        key = ("deletion", self._theta)
        if key not in graph.derived:
            graph.derived[key] = self._paying()
        return graph.derived[key]

    def _paying(self) -> int | None:
        """_next_deletion by the cost test: the top vertex of the position,
        when its degree times its (theta - 1)-ball inside the position
        exceeds STEP_COST times the graph's vertex count.  The searches from
        the anchors in the ball each scan the vertex's neighbours; against
        them a deletion weighs a cover of the graph, its step's ball and the
        n-bit masks its pieces' unions read (module docstring).  A degree
        above budget // |position| is needed to pass, and from theta 2 on
        the ball holds the vertex and its neighbours, so a degree d with
        d * (d + 1) above the budget passes with no search; otherwise the
        ball search stops once it is large enough to pass."""
        marks = self._marks
        n = len(marks.seen)
        if n <= EXACT_GAME_CAP or not marks.size:
            return None
        budget = STEP_COST * n
        best, top = self._top_vertex(budget // marks.size + 1)
        if best is None or self._theta > 1 and top * (top + 1) > budget:
            return best
        ball = sum(map(len, marks.rings(best, self._theta - 1,
                                        limit=budget // top)))
        return best if top * ball > budget else None

    def _top_vertex(self, least: int) -> tuple[int | None, int]:
        """The vertex of highest degree inside the current position, the
        first in position order among equals, and that degree; (None,
        least) when no degree reaches `least`.  No degree inside the
        position exceeds the full one, so the walk down degree_order stops
        at the first full degree below the best found, or below `least`;
        a degree inside a position smaller than the graph counts the
        neighbours whose stamp is not _OUT."""
        marks, nbrs = self._marks, self._graph.nbrs
        seen, whole = marks.seen, marks.size == len(marks.seen)
        best, top = None, least
        for v in self._graph.degree_order:
            if len(nbrs[v]) < top:
                break
            if seen[v] < _OUT:
                degree = len(nbrs[v]) if whole else len(
                    [u for u in nbrs[v] if seen[u] < _OUT])
                if degree > top or degree == top and (best is None
                                                      or v < best):
                    best, top = v, degree
        return best, top

    # -- removal recursion -------------------------------------------------

    def _count(self, depth: int, pattern: PatternGraph, bounds,
               usets: dict[int, frozenset[int]]) -> dict[int, int]:
        """Tuples over the original cluster metric realizing `pattern` with
        its edge `bounds` and each position in its candidate set, per anchor
        position at position 1, on the chain's position at `depth`; a
        candidate set may hold vertices that the chain deleted before
        `depth`, which count as absent.  A width-1 pattern counts its
        candidates.  A wider one deletes that position's next deletion until
        it is tame or `depth` reaches the cap from _budget, which the
        evaluation's first deletion reads.  The first branch to delete at a
        depth appends the smaller position to the chain; every later branch
        reads it.  That first branch pins nothing, so the chain is whole
        before any piece is counted, and every count that reads the metric
        runs on its last position: one _MetricCounter per cluster, on the
        marks of that position, serves them all."""
        state, d = self._chain[depth]
        if pattern.k == 1:
            # reads no metric, so deleting vertices under it is wasted work
            counts = dict.fromkeys(usets[1], 1)
            for g in state.gone:
                counts.pop(g, None)
            return counts
        if d is not None and self._depth_cap is None:
            self._depth_cap, self._game_value = self._budget()
        if d is None or depth >= self._depth_cap:
            if d is not None:
                self.stats.flag("recursion budget exhausted: direct counting")
            if self._counter is None:
                # with nothing deleted the position is the cluster itself,
                # so a span is a function of the cluster, its vertex, its
                # interval and its candidate set, and serves every term
                tables = None if state.levels else (
                    self._span_tables.setdefault(self._marks.position,
                                                 ({}, {})))
                self._counter = _MetricCounter(
                    self._marks, state.levels, self._theta, self._marks.size,
                    tables, state.gone)
            return self._counter.pattern_count(pattern, bounds, usets)
        if len(self._chain) == depth + 1:
            level = self._shortcut_level(state, d)
            self._marks.drop(d)
            smaller = _State(state.levels + (level,), state.gone | {d})
            self._chain.append((smaller, self._next_deletion()))
            self.stats.removal_steps += 1
        out: dict[int, int] = {}
        for size in range(pattern.k + 1):
            for pinned in combinations(range(1, pattern.k + 1), size):
                counts = self._piece(depth + 1, pattern, bounds, usets,
                                     pinned)
                if len(counts) > len(out):
                    out, counts = counts, out
                for a, v in counts.items():
                    out[a] = out.get(a, 0) + v
        return out

    def _piece(self, depth: int, pattern: PatternGraph, bounds,
               usets: dict[int, frozenset[int]],
               pinned: tuple[int, ...]) -> dict[int, int]:
        """One pinned-subset branch below the deletion of d, the chain's
        step into `depth`: positions in `pinned` take d, so each pair of
        them needs an edge whose interval holds 0; the rest are counted on
        the smaller position, each with d's level inside the intervals of
        its edges to `pinned`, or beyond the threshold when it has none.
        The branch that pins nothing hands its sets down as they are, d in
        them, since the smaller position reads d as deleted.  Any other
        branch reads only d's ball: a set with an edge to `pinned` keeps
        the candidates on d's rings inside the interval, and one without
        drops d's ball.  Per anchor position at position 1, so all of a
        branch that pins position 1 is d's."""
        theta, d = self._theta, self._chain[depth - 1][1]
        if any(d not in usets[i] for i in pinned) or not all(
                pattern.has_edge(i, j)
                and _interval(bounds, theta, i, j)[0] < 0
                for i, j in combinations(pinned, 2)):
            return {}
        if not pinned:
            return self._count(depth, pattern, bounds, usets)
        others = [p for p in range(1, pattern.k + 1) if p not in pinned]
        if not others:
            return {d: 1}
        below = self._chain[depth][0]
        level, gone = below.levels[-1], below.gone
        sub_usets = {}
        for new, p in enumerate(others, 1):
            keep = pattern.has_edge(pinned[0], p)
            if any(pattern.has_edge(i, p) != keep for i in pinned):
                return {}
            if keep:
                ivs = [_interval(bounds, theta, i, p) for i in pinned]
                lo, hi = max(iv[0] for iv in ivs), min(iv[1] for iv in ivs)
                # ring 0 holds no vertex: d is not in its own rings
                near = usets[p].intersection(
                    chain.from_iterable(level.rings[max(lo + 1, 1):hi + 1]))
                sub_usets[new] = (near if gone.isdisjoint(near)
                                  else near - gone)
            else:
                # beyond the threshold: outside d's ball
                sub_usets[new] = usets[p].difference(level.dist, gone)
        counts = self._count(depth, pattern.induced(others),
                             _sub_bounds(bounds, others), sub_usets)
        return counts if pinned[0] > 1 else {d: sum(counts.values())}

    def _shortcut_level(self, state: _State, d: int) -> _Level:
        """d's ball in the cluster's original metric, up to the threshold:
        one search from d in the position, then paths through previously
        deleted vertices restored by shortcutting over their levels, so by
        induction every stored level is exact for the original metric.  A
        step reads d's ball and the parts of the earlier levels' balls
        within theta of d, never the whole position."""
        theta, size = self._theta, len(self._marks.seen)
        rings = self._marks.rings(d, theta)
        rings += [[] for _ in range(theta + 1 - len(rings))]
        if not state.levels:
            return _Level(rings, size)
        dist = {b: t for t, ring in enumerate(rings) for b in ring}
        for level in state.levels:
            sd = level.dist.get(d, _INF)
            for t in range(1, theta - sd + 1):
                via = sd + t
                for b in level.rings[t]:
                    if via < dist.get(b, _INF):
                        dist[b] = via
        rings = [[] for _ in range(theta + 1)]
        for b, t in dist.items():
            rings[t].append(b)
        return _Level(rings, size, dist)


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
    """The level of a deleted vertex d: its ball in the cluster's original
    metric up to theta.  `rings[t]` lists the positions at distance t, for
    t = 0..theta, and `dist` maps each of them to its distance (built from
    the rings unless given).  d is alone in ring 0, or, in a level built
    by hand, absent.  `within(t)` is the bit mask, over the graph's `size`
    positions, of the positions at distance 1..t, built for every t on the
    first read, so a level that no union reads never builds one."""

    __slots__ = ("dist", "rings", "size", "_within")

    def __init__(self, rings: list[list[int]], size: int,
                 dist: dict[int, int] | None = None):
        self.rings = rings
        self.size = size
        self.dist = dist if dist is not None else {
            p: t for t, ring in enumerate(rings) for p in ring}
        self._within: list[int] | None = None

    def within(self, t: int) -> int:
        if self._within is None:
            self._within = [0] + _masks(self.rings[1:], self.size)
        return self._within[t]


class _Marks:
    """Scratch space of one engine call, one slot per vertex position of
    the graph, read through stamps so that nothing is cleared between uses.
    `seen` holds the current removal position too: a vertex outside it
    holds _OUT, larger than every stamp, and a search marks what it reaches
    with a fresh stamp, so `seen[v] < stamp` is the one test per edge that
    says v is in the position and not yet reached.  `position` is the set
    last entered and `size` the number of its vertices not dropped since.
    `choose` marks a candidate set.  It is mutable, so it lives with the
    call and not on the cached graph."""

    def __init__(self, graph: GaifmanGraph):
        self.nbrs = graph.nbrs
        self.seen = [_OUT] * len(graph.vertices)
        self.stamp = 0
        self.position: Collection[int] = ()
        self.size = 0
        self._slots: list[list[int]] = []
        self._choice = 0

    def enter(self, vertices: Collection[int]) -> None:
        """Make `vertices` the current position, at a cost of its size and
        the previous position's."""
        seen = self.seen
        if len(vertices) == len(seen):
            self.seen = [0] * len(seen)
        else:
            for v in self.position:
                seen[v] = _OUT
            for v in vertices:
                seen[v] = 0
        self.position, self.size = vertices, len(vertices)

    def drop(self, vertex: int) -> None:
        """Delete `vertex` from the current position."""
        self.seen[vertex] = _OUT
        self.size -= 1

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

    def choose(self, slot: int, vertices: Iterable[int],
               without: Iterable[int] = ()) -> tuple[list[int], int]:
        """Mark the candidate set `vertices`, less those in `without`, in
        `slot`, at a cost of their sizes: the slot's array and the stamp
        that its members carry there until the slot is chosen again."""
        while len(self._slots) <= slot:
            self._slots.append([0] * len(self.seen))
        self._choice += 1
        chosen, choice = self._slots[slot], self._choice
        for v in vertices:
            chosen[v] = choice
        for v in without:
            chosen[v] = 0
        return chosen, choice

    def rings(self, source: int, hi: int,
              limit: int | None = None) -> list[list[int]]:
        """The positions of the current position within hi of `source`, by
        distance: one level-synchronous search over `nbrs`, which stops at
        its first empty ring, or with `limit`, at the first ring after which
        it holds more than `limit` positions.  Empty when `source` is not in
        the position."""
        stamp = self.reserve(1) + 1
        seen, nbrs = self.seen, self.nbrs
        if seen[source] == _OUT:
            return []
        seen[source] = stamp
        frontier = [source]
        rings = [frontier]
        held = 1
        for _ in range(hi):
            if limit is not None and held > limit:
                break
            reached = []
            for u in frontier:
                for v in nbrs[u]:
                    if seen[v] < stamp:
                        seen[v] = stamp
                        reached.append(v)
            if not reached:
                break
            rings.append(reached)
            held += len(reached)
            frontier = reached
        return rings


class _MetricCounter:
    """Counts pattern tuples on the chain's last position, where distance
    means: graph distance in the position that `marks` holds, shortcut
    through any of `levels` otherwise.  Every bound asked about is at most
    theta, up to which the levels are exact.  `size` is the position's
    size.  Everything is a vertex position: candidate sets are sets of
    positions and counts are keyed by the anchors' positions.  A candidate
    set lies inside the position but for vertices of `gone`, the ones the
    chain deleted, which read as absent: they are never marked, masked or
    counted as candidates, and no count is kept for them as anchors.
    `tables` is a pair: a dict interning candidate sets by value as small
    ints, and the span table, keyed by (set id, lo, hi), each entry a dict
    from vertex position to span.  The engine hands every counter with no
    level on one cluster the same pair; without one the counter keeps its
    own."""

    def __init__(self, marks: _Marks, levels: Sequence[_Level], theta: int,
                 size: int, tables: tuple[dict, dict] | None = None,
                 gone: frozenset[int] = frozenset()):
        self.marks = marks
        self.levels = levels
        self.theta = theta
        self.size = size
        self.set_ids, self.spans = tables or ({}, {})
        self.gone = gone

    def pattern_count(self, pattern: PatternGraph, bounds,
                      usets: dict[int, frozenset[int]]) -> dict[int, int]:
        """Tuples realizing the pattern with its edge bounds, each position
        in its set, per anchor position at position 1."""
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

    def _leg(self, pattern: PatternGraph, bounds, usets) -> dict[int, int]:
        """A connected pattern: width 1 counts each candidate once, width 2
        is _pair_counts, and every wider one is counted by _enumerate.  No
        anchor of `gone` keeps a count."""
        k = pattern.k
        if k == 1:
            out = dict.fromkeys(usets[1], 1)
        elif k > 2:
            out = self._enumerate(pattern, bounds, usets)
        else:
            lo, hi = _interval(bounds, self.theta, 1, 2)
            out = self._pair_counts(usets[1], usets[2], lo, hi)
        for g in self.gone:
            out.pop(g, None)
        return out

    def _pair_counts(self, anchors: Iterable[int], cands: frozenset[int],
                     lo: int, hi: int) -> dict[int, int]:
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
        nbrs = marks.nbrs
        stamp = marks.reserve(len(anchors))
        seen = marks.seen
        whole = self._whole(cands)
        chosen, choice = (None, 0) if whole else marks.choose(0, cands,
                                                              self.gone)
        dists = [level.dist for level in levels]
        # active levels -> the candidates they reach within hi and within lo
        unions: dict[tuple, tuple[int, int]] = {}
        cand_mask = None
        out = {}
        for s in anchors:
            # (level index, distance from s) for each level s reaches below hi
            active = []
            if dists:
                for i, dist in enumerate(dists):
                    sa = dist.get(s, hi)
                    if sa < hi:
                        active.append((i, sa))
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
                        cand_mask = self._mask(cands, whole)
                    union = unions[key] = (
                        self._union(active, hi, cand_mask),
                        self._union(active, lo, cand_mask))
                both_hi = both_lo = 0
                for depth, ring in enumerate(rings):
                    for v in ring:
                        if whole or chosen[v] == choice:
                            via = _INF
                            for i, sa in active:
                                sv = dists[i].get(v, _INF)
                                if sa + sv < via:
                                    via = sa + sv
                            if via <= hi:
                                both_hi += 1
                                if depth <= lo and via <= lo:
                                    both_lo += 1
                near += union[0] - both_hi
                low += union[1] - both_lo
            out[s] = near - low
        return out

    def _whole(self, cands: frozenset[int]) -> bool:
        """Whether `cands` holds every vertex of the position."""
        held = len(cands)
        for g in self.gone:
            if g in cands:
                held -= 1
        return held == self.size

    def _mask(self, cands: Iterable[int], whole: bool) -> int:
        """The bit mask of the candidates, without those of `gone`; for a
        set that holds the whole position, every bit but those of `gone`
        (a negative int), since a level holds no vertex outside the
        cluster."""
        gone = 0
        for g in self.gone:
            gone |= 1 << g
        if whole:
            return ~gone
        return _masks([cands], len(self.marks.seen))[0] & ~gone

    def _union(self, active, bound: int, cand_mask: int) -> int:
        """How many candidates of `cand_mask` lie within `bound` through
        some of the `active` (level index, distance) pairs."""
        union = 0
        for i, sa in active:
            if sa < bound:
                union |= self.levels[i].within(bound - sa)
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
            su = level.dist.get(u, _INF)
            for t in range(1, hi - su + 1):
                via = su + t
                for c in level.rings[t]:
                    if chosen[c] == choice and via < best.get(c, _INF):
                        best[c] = via
        return {c for c, dist in best.items() if dist > lo}

    def _enumerate(self, pattern: PatternGraph, bounds,
                   usets) -> dict[int, int]:
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
            steps.append((marks.choose(i, usets[p], self.gone), reads))
        out = {}
        for a in usets[1]:
            out[a] = self._extend(steps, [a])
        return out

    def _extend(self, steps, placed: list[int]) -> int:
        """The tuples of _enumerate that start with `placed`.  The next
        position's pool is its parent's span, intersected with the span of
        every other edge read, minus the span of every non-edge read.  The
        last position is not placed: its pool's size is the number of tuples
        that end there.  The next-to-last is not recursed into either: the
        last position's reads of earlier positions make one fixed pool, and
        one loop over the next-to-last's pool adds the size of the fixed
        pool narrowed by each element's span, so a width-3 count is one
        pass over the anchor's span.  A method, not a nested function: a
        recursive nested function holds itself in its closure cell, a
        reference cycle that only the cycle collector frees, and until then
        it would keep the steps and the span tables they read alive."""
        m = len(placed)
        pick, reads = steps[m - 1]
        pool = None
        for j, interval, edge, memo in reads:
            u = placed[j]
            got = memo.get(u)
            if got is None:
                got = memo[u] = self._span(u, interval, pick)
            pool = (got if pool is None
                    else pool & got if edge else pool - got)
        if m == len(steps):
            return len(pool)
        total = 0
        if m + 1 < len(steps):
            for c in pool:
                placed.append(c)
                total += self._extend(steps, placed)
                placed.pop()
            return total
        # the last position reads every placed position: `fixed` is the
        # pool of the reads before the next-to-last, `drop` the spans it
        # loses when no edge read narrows it
        pick, reads = steps[m]
        fixed, drop = None, []
        for read in reads:
            j, interval, edge, memo = read
            if j == m:
                last = read
                continue
            u = placed[j]
            got = memo.get(u)
            if got is None:
                got = memo[u] = self._span(u, interval, pick)
            if edge:
                fixed = got if fixed is None else fixed & got
            else:
                drop.append(got)
        _, interval, edge, memo = last
        if fixed is not None and drop:
            fixed, drop = fixed.difference(*drop), []
        for c in pool:
            got = memo.get(c)
            if got is None:
                got = memo[c] = self._span(c, interval, pick)
            if not edge:
                # a non-edge read: the parent, placed earlier, fixed the pool
                total += len(fixed) - len(fixed.intersection(got))
            elif fixed is not None:
                total += len(fixed.intersection(got))
            else:
                total += len(got.difference(*drop)) if drop else len(got)
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
    symbols = [sym for layer in decomp.layers for sym in layer.symbols]
    engine.stats.symbols = len(symbols)
    engine.stats.symbols_decomposed = sum(sym.decomposed for sym in symbols)
    return value, decomp, engine.stats
