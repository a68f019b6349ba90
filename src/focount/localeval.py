"""Localized evaluation of basic cl-terms on sparse structures.

Anchored counts are computed cluster by cluster over a neighbourhood cover:
each anchor's whole evaluation ball lies inside its cluster, so per-cluster
work never leaves the cluster.  The structure's one Gaifman graph serves the
whole evaluation: a cluster, and every removal position inside it, is a set
of its vertices, and balls, degrees and moves read the graph restricted to
that set, so a deletion keeps every adjacency between the other vertices,
whatever the arity of the tuple behind it.  Inside a cluster the engine
either counts directly (small or low-degree clusters) or repeatedly deletes
a splitter vertex.  For the deletions psi is split into one-variable
factors, and each pattern position carries the set of cluster elements
satisfying its factor, evaluated once per cluster before any deletion, since
a one-variable condition does not change when other elements are deleted.
A quantifier-free factor is evaluated on the structure itself; a factor
with a quantifier, which scans its whole universe, on the cluster's induced
structure, the one structure copy the engine makes.  Deleting d splits the
count into pieces indexed by the positions pinned to d: a pinned position
needs d in its set, every other position's set loses d and keeps the side of
d's shortcut level that the pattern asks for, and the pieces are counted on
the smaller position.  Width-1 terms skip the cover: a unary one is the 0/1
indicator of psi at the anchor, a ground one the number of elements
satisfying psi, and both are evaluated directly.

The deleted vertex is the splitter's reply to a pick of the vertex of
highest degree.  One splitter game per game radius over the graph serves
the budget and every move on a position small enough to solve; on a larger
position the reply is the vertex of highest degree in the pick's ball.

Distances of the cluster are recovered exactly on a smaller position:
d_old(u, v) = min(d_new(u, v), min over removed c of s_c(u) + s_c(v)),
where s_c is the bounded distance-to-c map saved at the step that deleted
c.  Counting against these shortcut levels uses per-level threshold tables
with inclusion-exclusion, which is what makes hub-heavy structures (stars)
near-linear instead of quadratic.

When psi does not split into per-position factors, each member of the
cluster is counted by eval_basic_cl on the structure itself: always
correct, flagged in the stats on high-degree clusters.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Callable, Mapping, Sequence

from .cldecomp import (BasicClTerm, cl_decompose, cross_extensions,
                       eval_basic_cl, eval_decomposition, has_quantifier)
from .covers import (EXACT_GAME_CAP, SplitterGame, build_cover,
                     solve_splitter, splitter_move)
from .errors import InputError
from .logic import (Formula, Registry, default_registry, flatten_conj,
                    free_vars)
from .naive import Evaluator
# unused here; kept importable because perfbench's tracer patches them by name
from .removal import removal_ground_term, removal_unary_term  # noqa: F401
from .structures import GaifmanGraph, PatternGraph, Structure, gaifman_graph

_INF = 10 ** 9
# the recursion budget on structures too large to solve the game exactly,
# unless EvalConfig.rounds_fn sizes it
RECURSION_CAP = 16
# more shortcut levels than this and _UnionTable scans instead of tabulating
_MAX_TABLE_LEVELS = 6


@dataclass
class EvalConfig:
    """Knobs for the localized engine.  `rounds_fn` (a map from game radius
    to a round budget) sizes the recursion budget, RECURSION_CAP when it is
    None; the exact game value replaces it on structures small enough to
    solve."""

    rounds_fn: Callable[[int], int] | None = None
    brute_force_threshold: int = 32
    cluster_direct_max: int = 32
    hub_degree_threshold: int = 16
    cross_check: bool = False


@dataclass
class RunStats:
    clusters: int = 0
    direct_clusters: int = 0
    removal_clusters: int = 0
    removal_steps: int = 0
    max_depth: int = 0
    depth_histogram: dict[int, int] = field(default_factory=dict)
    fallbacks: list[str] = field(default_factory=list)
    depth_bound_checks: int = 0

    def note_cluster(self, depth: int) -> None:
        self.depth_histogram[depth] = self.depth_histogram.get(depth, 0) + 1
        self.max_depth = max(self.max_depth, depth)

    def flag(self, msg: str) -> None:
        if msg not in self.fallbacks:
            self.fallbacks.append(msg)

    def to_json(self) -> dict:
        return {
            "clusters": self.clusters,
            "direct_clusters": self.direct_clusters,
            "removal_clusters": self.removal_clusters,
            "removal_steps": self.removal_steps,
            "max_depth": self.max_depth,
            "depth_histogram": {str(k): v for k, v in
                                sorted(self.depth_histogram.items())},
            "fallbacks": list(self.fallbacks),
            "depth_bound_checks": self.depth_bound_checks,
        }


@dataclass(frozen=True)
class _State:
    """A removal position: the cluster's vertices not yet deleted, read as
    the structure's Gaifman graph restricted to them, plus one bounded
    distance map per deleted vertex."""

    alive: frozenset[str]
    levels: tuple[Mapping[str, int], ...]


def _split_factors(term: BasicClTerm):
    """Per-position lists of the single-variable conjuncts of psi plus its
    closed conjuncts, or None when some conjunct ties several tuple
    variables together."""
    pos_of = {v: i + 1 for i, v in enumerate(term.vars)}
    factors: dict[int, list[Formula]] = {i + 1: [] for i in range(term.k)}
    closed: list[Formula] = []
    for part in flatten_conj(term.psi):
        owners = {pos_of[v] for v in free_vars(part)}
        if len(owners) > 1:
            return None
        if owners:
            factors[owners.pop()].append(part)
        else:
            closed.append(part)
    return factors, closed


class _Localizer:
    """Engine instance: accumulates RunStats across calls."""

    def __init__(self, cfg: EvalConfig | None = None,
                 registry: Registry | None = None):
        self.cfg = cfg or EvalConfig()
        self.registry = registry or default_registry()
        self.stats = RunStats()

    # -- public entry points ----------------------------------------------

    def unary_values(self, structure: Structure,
                     term: BasicClTerm) -> dict[str, int]:
        if not term.unary:
            raise InputError("unary evaluation needs a unary basic term")
        term.check_local()
        if term.k == 1 or len(structure.universe) < self.cfg.brute_force_threshold:
            return {a: eval_basic_cl(structure, term, a, self.registry)
                    for a in structure.universe}
        return self._covered_values(structure, term)

    def ground_value(self, structure: Structure, term: BasicClTerm) -> int:
        if term.unary:
            raise InputError("ground evaluation needs a ground basic term")
        term.check_local()
        if term.k == 1 or len(structure.universe) < self.cfg.brute_force_threshold:
            return eval_basic_cl(structure, term, None, self.registry)
        anchored = BasicClTerm(term.vars, term.radius, term.pattern,
                               term.psi, unary=True)
        return sum(self._covered_values(structure, anchored).values())

    # -- cover loop --------------------------------------------------------

    def _covered_values(self, structure: Structure,
                        term: BasicClTerm) -> dict[str, int]:
        radius = term.eval_radius
        cover = build_cover(structure, radius)
        # one graph for every cluster and removal position, and one game per
        # game radius over it, built when first needed, so the budget and
        # every move in every cluster and at every depth read one memo
        self._structure = structure
        self._graph = gaifman_graph(structure)
        self._ev = Evaluator(structure, self.registry)
        self._games: dict[int, SplitterGame] = {}
        budget, bound = self._budget(2 * radius)
        out: dict[str, int] = {}
        for cid, cluster in enumerate(cover.clusters):
            out.update(self._cluster(cluster, term, cover.members(cid),
                                     budget, bound))
        return out

    def _game(self, radius: int) -> SplitterGame:
        game = self._games.get(radius)
        if game is None:
            game = self._games[radius] = SplitterGame(self._graph, radius)
        return game

    def _budget(self, game_radius: int):
        """Recursion budget and the depth bound checked against it, both
        from the structure's exact game value when the structure is small
        enough to solve.  The check holds by construction, since the budget
        is the bound minus one.  A cluster's own game value is no tighter
        bound: the recursion deletes from the whole cluster, not from the
        pick's ball, so its depth can exceed that value minus one."""
        vertices = self._graph.vertices
        if len(vertices) <= EXACT_GAME_CAP:
            game = self._game(game_radius)
            gv = solve_splitter(game.position(vertices), game_radius,
                                round_cap=len(vertices) + 1)
            return max(gv.value - 1, 0), gv.value
        if self.cfg.rounds_fn is not None:
            return max(self.cfg.rounds_fn(game_radius), 0), None
        return RECURSION_CAP, None

    def _cluster(self, cluster: frozenset[str], term: BasicClTerm,
                 members: Sequence[str], budget: int,
                 bound_known: int | None) -> dict[str, int]:
        self.stats.clusters += 1
        self._depth_seen = 0
        split = _split_factors(term)
        if split is None:
            if self._hubby(cluster):
                self.stats.flag("unfactorized condition on a high-degree "
                                "cluster: direct counting")
            values = {a: eval_basic_cl(self._structure, term, a,
                                       self.registry) for a in members}
        else:
            factors, closed = split
            # a closed conjunct has no quantifier: its guard would need a
            # free variable
            if all(self._ev.evaluate(c) for c in closed):
                usets = self._candidates(cluster, term, factors)
                usets[1] &= frozenset(members)
                self._theta = term.threshold
                counts = self._count(_State(cluster, ()), term.pattern, usets,
                                     True, budget, 0)
                values = {a: counts.get(a, 0) for a in members}
                if bound_known is not None:
                    self.stats.depth_bound_checks += 1
                    if self._depth_seen > max(bound_known - 1, 0):
                        raise RuntimeError(
                            f"removal depth {self._depth_seen} exceeded the "
                            f"exact game value {bound_known}")
            else:
                values = {a: 0 for a in members}
        if self.cfg.cross_check and len(cluster) <= 64:
            direct = {a: eval_basic_cl(self._structure, term, a,
                                       self.registry) for a in members}
            if direct != values:
                raise RuntimeError(
                    "localized cluster values diverge from direct counting: "
                    f"{values} vs {direct}")
        if self._depth_seen > 0:
            self.stats.removal_clusters += 1
        else:
            self.stats.direct_clusters += 1
        self.stats.note_cluster(self._depth_seen)
        return values

    def _candidates(self, cluster: frozenset[str], term: BasicClTerm,
                    factors: dict[int, list[Formula]]):
        """Per position, the cluster elements satisfying its factors.  A
        factor has one free variable, so whether an element satisfies it
        survives every later deletion.  A quantified factor is evaluated on
        the cluster's induced structure, built at most once."""
        local = None
        usets = {}
        for pos, fs in factors.items():
            var, cands = term.vars[pos - 1], cluster
            for f in fs:
                ev = self._ev
                if has_quantifier(f):
                    ev = local = local or Evaluator(
                        self._structure.induced(cluster), self.registry)
                cands = frozenset(b for b in cands if ev.evaluate(f, {var: b}))
            usets[pos] = cands
        return usets

    def _hubby(self, alive: frozenset[str]) -> bool:
        adj, cap = self._graph.adj, self.cfg.hub_degree_threshold
        return any(len(adj[v] & alive) > cap for v in alive)

    # -- removal recursion -------------------------------------------------

    def _count(self, state: _State, pattern: PatternGraph,
               usets: dict[int, frozenset[str]], anchored: bool,
               budget: int, depth: int):
        """Tuples over the original cluster metric realizing `pattern` with
        each position in its candidate set; dict per anchor (position 1)
        when anchored, int when ground."""
        self._depth_seen = max(self._depth_seen, depth)
        alive = state.alive
        tame = (len(alive) <= self.cfg.cluster_direct_max
                or not self._hubby(alive))
        if tame or budget <= 0:
            if not tame:
                self.stats.flag("recursion budget exhausted: direct counting")
            return _MetricCounter(self._graph, state, self._theta) \
                .pattern_count(pattern, usets, anchored)
        pick = self._connector_pick(alive)
        radius = 2 * self._eval_radius_hint(pattern)
        # positions small enough to solve read the shared game's memo
        position = (self._game(radius).position(alive)
                    if len(alive) <= EXACT_GAME_CAP
                    else self._graph.subgraph(alive))
        d = splitter_move(position, pick, radius)
        level = self._shortcut_level(state, d)
        state2 = _State(alive - {d}, state.levels + (level,))
        self.stats.removal_steps += 1
        total = 0
        out: dict[str, int] = {d: 0}
        for size in range(pattern.k + 1):
            for pinned in combinations(range(1, pattern.k + 1), size):
                val = self._piece(state2, pattern, usets, pinned, d,
                                  anchored and 1 not in pinned,
                                  budget - 1, depth + 1)
                if not anchored:
                    total += val
                elif 1 in pinned:
                    out[d] += val
                else:
                    for a, v in val.items():
                        out[a] = out.get(a, 0) + v
        return out if anchored else total

    def _piece(self, state2: _State, pattern: PatternGraph,
               usets: dict[int, frozenset[str]], pinned: tuple[int, ...],
               d: str, anchored: bool, budget: int, depth: int):
        """One pinned-subset branch: positions in `pinned` take the deleted
        vertex d, the rest are counted on the smaller position, each on
        the side of d's level that its pattern edges to `pinned` ask for."""
        zero: object = {} if anchored else 0
        if any(d not in usets[i] for i in pinned) or not all(
                pattern.has_edge(i, j) for i, j in combinations(pinned, 2)):
            return zero
        if not pinned:
            return self._count(state2, pattern,
                               {p: s - {d} for p, s in usets.items()},
                               anchored, budget, depth)
        others = [p for p in range(1, pattern.k + 1) if p not in pinned]
        if not others:  # only a ground piece pins every position
            return 1
        level = state2.levels[-1]
        sub_usets = {}
        for new, p in enumerate(others, 1):
            keep = pattern.has_edge(pinned[0], p)
            if any(pattern.has_edge(i, p) != keep for i in pinned):
                return zero
            sub_usets[new] = frozenset(
                b for b in usets[p]
                if b != d and (level.get(b, _INF) <= self._theta) == keep)
        return self._count(state2, pattern.induced(others), sub_usets,
                           anchored, budget, depth)

    def _shortcut_level(self, state: _State, d: str) -> dict[str, int]:
        """Distances to d in the cluster's original metric, capped at the
        threshold.  Paths through previously deleted vertices are restored
        by shortcutting over their recorded levels, so by induction every
        stored level map is exact for the original metric."""
        theta = self._theta
        raw = self._graph.ball(d, theta, allowed=state.alive)
        best = {b: dist for b, dist in raw.items() if b != d}
        for lv in state.levels:
            sd = lv.get(d)
            if sd is None:
                continue
            for b, sb in lv.items():
                if b == d:
                    continue
                via = sd + sb
                if via <= theta and via < best.get(b, _INF):
                    best[b] = via
        return best

    def _connector_pick(self, alive: frozenset[str]) -> str:
        adj = self._graph.adj
        return max(sorted(alive), key=lambda v: len(adj[v] & alive))

    def _eval_radius_hint(self, pattern: PatternGraph) -> int:
        r = (self._theta - 1) // 2
        return r + (pattern.k - 1) * self._theta


class _MetricCounter:
    """Counts pattern tuples where distance means: graph distance in the
    current position, shortcut through any recorded level otherwise."""

    def __init__(self, graph: GaifmanGraph, state: _State, theta: int):
        self.graph = graph
        self.state = state
        self.theta = theta
        self._balls: dict[str, frozenset[str]] = {}
        self._tables: dict[frozenset[str], _UnionTable] = {}

    def ball(self, b: str) -> frozenset[str]:
        got = self._balls.get(b)
        if got is None:
            got = frozenset(self.graph.ball(b, self.theta,
                                            allowed=self.state.alive))
            self._balls[b] = got
        return got

    def within(self, u: str, v: str) -> bool:
        if u == v or v in self.ball(u):
            return True
        for level in self.state.levels:
            su = level.get(u)
            if su is not None and su + level.get(v, _INF) <= self.theta:
                return True
        return False

    def pattern_count(self, pattern: PatternGraph,
                      usets: dict[int, frozenset[str]], anchored: bool):
        """Tuples with each position in its set; dict per anchor (position
        1) when anchored, int when ground."""
        comps = pattern.components()
        if len(comps) == 1:
            return self._leg(pattern, usets, anchored)
        home = comps[0]
        rest = frozenset(range(1, pattern.k + 1)) - home
        side_val = self._restricted(pattern, usets, home, anchored)
        rest_val = self._restricted(pattern, usets, rest, False)
        corrections = [self.pattern_count(ext, usets, anchored)
                       for ext in cross_extensions(pattern, home)]
        if not anchored:
            return side_val * rest_val - sum(corrections)
        out = {}
        for a, v in side_val.items():
            c = sum(corr.get(a, 0) for corr in corrections)
            out[a] = v * rest_val - c
        return out

    def _restricted(self, pattern: PatternGraph, usets, positions,
                    anchored: bool):
        pos = sorted(positions)
        sub_usets = {i: usets[p] for i, p in enumerate(pos, 1)}
        return self.pattern_count(pattern.induced(pos), sub_usets, anchored)

    def _leg(self, pattern: PatternGraph, usets, anchored: bool):
        k = pattern.k
        if not anchored:
            if k == 1:
                return len(usets[1])
            if k == 2:
                return sum(self.pair_count(b, usets[2]) for b in usets[1])
            return self._enumerate(pattern, usets, False)
        if k == 1:
            return {a: 1 for a in usets[1]}
        if k == 2:
            return {a: self.pair_count(a, usets[2]) for a in usets[1]}
        return self._enumerate(pattern, usets, True)

    def _enumerate(self, pattern: PatternGraph, usets, anchored: bool):
        """Tuples of the connected pattern, placed in BFS order from
        position 1; a partial tuple is dropped as soon as a pair of placed
        positions breaks an edge or a non-edge."""
        order = [p for p, _ in pattern.spanning_tree(1)]
        checks = [tuple((j, pattern.has_edge(order[j], p)) for j in range(i))
                  for i, p in enumerate(order)]
        cands = [usets[p] for p in order]
        if not anchored:
            return self._extend(cands, checks, [])
        return {a: self._extend(cands, checks, [a]) for a in cands[0]}

    def _extend(self, cands, checks, placed: list[str]) -> int:
        i = len(placed)
        if i == len(cands):
            return 1
        total = 0
        for c in cands[i]:
            if all(self.within(placed[j], c) == edge for j, edge in checks[i]):
                placed.append(c)
                total += self._extend(cands, checks, placed)
                placed.pop()
        return total

    def pair_count(self, b: str, uset: frozenset[str]) -> int:
        """|{c in uset : within(b, c)}| via explicit ball plus level tables."""
        expl = self.ball(b)
        base = sum(1 for c in expl if c in uset)
        active = []
        for idx, level in enumerate(self.state.levels):
            sb = level.get(b)
            if sb is not None and self.theta - sb >= 1:
                active.append((idx, self.theta - sb))
        if not active:
            return base
        table = self._tables.get(uset)
        if table is None:
            table = _UnionTable(uset, self.state.levels, self.theta)
            self._tables[uset] = table
        union = table.union_count(active)
        overlap = 0
        for c in expl:
            if c in uset and any(
                    self.state.levels[idx].get(c, _INF) <= t
                    for idx, t in active):
                overlap += 1
        return base + union - overlap


class _UnionTable:
    """Counts |U ∩ union of level-threshold sets| by inclusion-exclusion
    over cumulative per-subset tables; falls back to scanning U when there
    are too many levels to tabulate."""

    def __init__(self, uset: frozenset[str], levels, theta: int):
        self.uset = uset
        self.levels = levels
        self.theta = theta
        self.scan_mode = len(levels) > _MAX_TABLE_LEVELS
        if self.scan_mode:
            return
        cap = theta + 1
        vecs = [tuple(min(level.get(b, _INF), cap) for level in levels)
                for b in uset]
        self._cum: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        n_levels = len(levels)
        for mask in range(1, 1 << n_levels):
            idxs = tuple(i for i in range(n_levels) if mask >> i & 1)
            counts: dict[tuple[int, ...], int] = {}
            for vec in vecs:
                key = tuple(vec[i] for i in idxs)
                counts[key] = counts.get(key, 0) + 1
            self._cum[idxs] = _prefix_sums(counts, len(idxs), cap)

    def union_count(self, active: list[tuple[int, int]]) -> int:
        if self.scan_mode:
            hits = 0
            for b in self.uset:
                if any(self.levels[idx].get(b, _INF) <= t
                       for idx, t in active):
                    hits += 1
            return hits
        total = 0
        m = len(active)
        for mask in range(1, 1 << m):
            chosen = [active[i] for i in range(m) if mask >> i & 1]
            idxs = tuple(idx for idx, _ in chosen)
            point = tuple(min(t, self.theta) for _, t in chosen)
            cum = self._cum[idxs]
            val = cum.get(point, 0)
            sign = -1 if bin(mask).count("1") % 2 == 0 else 1
            total += sign * val
        return total


def _prefix_sums(counts: dict[tuple[int, ...], int], dims: int,
                 cap: int) -> dict[tuple[int, ...], int]:
    cum = dict(counts)
    domain = range(1, cap + 1)
    for axis in range(dims):
        for point in product(domain, repeat=dims):
            if point[axis] > 1:
                prev = list(point)
                prev[axis] -= 1
                cum[point] = cum.get(point, 0) + cum.get(tuple(prev), 0)
            elif point not in cum:
                cum[point] = 0
    return cum


# -- public API ------------------------------------------------------------


def localized_unary(structure: Structure, term: BasicClTerm,
                    cfg: EvalConfig | None = None,
                    registry: Registry | None = None):
    """Per-element values of a unary basic cl-term; equals eval_basic_cl at
    every element."""
    engine = _Localizer(cfg, registry)
    values = engine.unary_values(structure, term)
    return values, engine.stats


def localized_ground(structure: Structure, term: BasicClTerm,
                     cfg: EvalConfig | None = None,
                     registry: Registry | None = None):
    """Value of a ground basic cl-term via per-anchor localized counting."""
    engine = _Localizer(cfg, registry)
    value = engine.ground_value(structure, term)
    return value, engine.stats


def evaluate(expr, structure: Structure, cfg: EvalConfig | None = None,
             registry: Registry | None = None):
    """End-to-end localized evaluation: decompose, then run the layers with
    the localized engine.  Returns (value, decomposition, stats)."""
    registry = registry or default_registry()
    decomp = cl_decompose(expr, structure.signature, registry)
    engine = _Localizer(cfg, registry)

    def run(sub: Structure, basic: BasicClTerm):
        if basic.unary:
            return engine.unary_values(sub, basic)
        return engine.ground_value(sub, basic)

    value = eval_decomposition(decomp, structure, registry, run)
    return value, decomp, engine.stats
