"""Localized evaluation of basic cl-terms on sparse structures.

Anchored counts are computed cluster by cluster over a neighbourhood cover:
each anchor's whole evaluation ball lies inside its cluster, so per-cluster
work never leaves the cluster.  Inside a cluster the engine either counts
directly (small or low-degree clusters) or repeatedly deletes a splitter
vertex: the count splits into pieces indexed by the tuple positions pinned
to the deleted vertex, mirroring removal_unary_term / removal_ground_term,
and the pieces are counted on the smaller structure.  Width-1 terms skip the
cover: a unary one is the 0/1 indicator of psi at the anchor, a ground one
the number of elements satisfying psi, and both are evaluated directly.

Distances of the pre-removal structure are recovered exactly from the
smaller one: d_old(u, v) = min(d_new(u, v), min over removed c of
s_c(u) + s_c(v)), where s_c is the bounded distance-to-c map saved at the
step that deleted c.  Counting against these shortcut levels uses per-level
threshold tables with inclusion-exclusion, which is what makes hub-heavy
structures (stars) near-linear instead of quadratic.

When a condition does not split into per-position factors, or quantifiers
make per-element re-evaluation unsafe after deletions, the engine falls
back to direct in-cluster counting: always correct, flagged in the stats.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Mapping, Sequence

from .cldecomp import (BasicClTerm, cl_decompose, cross_extensions,
                       delta_formula, eval_basic_cl, eval_decomposition,
                       has_quantifier)
from .covers import EXACT_GAME_CAP, build_cover, solve_splitter, splitter_move
from .errors import InputError
from .logic import (Atom, Formula, Registry, conj, default_registry,
                    flatten_conj, free_vars, subst_free)
from .naive import Evaluator
from .removal import BasicTerm, removal_ground_term, removal_unary_term
from .structures import (GaifmanGraph, PatternGraph, Structure, gaifman_graph)

_INF = 10 ** 9
# more shortcut levels than this and _UnionTable scans instead of tabulating
_MAX_TABLE_LEVELS = 6


@dataclass
class EvalConfig:
    """Knobs for the localized engine.  `rounds_fn` (a map from game radius
    to a round budget) sizes the recursion budget; the exact game value
    replaces it on structures small enough to solve."""

    rounds_fn: Callable[[int], int] | None = None
    recursion_cap: int = 16
    brute_force_threshold: int = 32
    cluster_direct_max: int = 32
    hub_degree_threshold: int = 16
    cross_check: bool = False

    def __post_init__(self):
        if self.recursion_cap < 1:
            raise InputError("recursion_cap must be >= 1")


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
    """Current structure plus one bounded distance map per deleted vertex."""

    structure: Structure
    levels: tuple[Mapping[str, int], ...]


_Filters = Mapping[int, tuple[tuple[int, int, bool], ...]]


def _split_factors(term: BasicClTerm):
    """Per-position single-variable factors of psi plus its closed conjuncts,
    or None when some conjunct ties several tuple variables together."""
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
    return {p: conj(fs) for p, fs in factors.items()}, closed


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
        budget, bound = self._budget(structure, 2 * radius)
        out: dict[str, int] = {}
        for cid, cluster in enumerate(cover.clusters):
            out.update(self._cluster(structure, cluster, term,
                                     cover.members(cid), budget, bound))
        return out

    def _budget(self, structure: Structure, game_radius: int):
        """Recursion budget, from the exact game value when the structure is
        small enough to solve; value bounds every cluster's game value by
        subgraph closure."""
        if len(structure.universe) <= EXACT_GAME_CAP:
            gv = solve_splitter(gaifman_graph(structure), game_radius,
                                round_cap=len(structure.universe) + 1)
            return max(gv.value - 1, 0), gv.value
        if self.cfg.rounds_fn is not None:
            return max(self.cfg.rounds_fn(game_radius), 0), None
        return self.cfg.recursion_cap, None

    def _cluster(self, structure: Structure, cluster: frozenset[str],
                 term: BasicClTerm, members: Sequence[str], budget: int,
                 bound_known: int | None) -> dict[str, int]:
        sub = structure.induced(cluster)
        self.stats.clusters += 1
        self._depth_seen = 0
        split = _split_factors(term)
        if split is None:
            if self._hubby(gaifman_graph(sub)):
                self.stats.flag("unfactorized condition on a high-degree "
                                "cluster: direct counting")
            values = {a: eval_basic_cl(sub, term, a, self.registry)
                      for a in members}
        else:
            factors, closed = split
            factors, sub = self._materialize_quantified(factors, sub)
            live = all(Evaluator(sub, self.registry).evaluate(c)
                       for c in closed)
            if not live:
                values = {a: 0 for a in members}
            else:
                canon = {pos: subst_free(f, dict(zip(free_vars(f),
                                                     [f"y{pos}"])))
                         for pos, f in factors.items()}
                self._theta = term.threshold
                state = _State(sub, ())
                counts = self._count(state, term.pattern, canon,
                                     {p: () for p in canon}, 1,
                                     set(members), budget, 0)
                values = {a: counts.get(a, 0) for a in members}
                if bound_known is not None:
                    self.stats.depth_bound_checks += 1
                    if self._depth_seen > max(bound_known - 1, 0):
                        raise RuntimeError(
                            f"removal depth {self._depth_seen} exceeded the "
                            f"exact game value {bound_known}")
        if self.cfg.cross_check and len(sub.universe) <= 64:
            direct = {a: eval_basic_cl(sub, term, a, self.registry)
                      for a in members}
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

    def _materialize_quantified(self, factors: dict[int, Formula],
                                sub: Structure):
        """Quantified per-position conditions are one-variable formulas;
        tag the elements satisfying them once per cluster so the factor
        becomes a plain atom for the counting machinery."""
        out = dict(factors)
        for pos in sorted(out):
            f = out[pos]
            if not has_quantifier(f):
                continue
            (fvar,) = free_vars(f)
            mark = f"F__{pos}"
            while sub.signature.has(mark):
                mark += "_"
            ev = Evaluator(sub, self.registry)
            rows = [(b,) for b in sub.universe if ev.evaluate(f, {fvar: b})]
            sub = sub.expand({mark: (1, rows)})
            out[pos] = Atom(mark, (fvar,))
        return out, sub

    def _hubby(self, graph: GaifmanGraph) -> bool:
        if not graph.vertices:
            return False
        return max(len(graph.adj[v]) for v in graph.vertices) \
            > self.cfg.hub_degree_threshold

    # -- removal recursion -------------------------------------------------

    def _count(self, state: _State, pattern: PatternGraph,
               factors: dict[int, Formula], filters: _Filters,
               anchorpos: int | None, members: set[str] | None,
               budget: int, depth: int):
        """Tuples over the original cluster metric realizing `pattern` whose
        per-position factors and shortcut-level filters hold; dict per anchor
        when anchored, int when ground."""
        self._depth_seen = max(self._depth_seen, depth)
        sub = state.structure
        graph = gaifman_graph(sub)
        tame = (not self._hubby(graph)
                or len(sub.universe) <= self.cfg.cluster_direct_max)
        if tame or budget <= 0:
            if not tame:
                self.stats.flag("recursion budget exhausted: direct counting")
            return self._metric_count(state, pattern, factors, filters,
                                      anchorpos, members)
        d = splitter_move(graph, self._connector_pick(graph),
                          2 * self._eval_radius_hint(pattern))
        level = self._shortcut_level(state, d)
        smaller = sub.induced([b for b in sub.universe if b != d])
        state2 = _State(smaller, state.levels + (level,))
        self.stats.removal_steps += 1
        k = pattern.k
        vars = tuple(f"y{i}" for i in range(1, k + 1))
        named = []
        for p in sorted(factors):
            f = factors[p]
            fv = free_vars(f)
            named.append(subst_free(f, {next(iter(fv)): vars[p - 1]})
                         if fv else f)
        body = conj(named + [delta_formula(pattern, self._theta, vars)])
        if anchorpos is not None:
            split = removal_unary_term(BasicTerm(vars[1:], body, vars[0]),
                                       self._theta)
            alive_members = members - {d}
            out: dict[str, int] = {}
            for pinned, _piece in split.unaries:
                part = self._piece(state, state2, pattern, factors, filters,
                                   pinned, d, 1, alive_members,
                                   budget - 1, depth + 1)
                for a, v in part.items():
                    out[a] = out.get(a, 0) + v
            if d in members:
                at_d = 0
                for pinned, _piece in split.grounds:
                    val = self._piece(state, state2, pattern, factors,
                                      filters, pinned, d, None, None,
                                      budget - 1, depth + 1)
                    at_d += val
                out[d] = at_d
            return out
        pieces = removal_ground_term(BasicTerm(vars, body), self._theta)
        total = 0
        for pinned, _piece in pieces:
            total += self._piece(state, state2, pattern, factors, filters,
                                 pinned, d, None, None, budget - 1, depth + 1)
        return total

    def _piece(self, state: _State, state2: _State, pattern: PatternGraph,
               factors: dict[int, Formula], filters: _Filters,
               pinned: tuple[int, ...], d: str, anchorpos: int | None,
               members: set[str] | None, budget: int, depth: int):
        """One pinned-subset branch: positions in `pinned` take the deleted
        vertex, the rest are counted on the smaller structure."""
        zero: object = {} if anchorpos is not None else 0
        if not pinned:
            return self._count(state2, pattern, factors, filters, anchorpos,
                               members, budget, depth)
        pset = set(pinned)
        for i in pinned:
            for j in pinned:
                if i < j and not pattern.has_edge(i, j):
                    return zero
        sub = state.structure
        ev = Evaluator(sub, self.registry)
        for i in pinned:
            if not self._passes_filters(filters.get(i, ()), state.levels, d):
                return zero
            f = factors[i]
            fv = free_vars(f)
            if not ev.evaluate(f, {next(iter(fv)): d} if fv else None):
                return zero
        alive = [p for p in range(1, pattern.k + 1) if p not in pset]
        if not alive:
            return ({} if anchorpos is not None else 1)
        new_level_idx = len(state.levels)
        remap = {p: i + 1 for i, p in enumerate(alive)}
        sub_pattern = pattern.induced(alive)
        sub_factors: dict[int, Formula] = {}
        sub_filters: dict[int, tuple] = {}
        for p in alive:
            sub_factors[remap[p]] = factors[p]
            conds = list(filters.get(p, ()))
            keeps = {pattern.has_edge(min(i, p), max(i, p)) for i in pinned}
            if len(keeps) > 1:
                return zero
            conds.append((new_level_idx, self._theta, keeps.pop()))
            sub_filters[remap[p]] = tuple(conds)
        new_anchor = remap[anchorpos] if anchorpos is not None else None
        return self._count(state2, sub_pattern, sub_factors, sub_filters,
                           new_anchor, members, budget, depth)

    def _shortcut_level(self, state: _State, d: str) -> dict[str, int]:
        """Distances to d in the cluster's original metric, capped at the
        threshold.  Paths through previously deleted vertices are restored
        by shortcutting over their recorded levels, so by induction every
        stored level map is exact for the original metric."""
        theta = self._theta
        raw = state.structure.ball_with_dist(d, theta)
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

    def _connector_pick(self, graph: GaifmanGraph) -> str:
        return max(sorted(graph.vertices),
                   key=lambda v: len(graph.adj[v]))

    def _eval_radius_hint(self, pattern: PatternGraph) -> int:
        r = (self._theta - 1) // 2
        return r + (pattern.k - 1) * self._theta

    @staticmethod
    def _passes_filters(conds, levels, b: str) -> bool:
        for level_idx, bound, keep in conds:
            close = levels[level_idx].get(b, _INF) <= bound
            if close != keep:
                return False
        return True

    # -- base-level counting against the shortcut metric -------------------

    def _metric_count(self, state: _State, pattern: PatternGraph,
                      factors: dict[int, Formula], filters: _Filters,
                      anchorpos: int | None, members: set[str] | None):
        counter = _MetricCounter(state, self._theta, self.registry)
        usets = {}
        for pos in range(1, pattern.k + 1):
            usets[pos] = counter.uset(factors[pos], filters.get(pos, ()))
        if anchorpos is not None:
            usets[anchorpos] = usets[anchorpos] & frozenset(members)
        return counter.pattern_count(pattern, usets, anchorpos)


class _MetricCounter:
    """Counts pattern tuples where distance means: graph distance in the
    current structure, shortcut through any recorded level otherwise."""

    def __init__(self, state: _State, theta: int, registry: Registry):
        self.state = state
        self.theta = theta
        self.registry = registry
        self._balls: dict[str, frozenset[str]] = {}
        self._tables: dict[frozenset[str], _UnionTable] = {}
        self._ev = Evaluator(state.structure, registry)

    def uset(self, factor: Formula, conds) -> frozenset[str]:
        sub = self.state.structure
        fv = free_vars(factor)
        if not fv:
            keep_all = bool(self._ev.evaluate(factor))
            base = sub.universe if keep_all else ()
        else:
            var = next(iter(fv))
            base = (b for b in sub.universe
                    if self._ev._eval(factor, {var: b}))
        levels = self.state.levels
        return frozenset(b for b in base
                         if _Localizer._passes_filters(conds, levels, b))

    def ball(self, b: str) -> frozenset[str]:
        got = self._balls.get(b)
        if got is None:
            got = frozenset(self.state.structure.ball(b, self.theta))
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
                      usets: dict[int, frozenset[str]],
                      anchorpos: int | None):
        comps = pattern.components()
        if len(comps) == 1:
            return self._leg(pattern, usets, anchorpos)
        home = next(c for c in comps
                    if (anchorpos or 1) in c)
        rest = frozenset(range(1, pattern.k + 1)) - home
        side_val = self._restricted(pattern, usets, home, anchorpos)
        rest_val = self._restricted(pattern, usets, rest, None)
        corrections = [self.pattern_count(ext, usets, anchorpos)
                       for ext in cross_extensions(pattern, home)]
        if anchorpos is None:
            return side_val * rest_val - sum(corrections)
        out = {}
        for a, v in side_val.items():
            c = sum(corr.get(a, 0) for corr in corrections)
            out[a] = v * rest_val - c
        return out

    def _restricted(self, pattern: PatternGraph, usets, positions,
                    anchorpos: int | None):
        pos = sorted(positions)
        remap = {p: i + 1 for i, p in enumerate(pos)}
        sub_usets = {remap[p]: usets[p] for p in pos}
        new_anchor = remap[anchorpos] if anchorpos is not None else None
        return self.pattern_count(pattern.induced(pos), sub_usets, new_anchor)

    def _leg(self, pattern: PatternGraph, usets, anchorpos: int | None):
        k = pattern.k
        if anchorpos is None:
            if k == 1:
                return len(usets[1])
            if k == 2:
                return sum(self.pair_count(b, usets[2]) for b in usets[1])
            return self._enumerate(pattern, usets, None)
        if k == 1:
            return {a: 1 for a in usets[anchorpos]}
        if k == 2:
            other = 2 if anchorpos == 1 else 1
            return {a: self.pair_count(a, usets[other])
                    for a in usets[anchorpos]}
        return self._enumerate(pattern, usets, anchorpos)

    def _enumerate(self, pattern: PatternGraph, usets,
                   anchorpos: int | None):
        """Tuples of the connected pattern, placed in BFS order from the
        anchor; a partial tuple is dropped as soon as a pair of placed
        positions breaks an edge or a non-edge."""
        order = [p for p, _ in pattern.spanning_tree(anchorpos or 1)]
        checks = [tuple((j, pattern.has_edge(order[j], p)) for j in range(i))
                  for i, p in enumerate(order)]
        cands = [usets[p] for p in order]
        if anchorpos is None:
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
