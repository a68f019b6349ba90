"""Neighbourhood covers, the vertex-removal game, and removal structures.

A cover with locality radius r assigns every element a connected cluster
containing its full r-ball; clusters are grown greedily as 2r-balls around
centres in degree order, members found by one boundary search, so the
cluster radius bound is s = 2r.  The removal game (one side picks a vertex
a, the other deletes one vertex from the r-ball of a, play continues on the
ball minus the deletion) yields the recursion depth budget for the
localized evaluator, which reads the game's value on structures of at most
EXACT_GAME_CAP vertices only once a chain deletes, and deletes its own
top-degree vertex at every step.  A SplitterGame solves the game exactly on
bitmask positions, component by component, with one memo for its solve and
moves; on a graph larger than EXACT_GAME_CAP the reply is the vertex of
highest degree in the pick's ball.  The CLI `game` command and the tests
are the solver's other readers.

A cover and a game depend on the Gaifman graph and the radius alone, so
each graph keeps one of each per radius in GaifmanGraph.derived: the first
build_cover, solve_splitter or splitter_move on a graph and radius builds
it, and every later call reads it.  The layer structures of an evaluation
are expansions by unary and 0-ary relations, which read the graph of the
structure they expand, so the layers of one evaluation, and evaluations of
several queries on one structure, share its covers and games.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .errors import InputError
from .structures import (GaifmanGraph, Signature, Structure, cached,
                         gaifman_graph)


def as_graph(g) -> GaifmanGraph:
    if isinstance(g, Structure):
        return gaifman_graph(g)
    if isinstance(g, GaifmanGraph):
        return g
    raise InputError(f"expected a structure or graph, got {type(g).__name__}")


def _memo(graph: GaifmanGraph, key: tuple[str, int], build: Callable):
    """graph.derived[key], built by `build` on first use."""
    got = graph.derived.get(key)
    if got is None:
        got = graph.derived[key] = build()
    return got


# -- covers ----------------------------------------------------------------


@dataclass(frozen=True)
class Cover:
    """Clusters indexed 0..m-1; every element is assigned to one cluster.
    Every reader of a graph and radius shares the one cover build_cover
    made, so a cover cannot be changed: its fields are fixed and the
    assignment is a read-only view."""

    r: int
    s: int
    clusters: tuple[frozenset[str], ...]
    centres: tuple[str, ...]
    assignment: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "assignment",
                           MappingProxyType(self.assignment))

    @cached
    def _members(self) -> dict[int, list[str]]:
        # the assignment inverted once, so that members() is a lookup
        out: dict[int, list[str]] = {}
        for a in sorted(self.assignment):
            out.setdefault(self.assignment[a], []).append(a)
        return out

    def members(self, cid: int) -> tuple[str, ...]:
        """The elements assigned to cluster `cid`, sorted."""
        return tuple(self._members.get(cid, ()))

    def degrees(self) -> dict[str, int]:
        deg: dict[str, int] = {}
        for cluster in self.clusters:
            for a in cluster:
                deg[a] = deg.get(a, 0) + 1
        return deg

    def max_degree(self) -> int:
        return max(self.degrees().values(), default=0)

    def total_weight(self) -> int:
        return sum(len(c) for c in self.clusters)


def build_cover(structure: Structure, r: int) -> Cover:
    """The cover of the structure's Gaifman graph at radius r, built on the
    first call for that graph and radius and read from
    GaifmanGraph.derived by every later one."""
    if r < 0:
        raise InputError("cover radius must be >= 0")
    graph = gaifman_graph(structure)
    return _memo(graph, ("cover", r), lambda: _greedy_cover(graph, r))


def _greedy_cover(graph: GaifmanGraph, r: int) -> Cover:
    """Greedy cover: in degree order (GaifmanGraph.by_degree) every
    still-unassigned vertex spawns the cluster ball(v, 2r) and captures each
    unassigned element whose r-ball fits inside: a valid (r, 2r) cover whose
    cluster degree is measured, not bounded.  One search per centre over the
    integer view, to depth 2r + 1, stamps distances with the cluster id.  An
    r-ball leaves the cluster exactly when an outside vertex lies within r,
    and the first one on a shortest path sits at level 2r + 1; one search
    from that level, r steps in, finds them all.  Both searches stop at
    their first empty level, so a radius beyond the graph's distances costs
    no more than the graph."""
    names, index, nbrs = graph.vertices, graph.index, graph.nbrs
    n, top = len(names), 2 * r
    # per position: the last cluster to reach it, the distance from that
    # centre (top + 1 once it is seen to be within r of outside), its owner
    stamp, dist, owner = [-1] * n, [0] * n, [-1] * n
    clusters: list[frozenset[str]] = []
    centres: list[str] = []
    for v in graph.by_degree:
        c = index[v]
        if owner[c] >= 0:
            continue
        cid = len(clusters)
        stamp[c], dist[c] = cid, 0
        ball, frontier = [], [c]
        for level in range(1, top + 2):
            ball += frontier
            reached = []
            for u in frontier:
                for w in nbrs[u]:
                    if stamp[w] != cid:
                        stamp[w], dist[w] = cid, level
                        reached.append(w)
            frontier = reached
            if not reached:
                break
        for _ in range(r):  # from level top + 1, just outside the ball
            if not frontier:
                break
            reached = []
            for u in frontier:
                for w in nbrs[u]:
                    if stamp[w] == cid and dist[w] <= top:
                        dist[w] = top + 1
                        reached.append(w)
            frontier = reached
        for w in ball:
            if owner[w] < 0 and dist[w] <= top:
                owner[w] = cid
        clusters.append(frozenset([names[w] for w in ball]))
        centres.append(v)
    assignment = {names[w]: cid for w, cid in enumerate(owner)}
    return Cover(r, top, tuple(clusters), tuple(centres), assignment)


@dataclass
class CoverReport:
    ok: bool
    problems: list[str]
    n: int
    cluster_count: int
    max_degree: int
    total_weight: int
    degree_histogram: dict[int, int]


def validate_cover(structure: Structure, cover: Cover,
                   max_problems: int = 20) -> CoverReport:
    """Check connectivity, ball containment, radius via the centre, and the
    weight bound total <= n * max_degree.  Every check reads GaifmanGraph.ball
    on names, so it stays independent of _greedy_cover's integer search: an
    element's r-ball must lie inside its cluster, and the cluster inside the
    s-ball of its centre taken within the cluster."""
    graph = gaifman_graph(structure)
    problems: list[str] = []

    def note(msg: str) -> None:
        if len(problems) < max_problems:
            problems.append(msg)

    n = len(graph.vertices)
    for a in graph.vertices:
        if a not in cover.assignment:
            note(f"element {a!r} has no cluster")
    for cid, cluster in enumerate(cover.clusters):
        centre = cover.centres[cid]
        if centre not in cluster:
            note(f"cluster {cid} misses its centre {centre!r}")
            continue
        reach = graph.ball(centre, cover.s, allowed=cluster)
        if len(reach) != len(cluster):
            far = sorted(cluster - set(reach))[:3]
            inner = graph.ball(centre, n, allowed=cluster)
            if len(inner) != len(cluster):
                note(f"cluster {cid} is disconnected (e.g. {far})")
            else:
                note(f"cluster {cid} exceeds radius {cover.s} from its centre "
                     f"(e.g. {far})")
    for a, cid in cover.assignment.items():
        cluster = cover.clusters[cid]
        if not graph.ball(a, cover.r).keys() <= cluster:
            note(f"ball({a!r}, {cover.r}) leaves its cluster {cid}")
    degrees = cover.degrees()
    hist: dict[int, int] = {}
    for d in degrees.values():
        hist[d] = hist.get(d, 0) + 1
    max_deg = max(degrees.values(), default=0)
    total = cover.total_weight()
    if total > n * max(max_deg, 1):
        note(f"total weight {total} exceeds n * max_degree")
    return CoverReport(not problems, problems, n, len(cover.clusters),
                       max_deg, total, hist)


# -- removal game ----------------------------------------------------------


@dataclass
class GameValue:
    """Exact solution of the removal game on a small graph."""

    radius: int
    value: int | None           # None: survival beyond round_cap
    round_cap: int
    strategy: dict[tuple[frozenset[str], str], str] = field(default_factory=dict)

    @property
    def survived(self) -> bool:
        return self.value is None


EXACT_GAME_CAP = 16


class SplitterGame:
    """The removal game at radius r on one Gaifman graph, with one memo.

    Vertices are bit indices in sorted-name order and a position is an int
    mask: the graph induced on the set bits.  After a pick a and a deletion
    b, play continues on ball(a, r) - {b}, the ball taken inside the current
    position.  The memo maps a position to the least number of rounds in
    which the deleting player clears it.  That number is at most the
    position's size, so the memo needs no round budget, and every solve and
    every move on any position of the graph reads the same memo.

    The value never grows when play passes to an induced subgraph: S <= T
    gives rounds(S) <= rounds(T).  By induction on |T|.  A pick's ball
    inside S lies inside its ball B inside T, so it is enough that a ball
    B' <= B is worth no more than B, a ball being worth the least
    1 + rounds(ball - b) over its vertices b.  Let b be the best deletion
    against B.  If b is in B', then B' - b <= B - b; otherwise
    B' - c <= B - b for any c in B'.  Either way some deletion from B'
    leaves a subset of B - b, which is smaller than T, so B' is worth at
    most 1 + rounds(B - b), the worth of B.

    Two rules follow, and neither changes a value.  A disconnected position
    is worth the maximum over its components, since every pick's ball lies
    inside the pick's component: only connected positions scan picks, and
    a component shared by many subpositions is solved once.  In a connected
    position, a pick whose ball lies inside a ball already scored is
    skipped, and the scan stops at the first ball that is the whole
    position.

    Balls and components grow frontier by frontier, and a second memo maps
    each frontier mask to the union of its vertices' adjacency masks, so a
    frontier seen before costs one lookup.

    Every memo holds exact values only: a pick scan that stops at its floor
    records nothing.  So a game that has solved other positions, at any
    round caps, answers a solve or a move as a fresh game would, and one
    game per graph and radius (GaifmanGraph.derived) serves every call."""

    def __init__(self, graph, r: int):
        if r < 0:
            raise InputError("need r >= 0")
        g = as_graph(graph)
        self.radius = r
        self.names = tuple(sorted(g.vertices))
        self.bit = {v: 1 << i for i, v in enumerate(self.names)}
        self.adj = [sum(map(self.bit.__getitem__, g.adj[v]))
                    for v in self.names]
        self.everything = (1 << len(self.names)) - 1
        self._rounds: dict[int, int] = {0: 0}
        # ball -> (rounds, first deletion in bit order that reaches them)
        self._replies: dict[int, tuple[int, int]] = {}
        # frontier -> union of its vertices' adjacency masks
        self._reach: dict[int, int] = {}

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.names[i] for i in _bits(mask))

    def ball(self, a: int, mask: int) -> int:
        """The r-ball around the vertex with bit `a` inside position
        `mask`."""
        return self._spread(a, mask, self.radius)

    def _spread(self, seed: int, mask: int, steps: int) -> int:
        """The vertices of `mask` within `steps` of the vertices of `seed`
        inside `mask`."""
        ball = frontier = seed
        for _ in range(steps):
            reach = self._reach.get(frontier)
            if reach is None:
                reach = 0
                for v in _bits(frontier):
                    reach |= self.adj[v]
                self._reach[frontier] = reach
            frontier = reach & mask & ~ball
            if not frontier:
                break
            ball |= frontier
        return ball

    def rounds(self, mask: int) -> int:
        """Least number of rounds in which the deleting player clears
        `mask`: the maximum over its components of their values."""
        got = self._rounds.get(mask)
        if got is not None:
            return got
        component = self._spread(mask & -mask, mask, len(self.names))
        if component == mask:
            got = self._connected_rounds(mask)
        else:
            got = max(self.rounds(component), self.rounds(mask ^ component))
        self._rounds[mask] = got
        return got

    def _connected_rounds(self, mask: int) -> int:
        """rounds() of a connected position: the maximum over picks of the
        pick's best reply."""
        worst = 0
        scored: list[int] = []
        for a in _bits(mask):
            ball = self.ball(1 << a, mask)
            # a pick's value is at most its ball's size, and at most the
            # value of any ball holding its ball
            if ball.bit_count() <= worst or any(
                    ball & ~other == 0 for other in scored):
                continue
            scored.append(ball)
            worst = max(worst, self._pick_value(ball, worst))
            if ball == mask:
                break
        return worst

    def reply(self, ball: int) -> tuple[int, int]:
        """(rounds, deletion) for a pick whose ball is `ball`: the least
        number of rounds left to the deleting player, counting this one,
        and the first vertex in sorted order whose deletion achieves it."""
        self._pick_value(ball, 0)
        return self._replies[ball]

    def _pick_value(self, ball: int, floor: int) -> int:
        """min over b of 1 + rounds(ball - b).  Exact when it exceeds
        `floor`; otherwise the scan stops at the first reply that is no
        more than `floor` and returns that reply's value."""
        known = self._replies.get(ball)
        if known is not None:
            return known[0]
        least = 1 if ball & (ball - 1) == 0 else 2
        best = best_b = None
        for b in _bits(ball):
            cost = 1 + self.rounds(ball & ~(1 << b))
            if best is None or cost < best:
                best, best_b = cost, b
                if best == least:
                    break
                if best <= floor:
                    return best
        self._replies[ball] = (best, best_b)
        return best

    def move(self, mask: int, a: str) -> str:
        """The exact reply to a pick of `a` in position `mask`."""
        bit = self.bit.get(a, 0) & mask
        if not bit:
            raise InputError(f"element {a!r} not in graph")
        return self.names[self.reply(self.ball(bit, mask))[1]]

    def solve(self, mask: int, round_cap: int) -> GameValue:
        """The game on position `mask` with `round_cap` rounds.  Replies are
        recorded for picks in sorted order up to the first pick that has no
        win within the cap."""
        alive = frozenset(self.names_of(mask))
        strategy: dict[tuple[frozenset[str], str], str] = {}
        for a in _bits(mask):
            rounds, b = self.reply(self.ball(1 << a, mask))
            if rounds > round_cap:
                break
            strategy[(alive, self.names[a])] = self.names[b]
        value = self.rounds(mask)
        return GameValue(self.radius, value if value <= round_cap else None,
                         round_cap, strategy)


def _bits(mask: int):
    """Indices of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _game(g: GaifmanGraph, r: int) -> SplitterGame:
    """The graph's one SplitterGame at radius r."""
    return _memo(g, ("game", r), lambda: SplitterGame(g, r))


def solve_splitter(graph, r: int, round_cap: int = 10) -> GameValue:
    """Exact minimax value: the least number of rounds in which the deleting
    player clears the graph, or None when the picking player survives
    `round_cap` rounds.  Refuses graphs larger than EXACT_GAME_CAP vertices.
    `graph` is a structure or a Gaifman graph; every call on one graph and
    radius reads the graph's one game, built by the first."""
    if r < 0 or round_cap < 1:
        raise InputError("need r >= 0 and round_cap >= 1")
    g = as_graph(graph)
    n = len(g.vertices)
    if n > EXACT_GAME_CAP:
        raise InputError(f"exact game solving is limited to {EXACT_GAME_CAP} "
                         f"vertices, got {n}")
    game = _game(g, r)
    return game.solve(game.everything, round_cap)


def splitter_move(graph, a: str, r: int) -> str:
    """The deleting player's reply to a pick of `a`.  On a graph of at most
    EXACT_GAME_CAP vertices it is the exact solver's reply; beyond that it
    is the vertex of highest degree in a's ball, the first in sorted order
    among equals.  `graph` is as for solve_splitter."""
    g = as_graph(graph)
    if len(g.vertices) <= EXACT_GAME_CAP:
        game = _game(g, r)
        return game.move(game.everything, a)
    if a not in g.adj:
        raise InputError(f"element {a!r} not in graph")
    if r < 0:
        raise InputError("need r >= 0")
    return max(sorted(g.ball(a, r)), key=lambda v: len(g.adj[v]))


# -- removal structures ----------------------------------------------------


def tilde_name(rel: str, positions: Sequence[int]) -> str:
    """Name of the projected copy of `rel` with 1-based `positions` pinned
    to the removed element.  The empty projection keeps the original name."""
    pos = tuple(sorted(positions))
    if not pos:
        return rel
    if any(p > 9 for p in pos):
        raise InputError("removal supports relation arities up to 9")
    return f"{rel}__d{''.join(str(p) for p in pos)}"


def halo_name(i: int) -> str:
    return f"S__{i}"


def _subsets(k: int):
    for mask in range(1 << k):
        yield tuple(i + 1 for i in range(k) if mask >> i & 1)


@dataclass
class RemovalStructure:
    """A structure with one element removed: projected relations record the
    tuples that used the element, unary halos record distances to it."""

    structure: Structure
    removed: str
    r: int
    base_signature: Signature

    def halo_level(self, b: str) -> int | None:
        """Smallest i with b in S_i, i.e. the base distance to the removed
        element, when it is <= r."""
        for i in range(1, self.r + 1):
            if (b,) in self.structure.relations[halo_name(i)]:
                return i
        return None


def remove(structure: Structure, d: str, r: int) -> RemovalStructure:
    """Build the removal structure for element d with halo radius r."""
    structure.check_element(d)
    if len(structure.universe) < 2:
        raise InputError("cannot remove from a one-element structure")
    if r < 0:
        raise InputError("halo radius must be >= 0")
    sig_items: list[tuple[str, int]] = []
    rels: dict[str, set[tuple[str, ...]]] = {}
    for name, arity in structure.signature.relations:
        if arity > 9:
            raise InputError("removal supports relation arities up to 9")
        for I in _subsets(arity):
            tname = tilde_name(name, I)
            if tname != name and (structure.signature.has(tname)
                                  or tname in rels):
                raise InputError(f"reserved name {tname!r} already in use")
            sig_items.append((tname, arity - len(I)))
            rels[tname] = set()
    for name, arity in structure.signature.relations:
        for t in structure.relations[name]:
            I = tuple(i + 1 for i, e in enumerate(t) if e == d)
            rest = tuple(e for e in t if e != d)
            rels[tilde_name(name, I)].add(rest)
    halo = gaifman_graph(structure).ball(d, r)
    for i in range(1, r + 1):
        name = halo_name(i)
        if structure.signature.has(name):
            raise InputError(f"reserved name {name!r} already in use")
        sig_items.append((name, 1))
        rels[name] = {(b,) for b, dist in halo.items() if 0 < dist <= i}
    universe = [e for e in structure.universe if e != d]
    out = Structure(Signature(tuple(sig_items)), universe, rels)
    return RemovalStructure(out, d, r, structure.signature)


def reconstruct(removed: RemovalStructure) -> Structure:
    """Inverse of remove(): reinsert the element into every projected tuple."""
    base = removed.base_signature
    d = removed.removed
    universe = removed.structure.universe + (d,)
    rels: dict[str, set[tuple[str, ...]]] = {name: set() for name in base.names()}
    for name, arity in base.relations:
        for I in _subsets(arity):
            for t in removed.structure.relations[tilde_name(name, I)]:
                full: list[str] = []
                it = iter(t)
                for pos in range(1, arity + 1):
                    full.append(d if pos in I else next(it))
                rels[name].add(tuple(full))
    return Structure(base, universe, rels)
