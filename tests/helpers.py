"""Shared test machinery.

MemoEval reimplements expression semantics from scratch with a per-node
value cache, so agreement with the library evaluator is a meaningful
cross-check and large encoded structures stay affordable; it takes its
distances from networkx.  The nx_* helpers rebuild Gaifman adjacency and
distances through networkx, independent of the structures module.
Generators produce random structures and formulas in fragments the
individual test files pick.
"""
from __future__ import annotations

import math
from itertools import product
from typing import Mapping, Sequence

import networkx as nx

from focount import cldecomp
from focount.cldecomp import (MAX_WIDTH, BasicClTerm, ClTerm, cross_extensions,
                              eval_basic_cl, factor_for_pattern)
from focount.covers import EXACT_GAME_CAP, Cover, GameValue, as_graph
from focount.errors import InputError, UnsupportedFragmentError
from focount.logic import (Add, Atom, CountTerm, DistAtom, Eq, Exists,
                           Falsity, Formula, IntConst, Mul, Not, Or, PredApp,
                           Query, Registry, Truth, and_, children, conj,
                           default_registry, disj, exists_chain, forall,
                           free_vars, render, simplify)
from focount.naive import Evaluator
from focount.reductions import EDGE, TreeEncoding, _TreeFormulas
from focount.structures import (GaifmanGraph, PatternGraph, Signature,
                                Structure, all_patterns, gaifman_graph)


# -- small readers that only the tests use ---------------------------------


def eval_reference(e, structure: Structure,
                   assignment: Mapping[str, str] | None = None,
                   registry: Registry | None = None):
    """The direct evaluator, which doubles as the correctness oracle
    everywhere else."""
    return Evaluator(structure, registry).evaluate(e, assignment)


def render_query(q: Query) -> str:
    head = list(q.out_vars) + [render(t) for t in q.out_terms]
    return f"({', '.join(head)}). {render(q.body)}"


def count_depth(e) -> int:
    """Nesting depth of counting terms."""
    if isinstance(e, CountTerm):
        return 1 + count_depth(e.body)
    return max((count_depth(c) for c in children(e)), default=0)


class MemoEval:
    """Structure-bound evaluator caching one value per (node, values of the
    node's free variables).  Nodes are keyed by identity, so shared
    subformula objects are evaluated once per assignment projection."""

    def __init__(self, structure: Structure, registry=None):
        self.structure = structure
        self.registry = registry or default_registry()
        self._graph = nx_gaifman(structure)
        self._cache: dict = {}
        self._fv: dict[int, tuple[str, ...]] = {}
        self._pins: list = []

    def _free(self, node) -> tuple[str, ...]:
        got = self._fv.get(id(node))
        if got is None:
            got = tuple(sorted(free_vars(node)))
            self._fv[id(node)] = got
            self._pins.append(node)  # ids must stay unique while cached
        return got

    def evaluate(self, node, env=None):
        return self._eval(node, env or {})

    def _eval(self, node, env):
        key = (id(node), tuple(env[v] for v in self._free(node)))
        hit = self._cache.get(key)
        if hit is None:
            hit = self._compute(node, env)
            self._cache[key] = hit
        return hit

    def _compute(self, node, env):
        s = self.structure
        match node:
            case Truth():
                return True
            case Falsity():
                return False
            case Eq(a, b):
                return env[a] == env[b]
            case Atom(rel, args):
                return tuple(env[v] for v in args) in s.relations[rel]
            case DistAtom(a, b, bound):
                return nx_dist(self._graph, env[a], env[b]) <= bound
            case Not(sub):
                return not self._eval(sub, env)
            case Or(left, right):
                return self._eval(left, env) or self._eval(right, env)
            case Exists(var, sub):
                saved = env.get(var)
                for e in s.universe:
                    env[var] = e
                    if self._eval(sub, env):
                        self._restore(env, var, saved)
                        return True
                self._restore(env, var, saved)
                return False
            case PredApp(name, args):
                values = [self._eval(t, env) for t in args]
                return self.registry.get(name).holds(*values)
            case IntConst(value):
                return value
            case CountTerm(vars, body):
                saved = [env.get(v) for v in vars]
                total = 0
                for tup in product(s.universe, repeat=len(vars)):
                    for v, e in zip(vars, tup):
                        env[v] = e
                    if self._eval(body, env):
                        total += 1
                for v, old in zip(vars, saved):
                    self._restore(env, v, old)
                return total
            case Add(left, right):
                return self._eval(left, env) + self._eval(right, env)
            case Mul(left, right):
                return self._eval(left, env) * self._eval(right, env)
        raise TypeError(f"unhandled node {node!r}")

    @staticmethod
    def _restore(env, var, old):
        if old is None:
            env.pop(var, None)
        else:
            env[var] = old


# -- independent graph-metric oracle ---------------------------------------


def nx_gaifman(structure: Structure) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(structure.universe)
    for name, arity in structure.signature.relations:
        if arity < 2:
            continue
        for t in structure.relations[name]:
            distinct = sorted(set(t))
            for i, u in enumerate(distinct):
                for v in distinct[i + 1:]:
                    g.add_edge(u, v)
    return g


def nx_dist(g: nx.Graph, a: str, b: str):
    try:
        return nx.shortest_path_length(g, a, b)
    except nx.NetworkXNoPath:
        return math.inf


def graph_from_nx(g: nx.Graph) -> GaifmanGraph:
    names = {v: f"n{v}" for v in g.nodes}
    verts = tuple(sorted(names.values()))
    adj: dict[str, set[str]] = {u: set() for u in verts}
    for a, b in g.edges:
        adj[names[a]].add(names[b])
        adj[names[b]].add(names[a])
    return GaifmanGraph(verts, {u: frozenset(s) for u, s in adj.items()})


def graph_edges(graph: GaifmanGraph) -> list[tuple[str, str]]:
    """The edges of the graph as sorted (u, v) pairs with u < v."""
    return sorted((u, v) for u in graph.vertices for v in graph.adj[u]
                  if u < v)


def cluster_of(cover: Cover, a: str) -> frozenset[str]:
    """The cluster that the cover assigns element `a` to."""
    return cover.clusters[cover.assignment[a]]


def is_local(phi, anchors, r: int) -> bool:
    """Whether phi passes the syntactic r-locality check around anchors."""
    got = cldecomp.locality_radius(phi, anchors)
    return got is not None and got <= r


def subgraph(graph: GaifmanGraph, keep) -> GaifmanGraph:
    """The graph induced on the vertices in `keep`."""
    keep = frozenset(keep)
    return GaifmanGraph(tuple(sorted(keep)),
                        {v: graph.adj[v] & keep for v in keep})


def atlas_graphs(max_n: int) -> list[nx.Graph]:
    """All graphs with between 1 and max_n vertices, one per isomorphism
    class (max_n <= 7)."""
    return [g for g in nx.graph_atlas_g()[1:] if len(g) <= max_n]


# -- reference cover -------------------------------------------------------


# The oracle for covers.build_cover, which finds the members of a cluster by
# one search in from the ball's outer boundary: the same centres in degree
# order, but every element of the new cluster runs its own ball-containment
# test, GaifmanGraph.ball on names, unless the cluster is the whole graph.
def reference_build_cover(structure: Structure, r: int) -> Cover:
    graph = gaifman_graph(structure)
    n = len(graph.vertices)
    clusters: list[frozenset[str]] = []
    centres: list[str] = []
    assignment: dict[str, int] = {}
    for v in graph.by_degree:
        if v in assignment:
            continue
        cid = len(clusters)
        cluster = frozenset(graph.ball(v, 2 * r))
        clusters.append(cluster)
        centres.append(v)
        whole = len(cluster) == n
        for a in sorted(cluster):
            if a in assignment:
                continue
            if whole or graph.ball(a, r).keys() <= cluster:
                assignment[a] = cid
    return Cover(r, 2 * r, tuple(clusters), tuple(centres), assignment)


# -- the tree and string encodings ---------------------------------------


def role_formulas() -> dict[str, Formula]:
    """Named one-free-variable role tests over the tree encoding's
    signature; the free variable is x.  A c-node is a leaf below a node of
    degree two, and the root is the one node of no other role.  Role
    definability needs at least two original vertices."""
    forms = _TreeFormulas(set())
    role_c = and_(forms.leaf("x"),
                  forms.with_neighbour("x", lambda y: forms.deg_eq(y, 2)))
    roles = {"a": forms.role_a("x"), "b": forms.role_b("x"), "c": role_c,
             "d": forms.role_d("x"), "e": forms.role_e("x")}
    return {"root": Not(disj(list(roles.values()))), **roles}


def sentence_pool() -> tuple[tuple[str, Formula], ...]:
    """Five plain FO graph sentences used for reduction cross-checks."""
    E = lambda a, b: Atom(EDGE, (a, b))
    edge_exists = exists_chain(["x", "y"], E("x", "y"))
    triangle = exists_chain(["x", "y", "z"],
                            conj([E("x", "y"), E("y", "z"), E("x", "z")]))
    isolated = Exists("x", forall("y", Not(E("x", "y"))))
    dominating = Exists("x", forall("y", Or(Eq("x", "y"), E("x", "y"))))
    two_path = exists_chain(["x", "y", "z"],
                            conj([E("x", "y"), E("y", "z"),
                                  Not(Eq("x", "z"))]))
    return (
        ("edge_exists", edge_exists),
        ("triangle", triangle),
        ("isolated_vertex", isolated),
        ("dominating_vertex", dominating),
        ("two_path", two_path),
    )


def tree_height(encoding: TreeEncoding) -> int:
    """The largest distance from the encoded tree's root to a node."""
    root = next(v for v, tag in encoding.vertex_tags.items() if tag == "root")
    tree = encoding.tree
    return max(gaifman_graph(tree).ball(root, len(tree.universe)).values())


# -- reference splitter-game solver ----------------------------------------


class ReferenceGame:
    """The library's first exact solver, kept as the oracle for
    covers.solve_splitter: a plain minimax over frozenset positions.  One
    memo, keyed on (position, rounds left), serves the solves at every
    round cap of one graph and radius.  Refuses graphs larger than
    EXACT_GAME_CAP vertices."""

    def __init__(self, graph, r: int):
        g = as_graph(graph)
        n = len(g.vertices)
        if n > EXACT_GAME_CAP:
            raise InputError(f"exact game solving is limited to "
                             f"{EXACT_GAME_CAP} vertices, got {n}")
        if r < 0:
            raise InputError("need r >= 0")
        self.graph = g
        self.r = r
        self._memo: dict[tuple[frozenset[str], int], int | None] = {}

    def solve(self, round_cap: int) -> GameValue:
        """The least number of rounds in which the deleting player clears
        the graph, or None when the picking player survives `round_cap`
        rounds, with the replies to the picks of the whole graph."""
        if round_cap < 1:
            raise InputError("need round_cap >= 1")
        strategy: dict[tuple[frozenset[str], str], str] = {}
        value = self._value(frozenset(self.graph.vertices), round_cap,
                            strategy)
        return GameValue(self.r, value, round_cap, strategy)

    def _value(self, position: frozenset[str], rounds: int,
               strategy: dict | None = None) -> int | None:
        """None means 'never'.  A call that records `strategy` reads no
        memo, so every solve records its own replies."""
        if rounds <= 0:
            return None
        key = (position, rounds)
        if strategy is None and key in self._memo:
            return self._memo[key]
        worst: int | None = 1
        for a in sorted(position):
            ball = frozenset(self.graph.ball(a, self.r, allowed=position))
            best: int | None = None
            best_b = None
            for b in sorted(ball):
                rest = ball - {b}
                if not rest:
                    cost = 1
                else:
                    sub = self._value(rest, rounds - 1)
                    cost = None if sub is None else 1 + sub
                if _lt(cost, best):
                    best, best_b = cost, b
            if strategy is not None and best_b is not None:
                strategy[(position, a)] = best_b
            if _lt(worst, best):
                worst = best
            if worst is None:
                break
        self._memo[key] = worst
        return worst


def _lt(a: int | None, b: int | None) -> bool:
    """Compare round counts where None means 'never'."""
    if a is None:
        return False
    if b is None:
        return True
    return a < b


# -- engine settings -------------------------------------------------------


# with this threshold a vertex set is tame only when no vertex has two
# neighbours in it, so every cluster takes the removal path on any graph
# that has a vertex of degree two or more, at every size
FORCED = dict(hub_degree_threshold=1)


# -- random inputs ---------------------------------------------------------


GRAPH_SIG = Signature.of({"E": 2, "P": 1, "Q": 1})


def random_structure(rng, n: int, edge_prob: float = 0.35,
                     color_prob: float = 0.5, symmetric: bool = True,
                     sig: Signature = GRAPH_SIG) -> Structure:
    """Random colored graph structure on elements e01..e{n}."""
    names = [f"e{i:02d}" for i in range(1, n + 1)]
    rels: dict[str, list] = {name: [] for name, _ in sig.relations}
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            if rng.random() < edge_prob:
                rels["E"].append((u, v))
                if symmetric:
                    rels["E"].append((v, u))
    for name, arity in sig.relations:
        if arity == 1:
            rels[name] = [(u,) for u in names if rng.random() < color_prob]
    return Structure(sig, names, rels)


def random_fo_plus(rng, vars: list[str], depth: int,
                   max_dist: int = 3) -> object:
    """Random quantified relational formula (E/P/Q atoms, equalities,
    distance atoms with bounds 0..max_dist) with free variables drawn from
    `vars`.  Bound variables are w1, w2, ... and never shadow `vars`."""
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"w{counter[0]}"

    def atom(scope: list[str]):
        a, b = rng.choice(scope), rng.choice(scope)
        pick = rng.randrange(5)
        if pick == 0:
            return Atom("E", (a, b))
        if pick == 1:
            return Atom(rng.choice(("P", "Q")), (a,))
        if pick == 2:
            return Eq(a, b)
        if pick == 3:
            return DistAtom(a, b, rng.randint(0, max_dist))
        return Truth() if rng.random() < 0.5 else Falsity()

    def go(scope: list[str], d: int):
        if d <= 0 or rng.random() < 0.3:
            return atom(scope)
        pick = rng.randrange(4)
        if pick == 0:
            return Not(go(scope, d - 1))
        if pick == 1:
            return Or(go(scope, d - 1), go(scope, d - 1))
        v = fresh()
        return Exists(v, go(scope + [v], d - 1))

    return go(list(vars), depth)


def q_rank_check(phi, q: int, rank: int) -> list[str]:
    """Diagnostics for membership in the bounded-rank distance fragment:
    quantifier nesting at most `rank`, and a distance atom under i
    quantifiers may use bounds up to (4q)^(q+rank-i)."""
    if q < 1 or rank < 0:
        raise InputError("need q >= 1 and rank >= 0")
    problems: list[str] = []

    def go(node, depth: int) -> None:
        match node:
            case Truth() | Falsity() | Eq() | Atom():
                pass
            case DistAtom(_, _, d):
                limit = (4 * q) ** (q + rank - depth)
                if d > limit:
                    problems.append(f"{render(node)} under {depth} quantifiers "
                                    f"exceeds bound {limit}")
            case Not(sub):
                go(sub, depth)
            case Or(a, b):
                go(a, depth)
                go(b, depth)
            case Exists(_, sub):
                if depth + 1 > rank:
                    problems.append(f"quantifier nesting exceeds {rank} "
                                    f"at {render(node)}")
                else:
                    go(sub, depth + 1)
            case _:
                raise InputError(
                    f"not a plain distance-logic formula: {render(node)}")

    go(phi, 0)
    return problems


# -- pattern counting ------------------------------------------------------


def pattern_graph(structure: Structure, elements: Sequence[str],
                  r: int) -> PatternGraph:
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


def count_pattern(structure: Structure, pattern: PatternGraph, radius: int,
                  factors: Mapping[frozenset[int], Formula] | None = None,
                  anchor: str | None = None,
                  registry: Registry | None = None) -> int:
    """Number of tuples realizing `pattern` at threshold 2*radius+1 whose
    per-component conditions hold; anchored at the first position when an
    anchor element is given.  Disconnected patterns are handled by the
    product-minus-corrections recursion over connected pieces."""
    if pattern.k > MAX_WIDTH:
        raise InputError(f"width {pattern.k} exceeds the cap {MAX_WIDTH}")
    vars = tuple(f"y{i}" for i in range(1, pattern.k + 1))
    comps = pattern.components()
    full = {c: Truth() for c in comps}
    if factors:
        for comp, psi in factors.items():
            comp = frozenset(comp)
            if comp not in full:
                raise InputError(
                    f"factor key {sorted(comp)} is not a component of the pattern")
            full[comp] = psi
        for comp, psi in full.items():
            names = {vars[p - 1] for p in comp}
            # factor formulas may use canonical names y1..yk
            stray = free_vars(psi) - names
            if stray:
                raise InputError(
                    f"factor for {sorted(comp)} uses variables {sorted(stray)}")
    unary = anchor is not None
    term = cldecomp._pattern_clterm(pattern, radius, full, vars, unary, {})
    cache: dict[BasicClTerm, int] = {}

    def basic_value(b: BasicClTerm) -> int:
        if b not in cache:
            cache[b] = eval_basic_cl(structure, b,
                                     anchor if b.unary else None, registry)
        return cache[b]

    return term.value(basic_value)


# -- cl-terms pattern by pattern ---------------------------------------------


def count_to_clterm_by_sums(vars, theta, radius: int,
                            unary: bool) -> ClTerm:
    """cldecomp.count_to_clterm as the running sum `+` of one part per
    pattern, each part built with its own memo of extensions keyed by their
    edges alone, the first one reached standing for the later ones: every
    `+` and `-` normalises its result, so a monomial that cancels leaves
    the order and one that comes back is appended again."""
    vars = tuple(vars)
    total = ClTerm.of_const(0)
    for pattern in all_patterns(len(vars)):
        factors = factor_for_pattern(theta, vars, pattern, radius)
        if factors is None:
            raise UnsupportedFragmentError("condition does not factor",
                                           render(theta))
        total = total + _part_by_sums(pattern, radius, factors, vars, unary,
                                      {})
    return total


def _part_by_sums(pattern: PatternGraph, radius: int, factors, vars,
                  unary: bool, memo: dict) -> ClTerm:
    if pattern.edges in memo:
        return memo[pattern.edges]
    comps = pattern.components()
    if len(comps) == 1:
        psi = simplify(conj([factors[c] for c in sorted(factors, key=min)]))
        term = (ClTerm.of_const(0) if isinstance(psi, Falsity) else
                ClTerm.of_basic(BasicClTerm(vars, radius, pattern, psi, unary)))
    else:
        side = next(c for c in comps if 1 in c)
        rest = frozenset(range(1, pattern.k + 1)) - side
        term = (_restricted_by_sums(pattern, radius, factors, vars, side, unary)
                * _restricted_by_sums(pattern, radius, factors, vars, rest,
                                      False))
        for ext in cross_extensions(pattern, side):
            merged: dict = {c: [] for c in ext.components()}
            for comp, psi in factors.items():
                merged[next(c for c in merged if comp <= c)].append(psi)
            term = term - _part_by_sums(
                ext, radius, {c: conj(ps) for c, ps in merged.items()}, vars,
                unary, memo)
    memo[pattern.edges] = term
    return term


def _restricted_by_sums(pattern: PatternGraph, radius: int, factors, vars,
                        positions: frozenset[int], unary: bool) -> ClTerm:
    pos = sorted(positions)
    remap = {p: i + 1 for i, p in enumerate(pos)}
    sub = {frozenset(remap[p] for p in comp): psi
           for comp, psi in factors.items() if comp <= positions}
    return _part_by_sums(pattern.induced(pos), radius, sub,
                         tuple(vars[p - 1] for p in pos), unary, {})
