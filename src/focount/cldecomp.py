"""Connected-local counting terms and layered decompositions.

A basic cl-term counts tuples that realize one distance pattern and satisfy a
radius-r local condition; a cl-term is an integer polynomial in basic ones.

A closed sentence or ground term of the one-free-variable counting fragment
is decomposed through one path.  The expression is simplified and each
predicate application over integer arithmetic alone, such as prime(3), is
decided, until none is left: it becomes true or false, never a symbol, so a
branch that the value cuts off is never decomposed.  Each closed
existential chain exists x1...xk. phi becomes the application
geq1(#(x1,...,xk). phi).  Then each round turns every innermost predicate
application into a fresh unary or 0-ary symbol that applies the predicate
to cl-terms, and the round's symbols make one layer, so a sentence shares
its layer with the other applications of its round.  What is left is a
boolean combination of 0-ary atoms or one ground cl-term.

Evaluation reads the answer backwards: only live symbols are materialized,
those that the final part reads directly or through the psi of a basic
term of another live symbol.  Within each layer the 0-ary symbols come
first, and each value is substituted into the final formula, so a sentence
that decides it leaves the rest unevaluated.

Locality is checked syntactically: quantifiers must be distance-guarded with
accumulated radius at most r, and distance atoms must stay within the bounds
that the guarded radii allow.  A term's locality radius is computed once.
One guard finder serves the locality check, the separation fold and the
evaluator: a guard of an existential over v is a top-level conjunct
dist(v, w) <= b of its body with w already bound.

For each distance pattern, one separation fold places every variable near
a tuple position, a guarded one at its guard's offset, and decides each
atom that a non-edge of the pattern (positions more than 2r+1 apart) or an
edge (at most 2r+1 apart) settles, before the condition is split over the
pattern's components.

Decomposition does the work of each formula node once per call.  A node
caches its hash, its free variables and its simplified form (logic._Node),
and every rewrite (simplify, the fold, replace_nodes, the sentence rewrite)
returns a node itself when nothing under it changes, so an unchanged
subtree keeps its facts.  Each round finds its innermost applications in
one pass over the expression.  A count's cl-term is normalised once: its
patterns' parts are already normal, and _sum adds them in pattern order,
dropping a monomial as soon as it cancels, as a running `+` would, so the
monomial order is that of the running sum.  One memo per count serves the
restrictions of all its patterns.

A local condition is evaluated on the structure itself by GuardedEvaluator,
whose guarded existentials range over the ball of their guard instead of
the whole universe, so no neighbourhood is ever copied to decide one.  Its
satisfying method reads a one-variable condition as the set of elements
where it holds: closed parts once, atoms off their relations, negation and
disjunction as complement and union, and an existential guarded by
dist(w, v) <= b whose other conjuncts read only w as the b-ball of their
set: GaifmanGraph.ball, one breadth-first search from all of them at
once.  Anything else (an unguarded existential, a guarded body that also
reads v, a disjunctive body, a predicate application) is evaluated element
by element.  eval_basic_cl does not use it: the direct route stays element
by element, an independent check on the engine.

A basic cl-term is evaluated directly by growing, from each anchor, only the
tuples that realize its connected pattern: positions are placed in BFS order
of a spanning tree of the pattern, each taking its candidates from the
threshold ball of the element at its tree parent and checking its remaining
edges and non-edges against the positions already placed.  Each conjunct of
psi is checked as soon as its variables are placed, closed conjuncts once
before any growth.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InputError, UnsupportedFragmentError
from .logic import (Add, Atom, CountTerm, DistAtom, Eq, Exists, Falsity,
                    IntConst, Mul, Not, Or, PredApp, Registry, Truth,
                    and_, children, conj, default_registry, flatten_conj,
                    free_vars, geq1, is_formula, map_children, render,
                    replace_nodes, simplify, validate_fo1c, walk)
from .naive import Evaluator
from .structures import (PatternGraph, Signature, Structure, all_patterns,
                         cached, gaifman_graph)

MAX_WIDTH = 4


# -- distance pattern formulas --------------------------------------------


def delta_formula(pattern: PatternGraph, threshold: int,
                  vars: Sequence[str]) -> "Formula":
    """Conjunction asserting exactly this pattern at the given distance
    threshold over the named variables."""
    if pattern.k != len(vars):
        raise InputError("pattern width and variable count differ")
    parts = []
    for i in range(1, pattern.k + 1):
        for j in range(i + 1, pattern.k + 1):
            atom = DistAtom(vars[i - 1], vars[j - 1], threshold)
            parts.append(atom if pattern.has_edge(i, j) else Not(atom))
    return conj(parts)


# -- syntactic locality ----------------------------------------------------


def _find_guard(v: str, body, env) -> tuple[int, str, int] | None:
    """The guard of an existential over v: the first conjunct of body of
    the form dist(v, w) <= b (either order) with w != v bound in env, as
    (its index in flatten_conj(body), w, b).  None when there is none,
    always for a disjunction."""
    for idx, part in enumerate(flatten_conj(body)):
        if isinstance(part, DistAtom):
            if part.left == v and part.right != v and part.right in env:
                return idx, part.right, part.bound
            if part.right == v and part.left != v and part.left in env:
                return idx, part.left, part.bound
    return None


def locality_radius(phi, anchors: Sequence[str]) -> int | None:
    """Least r for which the formula passes the syntactic r-locality check
    around the anchor variables, or None if it never does.

    Quantifiers must carry a distance guard tying the new variable to an
    anchor or an already guarded variable; guard radii accumulate and must
    stay at most r.  A distance atom between variables at accumulated radii
    p and q may use bounds up to 2r+1 - p - q.
    """
    needs: list[int] = []
    env = {a: 0 for a in anchors}

    def need_for_atom(p: int, q: int, bound: int) -> int:
        # smallest r with p + q + bound <= 2r + 1
        return max(0, -(-(p + q + bound - 1) // 2))

    def go(node, env: dict[str, int]) -> bool:
        match node:
            case Truth() | Falsity() | Eq():
                return True
            case Atom(_, args):
                return all(a in env for a in args)
            case DistAtom(a, b, d):
                if a not in env or b not in env:
                    return False
                needs.append(need_for_atom(env[a], env[b], d))
                return True
            case Not(sub):
                return go(sub, env)
            case Or(a, b):
                return go(a, env) and go(b, env)
            case Exists(v, body):
                return exists_ok(v, body, env)
            case _:
                return False

    def exists_ok(v: str, body, env: dict[str, int]) -> bool:
        if isinstance(body, Or):
            return exists_ok(v, body.left, env) and exists_ok(v, body.right, env)
        guard = _find_guard(v, body, env)
        if guard is None:
            return False
        idx, w, bound = guard
        radius = env[w] + bound
        needs.append(radius)
        inner = dict(env)
        inner[v] = radius
        return all(go(p, inner) for i, p in enumerate(flatten_conj(body))
                   if i != idx)

    if not go(phi, env):
        return None
    return max(needs, default=0)


class GuardedEvaluator(Evaluator):
    """naive.Evaluator whose existentials try only the elements that can
    satisfy their guard: the b-ball of w for a body guarded by
    dist(v, w) <= b, the union over both sides for a disjunction, and the
    universe when some disjunct has no guard.  Every element outside that
    set falsifies the body, so the value is the naive one on every
    structure, and a local condition is decided inside the balls it reads.
    `satisfying` reads a one-variable condition as an element set where its
    shape allows (see there), and element by element where it does not."""

    def _witnesses(self, v: str, body, env: dict[str, str]):
        if isinstance(body, Or):
            left = self._witnesses(v, body.left, env)
            if left is self.structure.universe:
                return left
            right = self._witnesses(v, body.right, env)
            if right is self.structure.universe:
                return right
            return left | right
        guard = _find_guard(v, body, env)
        if guard is None:
            return self.structure.universe
        _, w, bound = guard
        return self._ball(env[w], bound)

    def satisfying(self, f, v: str) -> frozenset[str]:
        """The elements b at which f holds under v -> b; v is f's only free
        variable, if it has one.  A closed f is evaluated once; v = v,
        dist(v, v) <= b and R(v, ..., v) are read off the structure;
        negation and disjunction take complement and union.  An existential
        over w guarded by dist(w, v) <= b whose other conjuncts read only w
        holds within b of the elements satisfying those conjuncts: their
        b-ball, GaifmanGraph.ball with all of them as centres, one
        breadth-first search from all of them at once.  Any other f is
        evaluated element by element."""
        universe = self.structure.universe
        free = self._free_of(f)
        if v not in free:
            return frozenset(universe) if self.evaluate(f) else frozenset()
        if len(free) > 1:
            raise InputError(f"{render(f)} has free variables other than {v}")
        match f:
            case Eq():
                return frozenset(universe)
            case DistAtom(_, _, bound):
                return frozenset(universe) if bound >= 0 else frozenset()
            case Atom(rel, _):
                return frozenset(t[0] for t in self.structure.relations[rel]
                                 if t.count(t[0]) == len(t))
            case Not(sub):
                return frozenset(universe) - self.satisfying(sub, v)
            case Or(a, b):
                return self.satisfying(a, v) | self.satisfying(b, v)
            case Exists(w, body) if (guard := _find_guard(w, body, (v,))):
                idx, _, bound = guard
                rest = [p for i, p in enumerate(flatten_conj(body))
                        if i != idx]
                if all(v not in free_vars(p) for p in rest):
                    sources = frozenset(universe)
                    for p in rest:
                        sources &= self.satisfying(p, w)
                    return frozenset(gaifman_graph(self.structure).ball(
                        sources, bound))
        return frozenset(b for b in universe if self.evaluate(f, {v: b}))


# -- basic cl-terms --------------------------------------------------------


@dataclass(frozen=True)
class BasicClTerm:
    """Counts tuples realizing `pattern` at threshold 2*radius+1 whose local
    condition `psi` holds.  When `unary`, the first variable is the free
    anchor and the remaining ones are counted; a width-1 unary term counts
    the empty tuple, so it is the 0/1 indicator of psi at the anchor."""

    vars: tuple[str, ...]
    radius: int
    pattern: PatternGraph
    psi: "Formula"
    unary: bool

    def __post_init__(self):
        k = len(self.vars)
        if k < 1 or self.pattern.k != k:
            raise InputError("pattern width must match the variable tuple")
        if k > MAX_WIDTH:
            raise InputError(f"width {k} exceeds the supported cap {MAX_WIDTH}")
        if self.radius < 0:
            raise InputError(f"radius must be >= 0, got {self.radius}")
        if not self.pattern.is_connected():
            raise InputError("basic cl-terms need a connected pattern")
        extra = free_vars(self.psi) - set(self.vars)
        if extra:
            raise InputError(f"psi has stray free variables {sorted(extra)}")
        if len(set(self.vars)) != k:
            raise InputError("variables must be distinct")

    @property
    def k(self) -> int:
        return len(self.vars)

    @property
    def threshold(self) -> int:
        return 2 * self.radius + 1

    @property
    def eval_radius(self) -> int:
        """Everything relevant to one anchor lives within this distance."""
        return self.radius + (self.k - 1) * self.threshold

    def counted_vars(self) -> tuple[str, ...]:
        return self.vars[1:] if self.unary else self.vars

    def body(self) -> "Formula":
        return and_(self.psi, delta_formula(self.pattern, self.threshold, self.vars))

    def to_count_term(self) -> CountTerm:
        return CountTerm(self.counted_vars(), self.body())

    @cached
    def sort_key(self) -> str:
        """The rendering that orders the factors of a monomial."""
        return render(self.to_count_term())

    @cached
    def _hash(self) -> int:
        return hash((self.vars, self.radius, self.pattern, self.psi,
                     self.unary))

    def __hash__(self) -> int:
        # the generated hash of the same fields, computed once: terms key
        # the monomials of every cl-term and the engine's caches
        return self._hash

    @cached
    def locality(self) -> int | None:
        """locality_radius of psi around the tuple variables."""
        return locality_radius(self.psi, self.vars)

    def check_local(self) -> None:
        got = self.locality
        if got is None or got > self.radius:
            raise UnsupportedFragmentError(
                f"condition is not {self.radius}-local around {self.vars}",
                render(self.psi))

    @cached
    def _growth(self) -> "_Growth":
        return _Growth.of(self)


@dataclass(frozen=True)
class _Step:
    """Place variable `var` from the ball of its tree `parent`; `checks`
    are (earlier variable, edge wanted) pairs, `parts` the psi conjuncts
    whose variables are all placed at this step."""

    var: str
    parent: str
    checks: tuple[tuple[str, bool], ...]
    parts: tuple["Formula", ...]


@dataclass(frozen=True)
class _Growth:
    """How to grow a term's tuples from the anchor at position 1."""

    closed: tuple["Formula", ...]
    at_anchor: tuple["Formula", ...]
    steps: tuple[_Step, ...]

    @staticmethod
    def of(term: BasicClTerm) -> "_Growth":
        name = dict(enumerate(term.vars, 1))
        tree = term.pattern.spanning_tree(1)
        step_of = {name[p]: s for s, (p, _) in enumerate(tree)}
        closed = []
        staged: list[list] = [[] for _ in tree]
        for part in flatten_conj(term.psi):
            fv = free_vars(part)
            if fv:
                staged[max(step_of[v] for v in fv)].append(part)
            else:
                closed.append(part)
        steps = []
        for s, (p, parent) in enumerate(tree[1:], 1):
            checks = tuple((name[q], term.pattern.has_edge(p, q))
                           for q, _ in tree[:s] if q != parent)
            steps.append(_Step(name[p], name[parent], checks,
                               tuple(staged[s])))
        return _Growth(tuple(closed), tuple(staged[0]), tuple(steps))


def eval_basic_cl(structure: Structure, term: BasicClTerm,
                  anchor: str | None = None,
                  registry: Registry | None = None) -> int:
    """Evaluate a basic cl-term: its count at `anchor` when unary, the sum
    over all anchors when ground.

    Only tuples realizing the pattern are grown (see the module docstring),
    and everything is read on `structure` itself: balls, distance atoms and
    every conjunct of psi, quantified or not.  A GuardedEvaluator evaluates
    psi, so each distance-guarded existential tries only the ball of its
    guard, never the whole universe, and its value is the one naive
    evaluation gives on `structure`.  Balls and the evaluator's memo are
    shared by the anchors of one call; a width-1 term takes no ball.
    """
    term.check_local()
    if term.unary:
        if anchor is None:
            raise InputError("unary basic terms need an anchor element")
        anchors = (structure.check_element(anchor),)
    else:
        anchors = structure.universe
    grower = _Grower(structure, term, registry)
    if not grower.holds(term._growth.closed, {}):
        return 0
    return sum(grower.count(a) for a in anchors)


class _Grower:
    """Counts a term's tuples anchor by anchor on one structure."""

    def __init__(self, structure: Structure, term: BasicClTerm,
                 registry: Registry | None):
        self.term = term
        self.ev = GuardedEvaluator(structure, registry)

    def ball(self, e: str) -> frozenset[str]:
        return self.ev._ball(e, self.term.threshold)

    def holds(self, parts, env: dict[str, str]) -> bool:
        return all(self.ev._eval(part, env) for part in parts)

    def count(self, anchor: str) -> int:
        env = {self.term.vars[0]: anchor}
        if not self.holds(self.term._growth.at_anchor, env):
            return 0
        return self._grow(0, env)

    def _grow(self, s: int, env: dict[str, str]) -> int:
        steps = self.term._growth.steps
        if s == len(steps):
            return 1
        step = steps[s]
        total = 0
        for c in self.ball(env[step.parent]):
            if any((c in self.ball(env[v])) != edge for v, edge in step.checks):
                continue
            env[step.var] = c
            if self.holds(step.parts, env):
                total += self._grow(s + 1, env)
        return total


# -- cl-term polynomials ---------------------------------------------------


@dataclass(frozen=True)
class ClTerm:
    """constant + sum of coef * product-of-basic-terms."""

    constant: int = 0
    monomials: tuple[tuple[int, tuple[BasicClTerm, ...]], ...] = ()

    @staticmethod
    def of_const(v: int) -> "ClTerm":
        return ClTerm(v, ())

    @staticmethod
    def of_basic(b: BasicClTerm) -> "ClTerm":
        return ClTerm(0, ((1, (b,)),))

    def __add__(self, other: "ClTerm") -> "ClTerm":
        return _normalize(self.constant + other.constant,
                          self.monomials + other.monomials)

    def __sub__(self, other: "ClTerm") -> "ClTerm":
        return self + other.scale(-1)

    def scale(self, c: int) -> "ClTerm":
        return _normalize(self.constant * c,
                          tuple((coef * c, fs) for coef, fs in self.monomials))

    def __mul__(self, other: "ClTerm") -> "ClTerm":
        mons: list[tuple[int, tuple[BasicClTerm, ...]]] = []
        if other.constant:
            mons += [(c * other.constant, fs) for c, fs in self.monomials]
        if self.constant:
            mons += [(c * self.constant, fs) for c, fs in other.monomials]
        for c1, f1 in self.monomials:
            for c2, f2 in other.monomials:
                mons.append((c1 * c2, f1 + f2))
        return _normalize(self.constant * other.constant, tuple(mons))

    def basics(self) -> tuple[BasicClTerm, ...]:
        seen: dict[BasicClTerm, None] = {}
        for _, fs in self.monomials:
            for b in fs:
                seen.setdefault(b)
        return tuple(seen)

    def value(self, basic_value: Callable[[BasicClTerm], int]) -> int:
        total = self.constant
        for coef, fs in self.monomials:
            prod = coef
            for b in fs:
                prod *= basic_value(b)
            total += prod
        return total

    def to_term(self):
        """Plain counting-term rendering of the polynomial."""
        out = None
        for coef, fs in self.monomials:
            piece = None
            for b in fs:
                ct = b.to_count_term()
                piece = ct if piece is None else Mul(piece, ct)
            if piece is None:
                piece = IntConst(coef)
            elif coef != 1:
                piece = Mul(IntConst(coef), piece)
            out = piece if out is None else Add(out, piece)
        if out is None:
            return IntConst(self.constant)
        if self.constant:
            out = Add(out, IntConst(self.constant))
        return out


def _normalize(constant: int,
               monomials: Iterable[tuple[int, tuple[BasicClTerm, ...]]]) -> ClTerm:
    """The normal form of constant + sum of monomials: the factors of each
    product in sort_key order, equal monomials merged at the first one's
    place, and those that cancel dropped.  Only products are sorted, so a
    basic term renders its sort key only when a product compares it.
    Every ClTerm that the decomposition builds is normal and normalised
    once; a sum of many normal terms goes through _sum, not through a
    chain of `+`."""
    merged: dict[tuple[BasicClTerm, ...], int] = {}
    for coef, fs in monomials:
        if len(fs) > 1:
            fs = tuple(sorted(fs, key=lambda b: b.sort_key))
        merged[fs] = merged.get(fs, 0) + coef
    return ClTerm(constant, tuple((coef, fs) for fs, coef in merged.items()
                                  if coef != 0))


def _sum(terms: Iterable[ClTerm]) -> ClTerm:
    """t1 + t2 + ... of normal terms, monomial order included, normalised
    once.  Each term's monomials are merged into the running total and
    those that cancel leave it at once, as each `+` drops them, so a
    monomial that comes back later is appended again."""
    constant = 0
    merged: dict[tuple[BasicClTerm, ...], int] = {}
    for t in terms:
        constant += t.constant
        for coef, fs in t.monomials:
            merged[fs] = merged.get(fs, 0) + coef
        for _, fs in t.monomials:
            if merged[fs] == 0:
                del merged[fs]
    return ClTerm(constant, tuple((coef, fs) for fs, coef in merged.items()))


# -- separation folding and component factorization -----------------------


def _fold_separations(theta, vars: Sequence[str], pattern: PatternGraph,
                      threshold: int):
    """Decide the atoms of theta that the pattern's distances decide.

    Each variable sits near a tuple position at an offset: a tuple variable
    at its own position with offset 0, an existential that _find_guard
    guards by dist(v, w) <= b at w's position with w's offset plus b, and an
    unguarded one nowhere.  The guard is a conjunct of the body, so wherever
    the rest of the body matters v lies within its offset of its position.
    For u, v near distinct positions at offsets o, o', dist(u, v) <= b is
    false across a non-edge, which puts the positions more than `threshold`
    apart, when o + o' + b <= threshold, and true across an edge when
    o + o' + threshold <= b.  An equality is dist <= 0 and a relation atom
    needs every two arguments within 1, so both fold to false the same way.
    A subtree in which nothing folds is returned as it is."""

    def within(env, u: str, v: str, b: int) -> bool | None:
        # the value of dist(u, v) <= b when the pattern decides it
        pu, pv = env.get(u), env.get(v)
        if pu is None or pv is None or pu[0] == pv[0]:
            return None
        if not pattern.has_edge(pu[0], pv[0]):
            return False if pu[1] + pv[1] + b <= threshold else None
        return True if pu[1] + pv[1] + threshold <= b else None

    def go(node, env: dict[str, tuple[int, int] | None]):
        match node:
            case DistAtom(u, v, b):
                got = within(env, u, v, b)
                return node if got is None else Truth() if got else Falsity()
            case Eq(u, v):
                return Falsity() if within(env, u, v, 0) is False else node
            case Atom(_, args):
                if any(within(env, u, v, 1) is False
                       for u, v in combinations(args, 2)):
                    return Falsity()
                return node
            case Not() | Or():
                return map_children(node, lambda c: go(c, env))
            case Exists(v, body):
                guard = _find_guard(v, body, env)
                owner = None if guard is None else env[guard[1]]
                inner = dict(env)
                inner[v] = (None if owner is None
                            else (owner[0], owner[1] + guard[2]))
                return map_children(node, lambda c: go(c, inner))
            case _:
                return node

    return go(theta, {v: (p, 0) for p, v in enumerate(vars, 1)})


def factor_for_pattern(theta, vars: Sequence[str], pattern: PatternGraph,
                       radius: int) -> dict[frozenset[int], "Formula"] | None:
    """Theta as one conjunct per component of the pattern.  Theta is folded
    once by _fold_separations at threshold 2*radius+1 and simplified, for
    connected and disconnected patterns alike.  A connected pattern takes
    the result whole; otherwise each conjunct goes to the component of its
    tuple variables, a closed one to the anchor's.  None when a conjunct
    still ties several components together."""
    comps = pattern.components()
    folded = simplify(_fold_separations(theta, vars, pattern, 2 * radius + 1))
    if len(comps) == 1:
        return {comps[0]: folded}
    comp_id = {vars[p - 1]: ci for ci, comp in enumerate(comps) for p in comp}
    buckets: dict[int, list] = {ci: [] for ci in range(len(comps))}
    home = comp_id[vars[0]]
    for part in flatten_conj(folded):
        owners = {comp_id[v] for v in free_vars(part) if v in comp_id}
        if len(owners) > 1:
            return None
        buckets[owners.pop() if owners else home].append(part)
    return {comp: conj(buckets[ci]) for ci, comp in enumerate(comps)}


def cross_extensions(pattern: PatternGraph,
                     side: frozenset[int]) -> tuple[PatternGraph, ...]:
    """All patterns obtained by adding at least one edge between `side` and
    the rest, keeping both induced sides unchanged."""
    other = frozenset(range(1, pattern.k + 1)) - side
    pairs = [(min(i, j), max(i, j)) for i in sorted(side) for j in sorted(other)]
    out = []
    for mask in range(1, 1 << len(pairs)):
        extra = [p for b, p in enumerate(pairs) if mask >> b & 1]
        out.append(PatternGraph.of(pattern.k,
                                   tuple(pattern.edges) + tuple(extra)))
    return tuple(out)


# -- cl-term construction for local counting bodies ------------------------


def count_to_clterm(vars: Sequence[str], theta, radius: int,
                    unary: bool) -> ClTerm:
    """cl-term equal to the count of tuples satisfying theta (r-local around
    the tuple), summed over all distance patterns.  The patterns' parts are
    summed once, in pattern order, and one memo serves every pattern."""
    vars = tuple(vars)
    k = len(vars)
    if k > MAX_WIDTH:
        raise UnsupportedFragmentError(
            f"counting width {k} exceeds the cap {MAX_WIDTH}", render(theta))
    memo: dict = {}
    parts = []
    for pattern in all_patterns(k):
        factors = factor_for_pattern(theta, vars, pattern, radius)
        if factors is None:
            raise UnsupportedFragmentError(
                "condition does not factor over the components of pattern "
                f"{sorted(pattern.edges)}", render(theta))
        parts.append(_pattern_clterm(pattern, radius, factors, vars, unary,
                                     memo))
    return _sum(parts)


def _pattern_clterm(pattern: PatternGraph, radius: int,
                    factors: Mapping[frozenset[int], "Formula"],
                    vars: tuple[str, ...], unary: bool, memo: dict) -> ClTerm:
    """The count of tuples realizing `pattern` whose components satisfy
    their factors.  A disconnected pattern is the product of its anchor's
    side and the rest, less every extension by edges between them; an
    extension reached again reuses its first cl-term, as the factors of
    the two differ at most in the order of their conjuncts.  `memo` keys
    each whole call, which is a function of its arguments, by (edges,
    unary, vars, factors)."""
    key = (pattern.edges, unary, vars, tuple(factors.items()))
    if key in memo:
        return memo[key]
    extensions: dict[frozenset[tuple[int, int]], ClTerm] = {}

    def count(pattern: PatternGraph, factors) -> ClTerm:
        comps = pattern.components()
        if len(comps) == 1:
            psi = simplify(conj([factors[c] for c in sorted(factors, key=min)]))
            return (ClTerm.of_const(0) if isinstance(psi, Falsity) else
                    ClTerm.of_basic(BasicClTerm(vars, radius, pattern, psi,
                                                unary)))
        side = next(c for c in comps if 1 in c)
        rest = frozenset(range(1, pattern.k + 1)) - side
        parts = [_restrict(pattern, radius, factors, vars, side, unary, memo)
                 * _restrict(pattern, radius, factors, vars, rest, False, memo)]
        for ext in cross_extensions(pattern, side):
            if ext.edges not in extensions:
                extensions[ext.edges] = count(ext, _merge_factors(ext, factors))
            parts.append(extensions[ext.edges].scale(-1))
        return _sum(parts)

    memo[key] = count(pattern, factors)
    return memo[key]


def _restrict(pattern: PatternGraph, radius: int, factors, vars,
              positions: frozenset[int], unary: bool, memo: dict) -> ClTerm:
    pos = sorted(positions)
    sub_pattern = pattern.induced(pos)
    sub_vars = tuple(vars[p - 1] for p in pos)
    sub_factors = {}
    remap = {p: i + 1 for i, p in enumerate(pos)}
    for comp, psi in factors.items():
        if comp <= positions:
            sub_factors[frozenset(remap[p] for p in comp)] = psi
    return _pattern_clterm(sub_pattern, radius, sub_factors, sub_vars, unary,
                           memo)


def _merge_factors(pattern: PatternGraph, factors) -> dict:
    """Re-key component factors onto the components of `pattern`, an
    extension: added edges only merge components, so each one has a host."""
    out: dict[frozenset[int], list] = {c: [] for c in pattern.components()}
    for comp, psi in factors.items():
        out[next(c for c in out if comp <= c)].append(psi)
    return {c: conj(ps) for c, ps in out.items()}


# -- layered decompositions ------------------------------------------------


@dataclass(frozen=True)
class SymbolDef:
    """One fresh symbol: ι(name) = pred(args...) with `var` free when unary.
    A sentence exists x1...xk. phi is no special case: it is the 0-ary
    application geq1(#(x1,...,xk). phi).  Layers are made per round, each
    holding the applications that were innermost in its round."""

    name: str
    arity: int
    var: str | None
    pred: str
    args: tuple[ClTerm, ...]


@dataclass(frozen=True)
class Layer:
    symbols: tuple[SymbolDef, ...]


@dataclass(frozen=True)
class ClDecomposition:
    layers: tuple[Layer, ...]
    final_formula: object | None
    final_term: ClTerm | None

    def to_json(self) -> dict:
        layers = []
        for layer in self.layers:
            entry = {}
            for sym in layer.symbols:
                entry[sym.name] = {
                    "arity": sym.arity,
                    "var": sym.var,
                    "pred": sym.pred,
                    "args": [render(a.to_term()) for a in sym.args],
                    "radii": sorted({b.radius for a in sym.args
                                     for b in a.basics()}),
                    "widths": sorted({b.k for a in sym.args
                                      for b in a.basics()}),
                }
            layers.append(entry)
        out = {"layers": layers}
        if self.final_formula is not None:
            out["final_formula"] = render(self.final_formula)
        if self.final_term is not None:
            out["final_term"] = render(self.final_term.to_term())
        return out


class _Decomposer:
    def __init__(self, sig: Signature, registry: Registry):
        self.registry = registry
        self.layers: list[list[SymbolDef]] = []
        self.names: set[str] = set(sig.names())

    def fresh_name(self, payload: str) -> str:
        digest = hashlib.sha1(payload.encode()).hexdigest()[:8]
        name = f"Q{len(self.layers)}_{digest}"
        while name in self.names:
            name += "x"
        self.names.add(name)
        return name

    def pull_const_preds(self, expr):
        """Simplify, then decide every closed predicate application over
        pure integer arithmetic, such as prime(3) or leq(0, 3), with the
        registry's oracle and simplify again, until none is left: a decided
        value can empty a count's body and so make the application around
        that count constant too.  Each becomes true or false, not a symbol,
        so a branch that a decided value cuts off (true | ..., false & ...)
        is never decomposed.  An unknown predicate or a wrong arity raises
        InputError here."""
        expr = simplify(expr)
        while True:
            table = {}
            for app in _apps_without(expr, CountTerm):
                values = [_const_value(t) for t in app.args]
                holds = self.registry.get(app.pred).holds(*values)
                table[app] = Truth() if holds else Falsity()
            if not table:
                return expr
            expr = simplify(replace_nodes(expr, table))

    def term_to_clterm(self, t, anchor: str | None) -> ClTerm:
        match t:
            case IntConst(v):
                return ClTerm.of_const(v)
            case Add(a, b):
                return self.term_to_clterm(a, anchor) + self.term_to_clterm(b, anchor)
            case Mul(a, b):
                return self.term_to_clterm(a, anchor) * self.term_to_clterm(b, anchor)
            case CountTerm(vs, theta):
                unary = (anchor is not None
                         and anchor in free_vars(theta) - set(vs))
                full = ((anchor,) + tuple(vs)) if unary else tuple(vs)
                radius = locality_radius(theta, full)
                if radius is None:
                    raise UnsupportedFragmentError(
                        f"counting body is not distance-local around {full}",
                        render(theta))
                return count_to_clterm(full, theta, radius, unary)
        raise UnsupportedFragmentError("unsupported term shape", render(t))

    def rewrite_apps(self, expr):
        """Turn every predicate application into a fresh symbol, innermost
        first, one layer per round.  An innermost application holds no
        other, so the bodies of its counts hold no counting."""
        while True:
            targets = _apps_without(expr, PredApp)
            if not targets:
                return expr
            table = {}
            symbols = []
            for app in targets:
                fv = sorted(free_vars(app))
                if len(fv) > 1:
                    raise InputError(
                        f"{render(app)} joins free variables {fv}")
                anchor = fv[0] if fv else None
                args = tuple(self.term_to_clterm(t, anchor) for t in app.args)
                name = self.fresh_name(render(app))
                if anchor is None:
                    symbols.append(SymbolDef(name, 0, None, app.pred, args))
                    table[app] = Atom(name, ())
                else:
                    symbols.append(SymbolDef(name, 1, anchor, app.pred, args))
                    table[app] = Atom(name, (anchor,))
            self.layers.append(symbols)
            expr = replace_nodes(expr, table)


def _apps_without(e, kind: type) -> list[PredApp]:
    """The distinct predicate applications of e whose arguments hold no
    node of type `kind`, in one pass that visits each node once.  With
    `kind` PredApp or CountTerm no two of them are nested, so the pass
    lists them in the order walk(e) meets them."""
    found: dict[PredApp, None] = {}

    def holds(node) -> bool:
        inside = False
        for c in children(node):
            inside = holds(c) or inside
        if isinstance(node, PredApp) and not inside:
            found.setdefault(node)
        return inside or isinstance(node, kind)

    holds(e)
    return list(found)


def _const_value(t) -> int:
    folded = simplify(t)
    if isinstance(folded, IntConst):
        return folded.value
    raise UnsupportedFragmentError("expected integer arithmetic", render(t))


def _sentences_as_counts(e):
    """e with each closed existential chain exists x1...xk. body, innermost
    first, written as geq1(#(x1,...,xk). body).  The prefix stops at an
    inner chain that is itself closed, which becomes its own application."""
    e = map_children(e, _sentences_as_counts)
    if not isinstance(e, Exists) or free_vars(e):
        return e
    vars, body = [], e
    while isinstance(body, Exists):
        vars.append(body.var)
        body = body.sub
    return geq1(CountTerm(tuple(vars), body))


def cl_decompose(expr, sig: Signature,
                 registry: Registry | None = None) -> ClDecomposition:
    """Decompose a closed counting-logic sentence or ground term into layered
    symbol definitions plus a final boolean combination (sentences) or one
    ground cl-term (terms)."""
    registry = registry or default_registry()
    if free_vars(expr):
        raise InputError(
            f"decomposition needs a closed input; free: {sorted(free_vars(expr))}")
    problems = validate_fo1c(expr)
    if problems:
        raise InputError("outside the one-variable counting fragment: "
                         + "; ".join(problems))
    dec = _Decomposer(sig, registry)
    expr = dec.rewrite_apps(_sentences_as_counts(dec.pull_const_preds(expr)))
    layers = tuple(Layer(tuple(s)) for s in dec.layers)
    if is_formula(expr):
        return ClDecomposition(layers, simplify(expr), None)
    return ClDecomposition(layers, None, dec.term_to_clterm(expr, None))


# -- decomposition evaluation ---------------------------------------------


def default_engine(structure: Structure, basic: BasicClTerm,
                   registry: Registry | None = None):
    """Reference engine: per-anchor local evaluation."""
    if basic.unary:
        return {a: eval_basic_cl(structure, basic, a, registry)
                for a in structure.universe}
    return eval_basic_cl(structure, basic, None, registry)


def eval_decomposition(decomp: ClDecomposition, structure: Structure,
                       registry: Registry | None = None,
                       engine: Callable | None = None):
    """Materialize the live symbols layer by layer, bottom-up, then evaluate
    the final part.  Returns a bool for sentences and an int for ground
    terms.

    A symbol is live when the final formula or final term reads it, or the
    psi of a basic term in an argument of a live symbol does; every other
    symbol is skipped and none of its basic terms reaches `engine`.  Within
    a layer the 0-ary symbols come first: each value is substituted into the
    final formula, which is simplified, and the live set is recomputed, so a
    sentence that decides the final formula (true | ..., false & ...) leaves
    the rest of it unevaluated.  Then the layer's live unary symbols are
    materialized, and the structure is expanded by everything computed.

    One cache holds the engine's value of every basic term, for every layer
    and the final term alike: a basic term reads only symbols of earlier
    layers, and the unary and 0-ary symbols that expand the structure add no
    Gaifman edge, so its value does not change as the structure grows.
    """
    registry = registry or default_registry()
    if engine is None:
        engine = lambda s, b: default_engine(s, b, registry)
    reads = {sym.name: _symbols_read(sym.args)
             for layer in decomp.layers for sym in layer.symbols}
    final = decomp.final_formula

    def live_symbols() -> set[str]:
        if final is None:
            todo = list(_symbols_read((decomp.final_term,)))
        else:
            todo = [n.rel for n in walk(final) if isinstance(n, Atom)]
        live: set[str] = set()
        while todo:
            name = todo.pop()
            if name in reads and name not in live:
                live.add(name)
                todo.extend(reads[name])
        return live

    live = live_symbols()
    current = structure
    cache: dict[BasicClTerm, object] = {}

    def basic_values(b: BasicClTerm):
        if b not in cache:
            cache[b] = engine(current, b)
        return cache[b]

    for layer in decomp.layers:
        extra = {}
        for sym in sorted(layer.symbols, key=lambda sym: sym.arity):
            if sym.name not in live:
                continue
            pred = registry.get(sym.pred)
            if sym.arity == 0:
                values = [a.value(lambda b: _ground_val(basic_values(b)))
                          for a in sym.args]
                holds = pred.holds(*values)
                tuples = [()] if holds else []
                if final is not None:
                    final = simplify(replace_nodes(
                        final, {Atom(sym.name, ()): Truth() if holds
                                else Falsity()}))
                    live = live_symbols()
            else:
                tuples = []
                for elem in current.universe:
                    values = [a.value(lambda b: _at(basic_values(b), elem))
                              for a in sym.args]
                    if pred.holds(*values):
                        tuples.append((elem,))
            extra[sym.name] = (sym.arity, tuples)
        # a 0-ary value substituted into the final formula is read by no
        # live symbol, so the structure need not carry it
        extra = {name: rel for name, rel in extra.items() if name in live}
        if extra:
            current = current.expand(extra)
    if final is not None:
        return bool(Evaluator(current, registry).evaluate(final))
    return decomp.final_term.value(lambda b: _ground_val(basic_values(b)))


def _symbols_read(args: Iterable[ClTerm]) -> frozenset[str]:
    """Names of the relations read by the psi of a basic term of args."""
    return frozenset(n.rel for a in args for b in a.basics()
                     for n in walk(b.psi) if isinstance(n, Atom))


def _ground_val(v) -> int:
    if isinstance(v, dict):
        raise InputError("ground position received per-element values")
    return v


def _at(v, elem: str) -> int:
    if isinstance(v, dict):
        return v[elem]
    return v
