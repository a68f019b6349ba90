"""Syntax for first-order logic with counting terms.

Core connectives are negation, disjunction and existential quantification;
conjunction, implication, universal quantification and "t >= 1" are parser
sugar and are desugared immediately.  Terms are integers, counting terms
#(y1,..,yk). phi, sums and products; numerical predicates are applied to
terms.  Distance atoms dist(x,y) <= d extend plain first-order syntax.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .errors import InputError, ParseError
from .structures import Signature, cached

KEYWORDS = {"exists", "forall", "dist", "true", "false"}


# -- AST -------------------------------------------------------------------


class _Node:
    """Facts of a syntax node, each computed once: nodes are immutable, and
    every rewrite below returns a node itself when nothing under it
    changes, so an unchanged subtree keeps its facts through the rewrite."""

    def __hash__(self) -> int:
        return self._hash

    @cached
    def _hash(self) -> int:
        # the hash that the frozen dataclass would generate over its fields,
        # whose own hashes are cached in turn
        return hash(tuple([getattr(self, f) for f in self.__match_args__]))

    @cached
    def _free(self) -> frozenset[str]:
        return _free_vars(self)

    @cached
    def _simplified(self) -> "Expr | None":
        # None when simplify leaves the node as it is, so that no node
        # refers to itself
        out = _simplify(self)
        return None if out is self else out


def _node(cls):
    """A frozen dataclass of the syntax tree, with the hash of _Node."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = _Node.__hash__
    return cls


@_node
class Truth(_Node):
    pass


@_node
class Falsity(_Node):
    pass


@_node
class Eq(_Node):
    left: str
    right: str


@_node
class Atom(_Node):
    rel: str
    args: tuple[str, ...]


@_node
class DistAtom(_Node):
    left: str
    right: str
    bound: int


@_node
class Not(_Node):
    sub: "Formula"


@_node
class Or(_Node):
    left: "Formula"
    right: "Formula"


@_node
class Exists(_Node):
    var: str
    sub: "Formula"


@_node
class PredApp(_Node):
    pred: str
    args: tuple["Term", ...]


@_node
class IntConst(_Node):
    value: int


@_node
class CountTerm(_Node):
    vars: tuple[str, ...]
    body: "Formula"

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise InputError(f"counting variables must be distinct: {self.vars}")


@_node
class Add(_Node):
    left: "Term"
    right: "Term"


@_node
class Mul(_Node):
    left: "Term"
    right: "Term"


Formula = Truth | Falsity | Eq | Atom | DistAtom | Not | Or | Exists | PredApp
Term = IntConst | CountTerm | Add | Mul
Expr = Formula | Term

FORMULA_TYPES = (Truth, Falsity, Eq, Atom, DistAtom, Not, Or, Exists, PredApp)


def is_formula(e: Expr) -> bool:
    return isinstance(e, FORMULA_TYPES)


# -- sugar constructors ----------------------------------------------------


def and_(a: Formula, b: Formula) -> Formula:
    return Not(Or(Not(a), Not(b)))


def conj(parts: Iterable[Formula]) -> Formula:
    parts = list(parts)
    if not parts:
        return Truth()
    out = parts[0]
    for p in parts[1:]:
        out = and_(out, p)
    return out


def disj(parts: Iterable[Formula]) -> Formula:
    parts = list(parts)
    if not parts:
        return Falsity()
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def implies(a: Formula, b: Formula) -> Formula:
    return Or(Not(a), b)


def forall(var: str, body: Formula) -> Formula:
    return Not(Exists(var, Not(body)))


def exists_chain(vars: Iterable[str], body: Formula) -> Formula:
    out = body
    for v in reversed(list(vars)):
        out = Exists(v, out)
    return out


def geq1(t: Term) -> Formula:
    return PredApp("geq1", (t,))


def flatten_conj(f: Formula) -> list[Formula]:
    """Conjunctive parts of f.  Any negated disjunction splits (De Morgan),
    so conjunctions survive even after double negations were simplified
    away; double negations on the parts are stripped."""
    while isinstance(f, Not) and isinstance(f.sub, Not):
        f = f.sub.sub
    if isinstance(f, Not) and isinstance(f.sub, Or):
        return flatten_conj(Not(f.sub.left)) + flatten_conj(Not(f.sub.right))
    return [] if isinstance(f, Truth) else [f]


# -- traversals ------------------------------------------------------------


def children(e: Expr) -> tuple[Expr, ...]:
    match e:
        case Not(sub):
            return (sub,)
        case Or(a, b) | Add(a, b) | Mul(a, b):
            return (a, b)
        case Exists(_, sub):
            return (sub,)
        case PredApp(_, args):
            return args
        case CountTerm(_, body):
            return (body,)
        case _:
            return ()


def walk(e: Expr) -> Iterator[Expr]:
    """e and every node below it, parents before children, left to right."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def free_vars(e: Expr) -> frozenset[str]:
    """The free variables of e, computed once per node."""
    if not isinstance(e, _Node):
        raise TypeError(f"not an expression: {e!r}")
    return e._free


def _free_vars(e: Expr) -> frozenset[str]:
    match e:
        case Truth() | Falsity() | IntConst():
            return frozenset()
        case Eq(a, b):
            return frozenset((a, b))
        case DistAtom(a, b, _):
            return frozenset((a, b))
        case Atom(_, args):
            return frozenset(args)
        case Not(sub):
            return free_vars(sub)
        case Or(a, b) | Add(a, b) | Mul(a, b):
            return free_vars(a) | free_vars(b)
        case Exists(v, sub):
            return free_vars(sub) - {v}
        case CountTerm(vs, body):
            return free_vars(body) - set(vs)
        case PredApp(_, args):
            out: frozenset[str] = frozenset()
            for t in args:
                out |= free_vars(t)
            return out
    raise TypeError(f"not an expression: {e!r}")


def map_children(e: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """e rebuilt with fn applied to each of its children, or e itself when
    fn returns every child unchanged."""
    match e:
        case Not(sub):
            s = fn(sub)
            return e if s is sub else Not(s)
        case Or(a, b) | Add(a, b) | Mul(a, b):
            x, y = fn(a), fn(b)
            return e if x is a and y is b else type(e)(x, y)
        case Exists(v, sub):
            s = fn(sub)
            return e if s is sub else Exists(v, s)
        case CountTerm(vs, body):
            s = fn(body)
            return e if s is body else CountTerm(vs, s)
        case PredApp(p, args):
            new = tuple([fn(t) for t in args])
            if all(n is t for n, t in zip(new, args)):
                return e
            return PredApp(p, new)
        case _:
            return e


def replace_nodes(e: Expr, table: Mapping[Expr, Expr]) -> Expr:
    """Replace whole subexpressions (matched structurally), outermost first;
    a subtree holding no match is returned as it is."""
    if e in table:
        return table[e]
    return map_children(e, lambda c: replace_nodes(c, table))


def simplify(e: Expr) -> Expr:
    """Constant folding on boolean and arithmetic structure (semantics
    kept).  A node none of whose parts folds is returned as it is.  The
    result is cached on each node, so simplifying a subtree again, or the
    result of a simplification, visits only its root."""
    out = e._simplified
    return e if out is None else out


def _simplify(e: Expr) -> Expr:
    match e:
        case Not(sub):
            s = simplify(sub)
            if isinstance(s, Truth):
                return Falsity()
            if isinstance(s, Falsity):
                return Truth()
            if isinstance(s, Not):
                return s.sub
            return e if s is sub else Not(s)
        case Or(a, b):
            sa, sb = simplify(a), simplify(b)
            if isinstance(sa, Truth) or isinstance(sb, Truth):
                return Truth()
            if isinstance(sa, Falsity):
                return sb
            if isinstance(sb, Falsity):
                return sa
            return e if sa is a and sb is b else Or(sa, sb)
        case Exists(v, sub):
            s = simplify(sub)
            # universes are non-empty, so a vacuous body decides the quantifier
            if isinstance(s, (Truth, Falsity)):
                return s
            # v = w witnesses dist(v, w) <= b; a simplified DistAtom has
            # distinct sides and b >= 0
            if isinstance(s, DistAtom) and v in (s.left, s.right):
                return Truth()
            return e if s is sub else Exists(v, s)
        case Eq(a, b) if a == b:
            return Truth()
        case DistAtom(a, b, d):
            if a == b and d >= 0:
                return Truth()
            if d < 0:
                return Falsity()
            return e
        case CountTerm(vs, body):
            s = simplify(body)
            if isinstance(s, Falsity):
                return IntConst(0)
            return e if s is body else CountTerm(vs, s)
        case PredApp():
            return map_children(e, simplify)
        case Add(a, b):
            sa, sb = simplify(a), simplify(b)
            if isinstance(sa, IntConst) and isinstance(sb, IntConst):
                return IntConst(sa.value + sb.value)
            if isinstance(sa, IntConst) and sa.value == 0:
                return sb
            if isinstance(sb, IntConst) and sb.value == 0:
                return sa
            return e if sa is a and sb is b else Add(sa, sb)
        case Mul(a, b):
            sa, sb = simplify(a), simplify(b)
            if isinstance(sa, IntConst) and isinstance(sb, IntConst):
                return IntConst(sa.value * sb.value)
            for x, y in ((sa, sb), (sb, sa)):
                if isinstance(x, IntConst):
                    if x.value == 0:
                        return IntConst(0)
                    if x.value == 1:
                        return y
            return e if sa is a and sb is b else Mul(sa, sb)
        case _:
            return e


# -- rendering -------------------------------------------------------------


def render(e: Expr) -> str:
    match e:
        case Truth():
            return "true"
        case Falsity():
            return "false"
        case Eq(a, b):
            return f"{a} = {b}"
        case Atom(rel, args):
            return f"{rel}({','.join(args)})"
        case DistAtom(a, b, d):
            return f"dist({a},{b}) <= {d}"
        case Not(sub):
            return f"!{render(sub)}"
        case Or(a, b):
            return f"({render(a)} | {render(b)})"
        case Exists(v, sub):
            return f"exists {v}. {render(sub)}"
        case PredApp(p, args):
            return f"{p}({', '.join(render(t) for t in args)})"
        case IntConst(v):
            return str(v)
        case CountTerm(vs, body):
            return f"#({','.join(vs)}). {render(body)}"
        case Add(a, b):
            return f"({render(a)} + {render(b)})"
        case Mul(a, b):
            return f"({render(a)} * {render(b)})"
    raise TypeError(f"not an expression: {e!r}")


# -- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<WS>\s+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<INT>-?\d+)
  | (?P<IMP>=>)
  | (?P<LE><=)
  | (?P<GE>>=)
  | (?P<EQ>=)
  | (?P<LPAR>\()
  | (?P<RPAR>\))
  | (?P<COMMA>,)
  | (?P<DOT>\.)
  | (?P<BANG>!)
  | (?P<PIPE>\|)
  | (?P<AMP>&)
  | (?P<HASH>\#)
  | (?P<PLUS>\+)
  | (?P<STAR>\*)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    pos: int


def tokenize(text: str) -> list[Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos, text)
        if m.lastgroup != "WS":
            out.append(Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(Token("EOF", "", len(text)))
    return out


# -- numerical predicates --------------------------------------------------


@dataclass(frozen=True)
class NumericPredicate:
    """A named m-ary predicate on integers with a decision oracle."""

    name: str
    arity: int
    fn: Callable[..., bool]

    def holds(self, *values: int) -> bool:
        if len(values) != self.arity:
            raise InputError(
                f"predicate {self.name!r} expects {self.arity} arguments")
        return bool(self.fn(*values))


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with every base in _SMALL_PRIMES is exact below this bound
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality: trial division by the primes up to 41, then
    Miller-Rabin with those primes as bases, which no composite below
    _MR_EXACT_BELOW passes, and above it the Baillie-PSW test (Miller-Rabin
    to base 2 and a strong Lucas test), for which no counterexample is
    known."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n < _MR_EXACT_BELOW:
        return all(_strong_probable_prime(n, a) for a in _SMALL_PRIMES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, base: int) -> bool:
    """Miller-Rabin round to `base` for an odd n > base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for an odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters for an odd n > 41: D is
    the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False  # no such D exists
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1

    def half(x: int) -> int:
        x %= n
        return (x + n if x % 2 else x) // 2

    # U_k, V_k and Q^k mod n, from k = 1 up the binary digits of d (P = 1)
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


class Registry:
    """Name -> NumericPredicate lookup, extensible per run."""

    def __init__(self, preds: Iterable[NumericPredicate] = ()):
        self._preds: dict[str, NumericPredicate] = {}
        for p in preds:
            self.register(p)

    def register(self, pred: NumericPredicate) -> None:
        if pred.name in self._preds:
            raise InputError(f"predicate {pred.name!r} already registered")
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", pred.name) \
                or pred.name in KEYWORDS:
            raise InputError(f"invalid predicate name {pred.name!r}")
        self._preds[pred.name] = pred

    def has(self, name: str) -> bool:
        return name in self._preds

    def get(self, name: str) -> NumericPredicate:
        try:
            return self._preds[name]
        except KeyError:
            raise InputError(f"unknown predicate {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._preds))


def default_registry() -> Registry:
    return Registry([
        NumericPredicate("geq1", 1, lambda n: n >= 1),
        NumericPredicate("eq", 2, lambda a, b: a == b),
        NumericPredicate("leq", 2, lambda a, b: a <= b),
        NumericPredicate("prime", 1, _is_prime),
    ])


# -- queries ---------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """Output variables, output terms, and a body formula."""

    out_vars: tuple[str, ...]
    out_terms: tuple[Term, ...]
    body: Formula

    def validate(self) -> None:
        if len(set(self.out_vars)) != len(self.out_vars):
            raise InputError("output variables must be distinct")
        body_free = free_vars(self.body)
        if body_free != set(self.out_vars):
            raise InputError(
                f"body free variables {sorted(body_free)} must equal "
                f"output variables {list(self.out_vars)}")
        for t in self.out_terms:
            extra = free_vars(t) - set(self.out_vars)
            if extra:
                raise InputError(
                    f"output term {render(t)} uses non-output variables {sorted(extra)}")
        problems = validate_fo1c(self.body)
        for t in self.out_terms:
            problems += validate_fo1c(t)
        if problems:
            raise InputError("query outside the one-variable counting fragment: "
                             + "; ".join(problems))


# -- fragment checks -------------------------------------------------------


def validate_fo1c(e: Expr) -> list[str]:
    """Diagnostics for predicate applications whose terms jointly use more
    than one free variable.  Empty list means the expression is inside the
    one-free-variable counting fragment."""
    problems = []
    for node in walk(e):
        if isinstance(node, PredApp):
            joint: frozenset[str] = frozenset()
            for t in node.args:
                joint |= free_vars(t)
            if len(joint) > 1:
                problems.append(
                    f"{render(node)} joins free variables {sorted(joint)}")
    return problems


# -- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, sig: Signature, registry: Registry):
        self.text = text
        self.toks = tokenize(text)
        self.pos = 0
        self.sig = sig
        self.registry = registry

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.peek()
        self.pos += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.value!r}", t.pos, self.text)
        return self.next()

    def fail(self, message: str) -> None:
        t = self.peek()
        raise ParseError(message, t.pos, self.text)

    def variable(self) -> str:
        t = self.expect("IDENT")
        if t.value in KEYWORDS:
            raise ParseError(f"{t.value!r} is a keyword, not a variable",
                             t.pos, self.text)
        return t.value

    # formulas

    def formula(self) -> Formula:
        t = self.peek()
        if t.kind == "IDENT" and t.value == "true":
            self.next()
            return Truth()
        if t.kind == "IDENT" and t.value == "false":
            self.next()
            return Falsity()
        if t.kind == "BANG":
            self.next()
            return Not(self.formula())
        if t.kind == "IDENT" and t.value in ("exists", "forall"):
            self.next()
            v = self.variable()
            self.expect("DOT")
            body = self.formula()
            return Exists(v, body) if t.value == "exists" else forall(v, body)
        if t.kind == "IDENT" and t.value == "dist":
            self.next()
            self.expect("LPAR")
            a = self.variable()
            self.expect("COMMA")
            b = self.variable()
            self.expect("RPAR")
            self.expect("LE")
            d = int(self.expect("INT").value)
            if d < 0:
                raise ParseError("distance bound must be non-negative",
                                 t.pos, self.text)
            return DistAtom(a, b, d)
        if t.kind == "IDENT":
            if self.peek(1).kind == "LPAR":
                return self.application()
            if self.peek(1).kind == "EQ":
                a = self.variable()
                self.next()
                b = self.variable()
                return Eq(a, b)
            self.fail(f"expected '(' or '=' after identifier {t.value!r}")
        if t.kind in ("INT", "HASH"):
            return self.geq_one()
        if t.kind == "LPAR":
            save = self.pos
            try:
                self.next()
                left = self.formula()
                op = self.peek()
                if op.kind not in ("PIPE", "AMP", "IMP"):
                    self.fail("expected '|', '&' or '=>'")
                self.next()
                right = self.formula()
                self.expect("RPAR")
            except ParseError:
                self.pos = save
                return self.geq_one()
            if op.kind == "PIPE":
                return Or(left, right)
            if op.kind == "AMP":
                return and_(left, right)
            return implies(left, right)
        self.fail("expected a formula")

    def geq_one(self) -> Formula:
        t = self.term()
        self.expect("GE")
        one = self.expect("INT")
        if one.value != "1":
            raise ParseError("only '>= 1' comparisons are supported",
                             one.pos, self.text)
        return geq1(t)

    def application(self) -> Formula:
        name_tok = self.next()
        name = name_tok.value
        in_sig = self.sig.has(name)
        in_reg = self.registry.has(name)
        if in_sig and in_reg:
            raise ParseError(f"{name!r} is both a relation and a predicate",
                             name_tok.pos, self.text)
        if not in_sig and not in_reg:
            raise ParseError(f"unknown relation or predicate {name!r}",
                             name_tok.pos, self.text)
        self.expect("LPAR")
        if in_sig:
            args: list[str] = []
            if self.peek().kind != "RPAR":
                args.append(self.variable())
                while self.peek().kind == "COMMA":
                    self.next()
                    args.append(self.variable())
            self.expect("RPAR")
            want = self.sig.arity(name)
            if len(args) != want:
                raise ParseError(
                    f"relation {name!r} expects {want} arguments, got {len(args)}",
                    name_tok.pos, self.text)
            return Atom(name, tuple(args))
        terms: list[Term] = [self.term()]
        while self.peek().kind == "COMMA":
            self.next()
            terms.append(self.term())
        self.expect("RPAR")
        want = self.registry.get(name).arity
        if len(terms) != want:
            raise ParseError(
                f"predicate {name!r} expects {want} arguments, got {len(terms)}",
                name_tok.pos, self.text)
        return PredApp(name, tuple(terms))

    # terms

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "INT":
            self.next()
            return IntConst(int(t.value))
        if t.kind == "HASH":
            self.next()
            self.expect("LPAR")
            vs: list[str] = []
            if self.peek().kind != "RPAR":
                vs.append(self.variable())
                while self.peek().kind == "COMMA":
                    self.next()
                    vs.append(self.variable())
            self.expect("RPAR")
            self.expect("DOT")
            body = self.formula()
            if len(set(vs)) != len(vs):
                raise ParseError("counting variables must be distinct",
                                 t.pos, self.text)
            return CountTerm(tuple(vs), body)
        if t.kind == "LPAR":
            self.next()
            left = self.term()
            op = self.peek()
            if op.kind not in ("PLUS", "STAR"):
                self.fail("expected '+' or '*'")
            self.next()
            right = self.term()
            self.expect("RPAR")
            return Add(left, right) if op.kind == "PLUS" else Mul(left, right)
        self.fail("expected a term")

    # queries

    def query(self) -> Query:
        self.expect("LPAR")
        out_vars: list[str] = []
        out_terms: list[Term] = []
        while self.peek().kind != "RPAR":
            if out_vars or out_terms:
                self.expect("COMMA")
            t = self.peek()
            if t.kind == "IDENT" and t.value not in KEYWORDS \
                    and self.peek(1).kind in ("COMMA", "RPAR"):
                if out_terms:
                    raise ParseError("output variables must precede output terms",
                                     t.pos, self.text)
                out_vars.append(self.variable())
            else:
                out_terms.append(self.term())
        self.expect("RPAR")
        self.expect("DOT")
        body = self.formula()
        q = Query(tuple(out_vars), tuple(out_terms), body)
        q.validate()
        return q

    def at_query(self) -> bool:
        """True when the token stream looks like '(' ... ')' '.' ..."""
        if self.toks[0].kind != "LPAR":
            return False
        depth = 0
        for i, t in enumerate(self.toks):
            if t.kind == "LPAR":
                depth += 1
            elif t.kind == "RPAR":
                depth -= 1
                if depth == 0:
                    return self.toks[i + 1].kind == "DOT"
        return False


def _finish(parser: _Parser, value):
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing input {tok.value!r}",
                         tok.pos, parser.text)
    return value


def parse_formula(text: str, sig: Signature,
                  registry: Registry | None = None) -> Formula:
    p = _Parser(text, sig, registry or default_registry())
    return _finish(p, p.formula())


def parse_expr(text: str, sig: Signature,
               registry: Registry | None = None) -> Expr:
    p = _Parser(text, sig, registry or default_registry())
    t = p.peek()
    if t.kind in ("INT", "HASH"):
        save = p.pos
        term = p.term()
        if p.peek().kind == "EOF":
            return term
        p.pos = save
        return _finish(p, p.formula())
    if t.kind == "LPAR":
        save = p.pos
        try:
            term = p.term()
            if p.peek().kind == "EOF":
                return term
        except ParseError:
            pass
        p.pos = save
    return _finish(p, p.formula())


def parse(text: str, sig: Signature,
          registry: Registry | None = None) -> Expr | Query:
    """Parse either a query (head '.' body) or a bare expression."""
    p = _Parser(text, sig, registry or default_registry())
    if p.at_query():
        return _finish(p, p.query())
    return parse_expr(text, sig, registry)
