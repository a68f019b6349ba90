"""Reference evaluation of counting-logic expressions, straight from the
semantic clauses.

Counting terms enumerate assignment tuples over the full universe.  The only
liberties taken are short-circuiting of disjunctions/quantifiers and a value
cache keyed by (subexpression, relevant assignment slice); both leave the
defined value untouched.  Deliberately no indexing or join planning.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping

from .errors import InputError
from .logic import (Add, Atom, CountTerm, DistAtom, Eq, Exists, Falsity,
                    IntConst, Mul, Not, Or, PredApp, Query, Registry, Truth,
                    default_registry, free_vars, is_formula)
from .structures import Structure


class Evaluator:
    """Evaluates formulas (to 0/1) and terms (to int) on one structure."""

    def __init__(self, structure: Structure, registry: Registry | None = None):
        self.structure = structure
        self.registry = registry or default_registry()
        self._memo: dict[tuple, int] = {}
        self._free: dict[int, tuple[str, ...]] = {}
        self._pins: list = []
        self._balls: dict[tuple[str, int], frozenset[str]] = {}

    def _free_of(self, e) -> tuple[str, ...]:
        key = id(e)
        got = self._free.get(key)
        if got is None:
            got = tuple(sorted(free_vars(e)))
            self._free[key] = got
            # both caches key on id(e): keep e alive so its id is not reused
            self._pins.append(e)
        return got

    def _ball(self, a: str, bound: int) -> frozenset[str]:
        key = (a, bound)
        ball = self._balls.get(key)
        if ball is None:
            ball = self.structure.ball(a, bound)
            self._balls[key] = ball
        return ball

    def _within(self, a: str, b: str, bound: int) -> bool:
        if a == b:
            return bound >= 0
        return b in self._ball(a, bound)

    def _witnesses(self, v: str, body, env: dict[str, str]):
        """The elements an existential over v tries: every element here.
        A subclass may return fewer when the others cannot satisfy body."""
        return self.structure.universe

    def evaluate(self, e, assignment: Mapping[str, str] | None = None):
        """Public entry: bool for formulas, int for terms."""
        env = dict(assignment or {})
        missing = set(self._free_of(e)) - set(env)
        if missing:
            raise InputError(f"unassigned free variables: {sorted(missing)}")
        for v in env.values():
            self.structure.check_element(v)
        value = self._eval(e, env)
        return bool(value) if is_formula(e) else value

    def _eval(self, e, env: dict[str, str]) -> int:
        expensive = isinstance(e, (CountTerm, PredApp, Exists))
        if expensive:
            fv = self._free_of(e)
            key = (id(e), tuple(env[v] for v in fv))
            hit = self._memo.get(key)
            if hit is not None:
                return hit
            value = self._eval_raw(e, env)
            self._memo[key] = value
            return value
        return self._eval_raw(e, env)

    def _eval_raw(self, e, env: dict[str, str]) -> int:
        match e:
            case Truth():
                return 1
            case Falsity():
                return 0
            case Eq(a, b):
                return int(env[a] == env[b])
            case Atom(rel, args):
                tup = tuple(env[a] for a in args)
                return int(tup in self.structure.relations[rel])
            case DistAtom(a, b, d):
                return int(self._within(env[a], env[b], d))
            case Not(sub):
                return 1 - self._eval(sub, env)
            case Or(a, b):
                if self._eval(a, env):
                    return 1
                return self._eval(b, env)
            case Exists(v, sub):
                saved = env.get(v)
                for elem in self._witnesses(v, sub, env):
                    env[v] = elem
                    if self._eval(sub, env):
                        self._restore(env, v, saved)
                        return 1
                self._restore(env, v, saved)
                return 0
            case IntConst(value):
                return value
            case Add(a, b):
                return self._eval(a, env) + self._eval(b, env)
            case Mul(a, b):
                return self._eval(a, env) * self._eval(b, env)
            case CountTerm(vs, body):
                if not vs:
                    return self._eval(body, env)
                saved = [env.get(v) for v in vs]
                total = 0
                for tup in product(self.structure.universe, repeat=len(vs)):
                    for v, elem in zip(vs, tup):
                        env[v] = elem
                    if self._eval(body, env):
                        total += 1
                for v, old in zip(vs, saved):
                    self._restore(env, v, old)
                return total
            case PredApp(p, args):
                values = [self._eval(t, env) for t in args]
                return int(self.registry.get(p).holds(*values))
        raise TypeError(f"not an expression: {e!r}")

    @staticmethod
    def _restore(env: dict[str, str], v: str, old: str | None) -> None:
        if old is None:
            env.pop(v, None)
        else:
            env[v] = old


# -- queries ---------------------------------------------------------------


@dataclass(frozen=True)
class QueryResult:
    """Sorted output rows; each row lists elements then term values."""

    rows: tuple[tuple, ...]

    def to_json(self) -> list[list]:
        out = []
        for row in self.rows:
            enc = []
            for cell in row:
                if isinstance(cell, int) and abs(cell) >= 2 ** 53:
                    enc.append(str(cell))
                else:
                    enc.append(cell)
            out.append(enc)
        return out


def eval_query(query: Query, structure: Structure,
               registry: Registry | None = None) -> QueryResult:
    query.validate()
    ev = Evaluator(structure, registry)
    rows = []
    k = len(query.out_vars)
    for tup in product(structure.universe, repeat=k):
        env = dict(zip(query.out_vars, tup))
        if k == 0:
            env = {}
        if ev._eval(query.body, dict(env)):
            values = tuple(ev._eval(t, dict(env)) for t in query.out_terms)
            rows.append(tup + values)
    return QueryResult(tuple(sorted(rows)))

