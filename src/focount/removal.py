"""Rewriting conditions to survive the removal of one element.

When an element d is deleted, `remove` (structures side) stores projected
relations naming which positions used to hold d, plus cumulative halo
predicates S__i marking the elements within distance i of d.  The transforms
here rewrite plain relational formulas so that evaluating the rewritten
formula on the smaller structure agrees with evaluating the original on the
full one, for any assignment sending the variables in the removed set to d
and all others to survivors.

Counting terms split into pieces indexed by the subset of tuple positions
pinned to d; the original count is the sum of the piece counts on the
smaller structure.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .covers import halo_name, tilde_name
from .errors import InputError
from .logic import (Atom, CountTerm, DistAtom, Eq, Exists, Falsity, Formula,
                    Not, Or, Truth, and_, disj, free_vars, render, simplify)


def removal_formula(phi: Formula, removed, r: int,
                    simplified: bool = True) -> Formula:
    """Rewrite phi for a structure with one element d deleted; variables in
    `removed` are read as naming d.  Requires every distance bound in phi to
    be at most the halo radius r."""
    if r < 0:
        raise InputError("halo radius must be >= 0")
    removed = frozenset(removed)
    out = _rewrite(phi, removed, r)
    return simplify(out) if simplified else out


def _rewrite(phi: Formula, removed: frozenset[str], r: int) -> Formula:
    match phi:
        case Truth() | Falsity():
            return phi
        case Eq(a, b):
            ra, rb = a in removed, b in removed
            if ra and rb:
                return Truth()
            if ra or rb:
                return Falsity()
            return phi
        case Atom(rel, args):
            pinned = tuple(i + 1 for i, v in enumerate(args)
                           if v in removed)
            if not pinned:
                return phi
            alive = tuple(v for v in args if v not in removed)
            return Atom(tilde_name(rel, pinned), alive)
        case DistAtom(a, b, i):
            if i > r:
                raise InputError(
                    f"distance bound {i} exceeds the halo radius {r}")
            ra, rb = a in removed, b in removed
            if ra and rb:
                return Truth()
            if ra or rb:
                survivor = b if ra else a
                if i == 0:
                    return Falsity()
                return Atom(halo_name(i), (survivor,))
            if i <= 1:
                return phi
            detours = [and_(Atom(halo_name(i1), (a,)),
                            Atom(halo_name(i - i1), (b,)))
                       for i1 in range(1, i)]
            return Or(phi, disj(detours))
        case Not(sub):
            return Not(_rewrite(sub, removed, r))
        case Or(left, right):
            return Or(_rewrite(left, removed, r), _rewrite(right, removed, r))
        case Exists(x, sub):
            at_d = _rewrite(sub, removed | {x}, r)
            elsewhere = _rewrite(sub, removed - {x}, r)
            return Or(at_d, Exists(x, elsewhere))
    raise InputError(
        f"only plain relational formulas can be rewritten: {render(phi)}")


# -- counting pieces -------------------------------------------------------


@dataclass(frozen=True)
class BasicTerm:
    """A counting term over a plain relational body.  `anchor` is the single
    free variable of unary terms; ground terms have none.  Counting over an
    empty tuple denotes the 0/1 truth indicator of the body."""

    vars: tuple[str, ...]
    body: Formula
    anchor: str | None = None

    def __post_init__(self):
        names = self.vars + ((self.anchor,) if self.anchor else ())
        if len(set(names)) != len(names):
            raise InputError("counting variables must be distinct")
        stray = free_vars(self.body) - set(names)
        if stray:
            raise InputError(f"body has stray free variables {sorted(stray)}")

    def to_count_term(self) -> CountTerm:
        return CountTerm(self.vars, self.body)

    @property
    def width(self) -> int:
        return len(self.vars) + (1 if self.anchor else 0)


def removal_ground_term(term: BasicTerm, r: int) \
        -> tuple[tuple[tuple[int, ...], BasicTerm], ...]:
    """Split a ground counting term into per-pinned-subset pieces; the
    original value equals the sum of the piece values after removal."""
    if term.anchor is not None:
        raise InputError("ground transform got a unary term")
    out = []
    for pinned in _position_subsets(len(term.vars)):
        removed = frozenset(term.vars[i - 1] for i in pinned)
        alive = tuple(v for v in term.vars if v not in removed)
        body = removal_formula(term.body, removed, r)
        out.append((pinned, BasicTerm(alive, body)))
    return tuple(out)


@dataclass(frozen=True)
class RemovalSplit:
    """Pieces of a unary counting term after removing d.  At surviving
    anchors the term equals the sum of `unaries`; at d itself it equals the
    sum of `grounds`."""

    grounds: tuple[tuple[tuple[int, ...], BasicTerm], ...]
    unaries: tuple[tuple[tuple[int, ...], BasicTerm], ...]


def removal_unary_term(term: BasicTerm, r: int) -> RemovalSplit:
    """Split a unary counting term; position 1 is the anchor and positions
    2..width index the counted variables."""
    if term.anchor is None:
        raise InputError("unary transform got a ground term")
    full = (term.anchor,) + term.vars
    grounds = []
    unaries = []
    for pinned in _position_subsets(len(full)):
        removed = frozenset(full[i - 1] for i in pinned)
        alive = tuple(v for v in term.vars if v not in removed)
        body = removal_formula(term.body, removed, r)
        if 1 in pinned:
            grounds.append((pinned, BasicTerm(alive, body)))
        else:
            unaries.append((pinned, BasicTerm(alive, body, term.anchor)))
    return RemovalSplit(tuple(grounds), tuple(unaries))


def _position_subsets(k: int) -> list[tuple[int, ...]]:
    out = []
    for size in range(k + 1):
        out.extend(combinations(range(1, k + 1), size))
    return out
