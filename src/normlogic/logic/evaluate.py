"""Tolerance-aware evaluation of formulas over a normed space.

Quantifier-free formulas evaluate directly against an assignment; closed
purely-universal sentences get bounded refutation: sample assignments for the
prefix, report a counterexample only when the matrix is false under both the
working tolerance and a ten-times-tighter one.

Compiled sentences repeat the same norm many times, so one assignment is
evaluated through one Evaluation, which computes each distinct vector's norm
once.  The tolerance semantics are those of evaluating every atom on its
own: the memo changes how often a norm is computed, never its value.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import NotClosed, SortError, UnboundVariable
from .ast import (And, Eq, Exists, Forall, Formula, Implies, Le, Lt, Not, Or,
                  SAdd, SConst, SNeg, SNorm, SVar, VAdd, VNeg, VScale, VVar,
                  VZero, VecEq, free_vars)

Assignment = Dict[str, object]

#: Values of the pair numerals a curated pair draws from.
_PAIR_VALUES = (0.0, 1.0, 2.0, 3.0, math.pi)


def _as_coords(v, dim: int, name: str):
    if hasattr(v, "x") and hasattr(v, "y"):
        t = (float(v.x), float(v.y))
    elif isinstance(v, (int, float)):
        raise SortError(f"{name!r} holds a scalar but is used as a vector")
    else:
        t = tuple(float(c) for c in v)
    if len(t) != dim:
        raise SortError(f"{name!r} has dimension {len(t)}, space needs {dim}")
    return t


class Evaluation:
    """Values of terms and formulas at one assignment.

    Each vector term's coordinates are computed once: a term is one object
    wherever it occurs (the AST is interned), so its value is kept under
    the node itself.  Each distinct coordinate tuple's norm is computed
    once; a norm is a pure function of the coordinates, so every atom sees
    the float it would see if evaluated alone.  The values are cached, so
    the assignment must not change while the Evaluation is in use; build a
    new one for each assignment.
    """

    def __init__(self, space, a: Assignment):
        self.space = space
        self.a = a
        self._vecs: Dict[object, Tuple[float, ...]] = {}
        self._norms: Dict[Tuple[float, ...], float] = {}

    def vec(self, term) -> Tuple[float, ...]:
        t = self._vecs.get(term)
        if t is not None:
            return t
        if isinstance(term, VVar):
            try:
                v = self.a[term.name]
            except KeyError:
                raise UnboundVariable(term.name) from None
            t = _as_coords(v, self.space.dimension, term.name)
        elif isinstance(term, VZero):
            t = (0.0,) * self.space.dimension
        elif isinstance(term, VAdd):
            l = self.vec(term.left)
            r = self.vec(term.right)
            t = tuple(x + y for x, y in zip(l, r))
        elif isinstance(term, VNeg):
            t = tuple(-x for x in self.vec(term.arg))
        elif isinstance(term, VScale):
            c = float(term.coeff)
            t = tuple(c * x for x in self.vec(term.arg))
        else:
            raise SortError(f"not a vector term: {term!r}")
        self._vecs[term] = t
        return t

    def scalar(self, term) -> float:
        if isinstance(term, SVar):
            try:
                v = self.a[term.name]
            except KeyError:
                raise UnboundVariable(term.name) from None
            if not isinstance(v, (int, float)):
                raise SortError(f"{term.name!r} holds a vector but is used "
                                "as a scalar")
            return float(v)
        if isinstance(term, SConst):
            return float(term.value)
        if isinstance(term, SNorm):
            v = self.vec(term.arg)
            n = self._norms.get(v)
            if n is None:
                n = self.space.norm(v)
                self._norms[v] = n
            return n
        if isinstance(term, SAdd):
            return self.scalar(term.left) + self.scalar(term.right)
        if isinstance(term, SNeg):
            return -self.scalar(term.arg)
        raise SortError(f"not a scalar term: {term!r}")

    def holds(self, f: Formula, tol: float) -> bool:
        """Truth of a quantifier-free formula; see eval_qf."""
        if isinstance(f, Eq):
            return abs(self.scalar(f.left) - self.scalar(f.right)) <= tol
        if isinstance(f, Le):
            return self.scalar(f.left) <= self.scalar(f.right) + tol
        if isinstance(f, Lt):
            return self.scalar(f.left) < self.scalar(f.right) - tol
        if isinstance(f, VecEq):
            l = self.vec(f.left)
            r = self.vec(f.right)
            return max(abs(x - y) for x, y in zip(l, r)) <= tol
        if isinstance(f, Not):
            return not self.holds(f.arg, tol)
        if isinstance(f, And):
            return all(self.holds(g, tol) for g in f.args)
        if isinstance(f, Or):
            return any(self.holds(g, tol) for g in f.args)
        if isinstance(f, Implies):
            return (not self.holds(f.antecedent, tol)) or \
                self.holds(f.consequent, tol)
        if isinstance(f, (Forall, Exists)):
            raise SortError("eval_qf needs a quantifier-free formula")
        raise SortError(f"unknown formula node: {f!r}")


def eval_qf(space, f: Formula, a: Assignment, tol: float) -> bool:
    """Truth of a quantifier-free formula at an assignment.

    Equalities hold within tol, non-strict comparisons get tol slack, strict
    ones need tol separation, and vector equality is max-coordinate distance
    at most tol.  Connectives short-circuit.
    """
    return Evaluation(space, a).holds(f, tol)


# -- bounded refutation ----------------------------------------------------------


@dataclass(frozen=True)
class HoldsOnSamples:
    samples_tried: int


@dataclass(frozen=True)
class Counterexample:
    assignment: Assignment


def strip_universal_prefix(f: Formula) -> Tuple[Tuple[Tuple[str, str], ...],
                                                Formula]:
    """Variables and matrix of a purely universal sentence."""
    prefix: List[Tuple[str, str]] = []
    while isinstance(f, Forall):
        prefix.extend(f.vars)
        f = f.body
    return tuple(prefix), f


class Sampler:
    """Seeded assignment generator mixing box-uniform draws with curated
    special points (axes, markers, pair numerals, zero)."""

    def __init__(self, space, seed: int = 0, box: float = 3.0,
                 special_vectors: Optional[List] = None,
                 curated_probability: float = 0.25):
        self.space = space
        self.rng = random.Random(seed)
        self.box = box
        self.curated_probability = curated_probability
        dim = space.dimension
        specials = [(0.0,) * dim]
        for i in range(dim):
            e = [0.0] * dim
            e[i] = 1.0
            specials.append(tuple(e))
            specials.append(tuple(-c for c in e))
        if special_vectors:
            for v in special_vectors:
                t = (float(v.x), float(v.y)) if hasattr(v, "x") \
                    else tuple(float(c) for c in v)
                specials.append(t + (0.0,) * (dim - len(t)))
                specials.append(tuple(-c for c in t + (0.0,) * (dim - len(t))))
        self.special_points = specials
        self._plan_prefix = None
        self._plan_value = None

    def _plan(self, prefix: Tuple[Tuple[str, str], ...]):
        """What draw needs to know about a prefix, worked out once.

        Returns the pairs (root.1, root.2), sorted by root, of every root
        with both (root.1, vec) and (root.2, vec) in the prefix, and one
        step per distinct name, in prefix order: (name, is_scalar, pair),
        where pair is the name's pair if it is a non-scalar half of one,
        else None.  A repeated name keeps only its first step, which always
        assigns it.  The plan of the last prefix drawn is kept.
        """
        if prefix != self._plan_prefix:
            names = set(prefix)
            roots = sorted({n[:-2] for n, s in prefix
                            if s == "vec" and n.endswith(".1")
                            and (n[:-2] + ".2", "vec") in names})
            pair_of = {root: (root + ".1", root + ".2") for root in roots}
            steps = {}
            for name, sort in prefix:
                if name not in steps:
                    is_scalar = sort == "scalar"
                    pair = None
                    if not is_scalar and name.endswith((".1", ".2")):
                        pair = pair_of.get(name[:-2])
                    steps[name] = (name, is_scalar, pair)
            self._plan_prefix = prefix
            self._plan_value = (list(pair_of.values()), list(steps.values()))
        return self._plan_value

    def draw(self, prefix: Tuple[Tuple[str, str], ...]) -> Assignment:
        # lo + span * rand() is the expression random.uniform(lo, hi)
        # evaluates, so the stream is that of uniform draws
        pairs, steps = self._plan(prefix)
        rng = self.rng
        rand = rng.random
        p = self.curated_probability
        curated_pairs = {pair for pair in pairs if rand() < p}
        lo = -self.box
        span = self.box - lo
        dim = self.space.dimension
        planar = dim == 2
        dims = range(dim)
        tail = (0.0,) * (dim - 2)
        a: Assignment = {}
        for name, is_scalar, pair in steps:
            if name in a:
                continue
            if is_scalar:
                a[name] = lo + span * rand()
            elif pair in curated_pairs:
                value = rng.choice(_PAIR_VALUES)
                one, two = pair
                a[one] = (-value, 0.0) + tail
                a[two] = (0.0, value) + tail
            elif rand() < p:
                a[name] = rng.choice(self.special_points)
            elif planar:  # the common case, without a comprehension
                a[name] = (lo + span * rand(), lo + span * rand())
            else:
                a[name] = tuple([lo + span * rand() for _ in dims])
        return a


def eval_bounded(space, f: Formula, sampler: Sampler, budget: int,
                 tol: float = 1e-6):
    """Search for a falsifying assignment of a closed universal sentence.

    A counterexample is reported only if the matrix evaluates false under
    both tol and tol/10; running out of budget is a HoldsOnSamples result,
    not an error.
    """
    if free_vars(f):
        raise NotClosed("bounded evaluation needs a closed sentence")
    prefix, matrix = strip_universal_prefix(f)
    if not prefix:
        value = eval_qf(space, matrix, {}, tol)
        if value:
            return HoldsOnSamples(samples_tried=0)
        return Counterexample(assignment={})
    tried = 0
    for _ in range(budget):
        a = sampler.draw(prefix)
        tried += 1
        ev = Evaluation(space, a)
        if not ev.holds(matrix, tol) and not ev.holds(matrix, tol / 10.0):
            return Counterexample(assignment=a)
    return HoldsOnSamples(samples_tried=tried)
