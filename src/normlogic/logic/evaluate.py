"""Tolerance-aware evaluation of formulas over a normed space.

Quantifier-free formulas evaluate directly against an assignment; closed
purely-universal sentences get bounded refutation: sample assignments for the
prefix, report a counterexample only when the matrix is false under both the
working tolerance and a ten-times-tighter one.

Compiled sentences are DAGs that reach the same subterms and subformulas
from many places, so one assignment is evaluated through one Evaluation,
which computes each vector term, scalar term and formula node once and
keeps formula truths per tolerance.  A norm is a pure function of the space
and the vector, so norms are kept per space, shared by every Evaluation
over it and bounded (_NORM_MEMO_BOUND): a vector that an earlier
assignment normed is not normed again.  The tolerance semantics are those
of evaluating every atom on its own, as a tree: the memos change how often
a value is computed, never the value, and connectives short-circuit in the
tree's order.  Evaluation is
the reference: eval_qf and lift_witness use it, and the bounded search
checks its own verdicts against it.

The bounded search draws its samples in blocks of _BLOCK rows and
evaluates the matrix over a whole block at once with array operations
(_Block).  ``Sampler.draw_block`` draws a block as columns, one flat list
of floats per variable, from the same stream as one ``draw`` per row; draw
is its one-row case.  A sampler with only ``draw`` has its rows read into
columns by _DrawnRows.  An assignment dict is built only for a row the
reference decides.  Vector terms are computed with the same IEEE
operations as Evaluation's tuples, so their coordinates are bit-identical;
each norm node is one ``space.norm_arr`` call over the rows that reach it,
and norm_arr can differ from norm by a few ulp.  So the block decides only
rows it finds true with every atom they reach clear of its tolerance edge,
by more than _EDGE times one plus the magnitudes of the atom's sides.
Every other row (false in the block, or with an atom near its edge) is
decided by the reference Evaluation, in stream order, at tol and then
tol/10.  A block in which anything raises, or whose columns do not hold
what the matrix reads (a missing variable, the wrong sort or dimension),
is replayed row by row through the reference.  So the result, the counterexample and any
exception are those of evaluating the samples one at a time.  Only the
sampler's state differs: after a Counterexample it has drawn to the end of
that sample's block.

A HoldsOnSamples result also carries ``ante_depth``: for a matrix that is an
implication, ``ante_depth[d]`` counts the samples that passed exactly d
top-level conjuncts of the antecedent before the first false one (the last
entry counts those that passed them all).  A search in which every sample
stopped at conjunct 0 never reached the consequent: it was vacuous.
"""

from __future__ import annotations

import math
import random
import weakref
from dataclasses import dataclass
from itertools import chain
from operator import add, itemgetter, neg, sub
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import NotClosed, SortError, UnboundVariable
from .ast import (And, Eq, Exists, Forall, Formula, Implies, Le, Lt, Not, Or,
                  SAdd, SConst, SNeg, SNorm, SVar, VAdd, VNeg, VScale, VVar,
                  VZero, VecEq, free_vars)
from .pairs import pair_component_names, pair_coords

Assignment = Dict[str, object]

#: Values of the pair numerals a curated pair draws from.
_PAIR_VALUES = (0.0, 1.0, 2.0, 3.0, math.pi)


#: entries a space's norm memo holds; it is cleared when it reaches this
_NORM_MEMO_BOUND = 4096

#: id of a space -> the norms computed in it, by coordinate tuple (see
#: space_memo)
_NORM_MEMOS: Dict[int, Dict[Tuple[float, ...], float]] = {}


def space_memo(memos: Dict[int, object], space, empty=dict):
    """The memo that memos keeps for a space, made with empty() on first
    use.  The space must support weak references: its entry is removed when
    it is collected, so its id cannot be reused while the entry lives, and
    two spaces, however equal, never share a memo."""
    key = id(space)
    memo = memos.get(key)
    if memo is None:
        memo = memos[key] = empty()
        weakref.finalize(space, memos.pop, key, None)
    return memo


def _norm_memo(space) -> Dict[Tuple[float, ...], float]:
    """The norm memo of a space."""
    return space_memo(_NORM_MEMOS, space)


def _as_coords(v, dim: int, name: str):
    if isinstance(v, (int, float)):
        raise SortError(f"{name!r} holds a scalar but is used as a vector")
    t = tuple(map(float, v))
    if len(t) != dim:
        raise SortError(f"{name!r} has dimension {len(t)}, space needs {dim}")
    return t


class Evaluation:
    """Values of terms and formulas at one assignment.

    The AST is interned, so a node is one object wherever it occurs, and a
    compiled sentence is a DAG.  Each vector term, scalar term and formula
    node is computed once per assignment and kept under the node itself;
    formula truths are kept per tolerance, since the same Evaluation may be
    asked at tol and again at tol/10.  Norms come from the space's memo
    (_norm_memo), shared with every other Evaluation over the same space,
    so a coordinate tuple is normed once until the memo is cleared at
    _NORM_MEMO_BOUND entries.  Every value is a pure function of the
    assignment and the space, so an atom sees the floats it would see if
    evaluated alone, and a node that raises keeps nothing and raises again
    when next reached.  Dispatch is
    one table per sort, from a node's class to its rule.  The values are
    cached, so the assignment must not change while the Evaluation is in
    use; build a new one for each assignment.
    """

    def __init__(self, space, a: Assignment):
        self.space = space
        self.a = a
        self._vecs: Dict[object, Tuple[float, ...]] = {}
        self._scalars: Dict[object, float] = {}
        self._norms = _norm_memo(space)
        self._truths: Dict[float, Dict[object, bool]] = {}

    def vec(self, term) -> Tuple[float, ...]:
        t = self._vecs.get(term)
        if t is None:
            rule = _VEC_RULES.get(type(term))
            if rule is None:
                raise SortError(f"not a vector term: {term!r}")
            t = self._vecs[term] = rule(self, term)
        return t

    def scalar(self, term) -> float:
        x = self._scalars.get(term)
        if x is None:
            rule = _SCALAR_RULES.get(type(term))
            if rule is None:
                raise SortError(f"not a scalar term: {term!r}")
            x = self._scalars[term] = rule(self, term)
        return x

    def holds(self, f: Formula, tol: float) -> bool:
        """Truth of a quantifier-free formula; see eval_qf."""
        truths = self._truths.get(tol)
        if truths is None:
            truths = self._truths[tol] = {}
        b = truths.get(f)
        if b is None:
            rule = _FORMULA_RULES.get(type(f))
            if rule is None:
                raise SortError(f"unknown formula node: {f!r}")
            b = truths[f] = rule(self, f, tol)
        return b


def _lookup(ev: Evaluation, name: str):
    try:
        return ev.a[name]
    except KeyError:
        raise UnboundVariable(name) from None


def _svar(ev: Evaluation, term: SVar) -> float:
    v = _lookup(ev, term.name)
    if not isinstance(v, (int, float)):
        raise SortError(f"{term.name!r} holds a vector but is used "
                        "as a scalar")
    return float(v)


def _snorm(ev: Evaluation, term: SNorm) -> float:
    v = ev.vec(term.arg)
    norms = ev._norms
    n = norms.get(v)
    if n is None:
        n = ev.space.norm(v)
        if len(norms) >= _NORM_MEMO_BOUND:
            norms.clear()
        norms[v] = n
    return n


def _and(ev: Evaluation, f: And, tol: float) -> bool:
    for g in f.args:
        if not ev.holds(g, tol):
            return False
    return True


def _or(ev: Evaluation, f: Or, tol: float) -> bool:
    for g in f.args:
        if ev.holds(g, tol):
            return True
    return False


def _quantified(ev: Evaluation, f, tol: float) -> bool:
    raise SortError("eval_qf needs a quantifier-free formula")


# The rules of each sort.  Tuple arithmetic maps the float operations over
# the coordinates in order, so every value is the one a loop over them gives.
_VEC_RULES = {
    VVar: lambda ev, t: _as_coords(_lookup(ev, t.name), ev.space.dimension,
                                   t.name),
    VZero: lambda ev, t: (0.0,) * ev.space.dimension,
    VAdd: lambda ev, t: tuple(map(add, ev.vec(t.left), ev.vec(t.right))),
    VNeg: lambda ev, t: tuple(map(neg, ev.vec(t.arg))),
    VScale: lambda ev, t: tuple(map(float(t.coeff).__mul__, ev.vec(t.arg))),
}
_SCALAR_RULES = {
    SVar: _svar,
    SConst: lambda ev, t: float(t.value),
    SNorm: _snorm,
    SAdd: lambda ev, t: ev.scalar(t.left) + ev.scalar(t.right),
    SNeg: lambda ev, t: -ev.scalar(t.arg),
}
_FORMULA_RULES = {
    Eq: lambda ev, f, tol: abs(ev.scalar(f.left) - ev.scalar(f.right)) <= tol,
    Le: lambda ev, f, tol: ev.scalar(f.left) <= ev.scalar(f.right) + tol,
    Lt: lambda ev, f, tol: ev.scalar(f.left) < ev.scalar(f.right) - tol,
    VecEq: lambda ev, f, tol: max(map(abs, map(sub, ev.vec(f.left),
                                               ev.vec(f.right)))) <= tol,
    Not: lambda ev, f, tol: not ev.holds(f.arg, tol),
    And: _and,
    Or: _or,
    Implies: lambda ev, f, tol: (not ev.holds(f.antecedent, tol)
                                 or ev.holds(f.consequent, tol)),
    Forall: _quantified,
    Exists: _quantified,
}


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
    #: samples by antecedent conjuncts passed; empty unless the matrix is an
    #: implication (see the module docstring)
    ante_depth: Tuple[int, ...] = ()


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
        # zero, then each axis and each given vector (padded to dim) and
        # its negation
        points = [tuple(float(i == j) for j in range(dim)) for i in range(dim)]
        for v in special_vectors or ():
            t = tuple(map(float, v))
            points.append(t + (0.0,) * (dim - len(t)))
        self.special_points = [(0.0,) * dim] + [
            u for t in points for u in (t, tuple(-c for c in t))]
        self._plan_prefix = None
        self._plan_value = None

    def _plan(self, prefix: Tuple[Tuple[str, str], ...]) -> "_Plan":
        """What a draw needs to know about a prefix, worked out once; the
        plan of the last prefix drawn is kept."""
        if prefix != self._plan_prefix:
            self._plan_prefix = prefix
            self._plan_value = _Plan(prefix)
        return self._plan_value

    def draw(self, prefix: Tuple[Tuple[str, str], ...]) -> Assignment:
        """One sample: the only row of a block of one."""
        return self.draw_block(prefix, 1).row(0)

    def draw_block(self, prefix: Tuple[Tuple[str, str], ...],
                   n: int) -> "SampleBlock":
        """n samples as columns.  The random calls, their order and the
        rows are those of drawing the samples one at a time."""
        # lo + span * rand() is the expression random.uniform(lo, hi)
        # evaluates, and the getrandbits loops are random.choice's
        # rejection sampling, so the stream is that of uniform and choice
        plan = self._plan(prefix)
        rng = self.rng
        rand = rng.random
        bits = rng.getrandbits
        dim = self.space.dimension
        numerals = [pair_coords(v, dim) for v in _PAIR_VALUES]
        n_values = len(numerals)
        k_values = n_values.bit_length()
        specials = self.special_points
        n_specials = len(specials)
        k_specials = n_specials.bit_length()
        p = self.curated_probability
        lo = -self.box
        span = self.box - lo
        planar = dim == 2
        dims = range(dim)
        steps = plan.steps
        columns = [[] for _ in steps]
        pairs = range(len(plan.pairs))
        curated = []
        mark = curated.extend
        for _ in range(n):
            cur = [rand() < p for _ in pairs]
            mark(cur)
            cur.append(False)  # the flag of the names in no pair
            for col, (_, vec, k, halves) in zip(columns, steps):
                if cur[k]:
                    if halves is not None:
                        i = bits(k_values)
                        while i >= n_values:
                            i = bits(k_values)
                        one, two = numerals[i]
                        columns[halves[0]].extend(one)
                        columns[halves[1]].extend(two)
                elif not vec:
                    col.append(lo + span * rand())
                elif rand() < p:
                    i = bits(k_specials)
                    while i >= n_specials:
                        i = bits(k_specials)
                    col.extend(specials[i])
                elif planar:  # the common case, without a comprehension
                    col.append(lo + span * rand())
                    col.append(lo + span * rand())
                else:
                    col.extend([lo + span * rand() for _ in dims])
        return SampleBlock(plan, n, dim, columns, curated)


class _Plan:
    """The draw of a prefix, worked out once.

    A name bound more than once is drawn once, at its last binding: the
    innermost one, which the matrix reads.  ``pairs`` are the (root.1,
    root.2) of every root with both halves bound as vectors, sorted by
    root: each row first decides, pair by pair in this order, whether it
    draws that pair from the pair numerals.  A curated pair is assigned,
    .1 then .2, at the first of its halves, its writer.  ``steps`` holds
    one step per name, in prefix order, and ``index`` each name's position
    in it.  A step is (name, vec, k, halves): whether it draws a vector;
    the index in a row's pair flags of the flag that stops its own draw,
    that of its pair, or len(pairs), always False, for a name in no pair;
    and for a writer the steps of both halves, whose columns it fills,
    else None.
    """

    def __init__(self, prefix):
        last = {name: i for i, (name, _) in enumerate(prefix)}
        prefix = [b for i, b in enumerate(prefix) if last[b[0]] == i]
        vecs = {name for name, sort in prefix if sort == "vec"}
        roots = sorted({n[:-2] for n in vecs
                        if n.endswith(".1") and n[:-2] + ".2" in vecs})
        self.pairs = [pair_component_names(root) for root in roots]
        pair_of = {h: k for k, pair in enumerate(self.pairs) for h in pair}
        self.index = {name: i for i, (name, _) in enumerate(prefix)}
        writes = {min(pair, key=self.index.get):
                  tuple(map(self.index.get, pair)) for pair in self.pairs}
        self.steps = [(name, sort != "scalar",
                       pair_of.get(name, len(self.pairs)), writes.get(name))
                      for name, sort in prefix]


class SampleBlock:
    """Samples of one prefix drawn by Sampler.draw_block, as columns.

    ``columns`` holds one flat list of floats per step of the plan, row
    after row: a scalar's value, or a vector's coordinates.  ``curated``
    holds, row after row, one flag per pair of the plan: whether the row
    drew that pair from the pair numerals.
    """

    def __init__(self, plan: _Plan, n: int, dim: int,
                 columns: List[List[float]], curated: List[bool]):
        self.plan = plan
        self.n = n
        self.dim = dim
        self.columns = columns
        self.curated = curated

    def column(self, name: str, width: Optional[int]):
        """A variable at every row as an array, of n scalars (width None)
        or (n, width) coordinates; None unless every row holds that."""
        s = self.plan.index.get(name)
        if s is None or self.plan.steps[s][1] == (width is None) or \
                width not in (None, self.dim):
            return None
        col = np.array(self.columns[s], dtype=float)
        return col if width is None else col.reshape(self.n, width)

    def row(self, j: int) -> Assignment:
        """Row j as the assignment draw returns, key order included."""
        plan, dim = self.plan, self.dim
        n_pairs = len(plan.pairs)
        cur = self.curated[j * n_pairs:(j + 1) * n_pairs]
        lo, hi = j * dim, (j + 1) * dim
        a: Assignment = {}
        for (name, vec, k, halves), col in zip(plan.steps, self.columns):
            if name in a:
                continue
            if halves is not None and cur[k]:
                one, two = plan.pairs[k]
                value = -col[lo] if name == one else col[lo + 1]
                a[one], a[two] = pair_coords(value, dim)
            elif not vec:
                a[name] = col[j]
            else:
                a[name] = tuple(col[lo:hi])
        return a


# -- block evaluation -------------------------------------------------------------

#: samples eval_bounded draws and evaluates together
_BLOCK = 256
#: how close to its tolerance edge, relative to one plus the magnitudes of
#: its sides, an atom must keep for the block's verdict to stand
_EDGE = 1e-12


class _Replay(Exception):
    """The block met values that the array path does not reproduce."""


class _Block:
    """Values of terms and formulas at a block of assignments, as arrays.

    Vector terms are (rows, dim) arrays over every row, kept under their
    node.  Scalar terms and formulas are evaluated at the rows that reach
    them: ``idx`` holds those row numbers, and connectives narrow it as they
    short-circuit.  A norm node's values are kept per row, so each row's
    norm is computed once.  Scalar terms come with
    the sum of the magnitudes of the terms they add, so that the edge test
    of an atom also covers cancellation between its norms.  Rows whose
    truth a norm's last few ulp could change are marked in ``edge``.
    Variables must hold plain tuples of floats (vectors) or floats
    (scalars), and norms finite vectors; anything else, an unknown node
    included, raises _Replay, and the reference raises the error itself.
    """

    def __init__(self, space, drawn, tol: float):
        self.space = space
        self.drawn = drawn
        self.n = drawn.n
        self.tol = tol
        self.edge = np.zeros(self.n, dtype=bool)
        self._values: Dict[object, np.ndarray] = {}
        self._norms: Dict[object, Tuple[np.ndarray, np.ndarray]] = {}

    def _column(self, name: str, width: Optional[int]) -> np.ndarray:
        arr = self.drawn.column(name, width)
        if arr is None:
            raise _Replay
        return arr

    def vec(self, term) -> np.ndarray:
        arr = self._values.get(term)
        if arr is not None:
            return arr
        dim = self.space.dimension
        if isinstance(term, VVar):
            arr = self._column(term.name, dim)
        elif isinstance(term, VZero):
            arr = np.zeros((self.n, dim))
        elif isinstance(term, VAdd):
            arr = self.vec(term.left) + self.vec(term.right)
        elif isinstance(term, VNeg):
            arr = -self.vec(term.arg)
        elif isinstance(term, VScale):
            arr = float(term.coeff) * self.vec(term.arg)
        else:
            raise _Replay
        self._values[term] = arr
        return arr

    def norm(self, term, idx: np.ndarray) -> np.ndarray:
        kept = self._norms.get(term)
        if kept is None:
            kept = self._norms[term] = (np.empty(self.n),
                                        np.zeros(self.n, dtype=bool))
        values, done = kept
        todo = idx[~done[idx]]
        if len(todo):
            vs = self.vec(term.arg)[todo]
            if not np.isfinite(vs).all():
                raise _Replay
            values[todo] = self.space.norm_arr(vs)
            done[todo] = True
        return values[idx]

    def scalar(self, term, idx: np.ndarray):
        """Values at the rows idx, and the sums of the magnitudes of the
        terms that add up to them."""
        if isinstance(term, SNorm):
            v = self.norm(term, idx)
            return v, v
        if isinstance(term, SVar):
            arr = self._values.get(term)
            if arr is None:
                arr = self._values[term] = self._column(term.name, None)
            v = arr[idx]
            return v, np.abs(v)
        if isinstance(term, SConst):
            v = np.full(len(idx), float(term.value))
            return v, np.abs(v)
        if isinstance(term, SAdd):
            l, lmag = self.scalar(term.left, idx)
            r, rmag = self.scalar(term.right, idx)
            return l + r, lmag + rmag
        if isinstance(term, SNeg):
            v, mag = self.scalar(term.arg, idx)
            return -v, mag
        raise _Replay

    def holds(self, f: Formula, idx: np.ndarray) -> np.ndarray:
        """Truth at the rows idx, as Evaluation.holds computes it."""
        tol = self.tol
        if isinstance(f, (Eq, Le, Lt)):
            l, lmag = self.scalar(f.left, idx)
            r, rmag = self.scalar(f.right, idx)
            if isinstance(f, Eq):
                d = np.abs(l - r)
                out = d <= tol
                gap = d - tol
            elif isinstance(f, Le):
                out = l <= r + tol
                gap = l - (r + tol)
            else:
                out = l < r - tol
                gap = l - (r - tol)
            # NaN and infinite sides land here too
            self._mark(idx, ~(np.abs(gap) > _EDGE * (1.0 + lmag + rmag)))
            return out
        if isinstance(f, VecEq):
            d = np.abs(self.vec(f.left)[idx] - self.vec(f.right)[idx])
            d = d.max(axis=1)
            # max() over a tuple can step past a NaN; numpy's cannot
            self._mark(idx, np.isnan(d))
            return d <= tol
        if isinstance(f, Not):
            return ~self.holds(f.arg, idx)
        if isinstance(f, (And, Or)):
            stop = isinstance(f, Or)  # the value that decides the connective
            out = np.full(len(idx), not stop)
            live = np.arange(len(idx))
            for g in f.args:
                if not len(live):
                    break
                done = self.holds(g, idx[live]) == stop
                out[live[done]] = stop
                live = live[~done]
            return out
        if isinstance(f, Implies):
            out = ~self.holds(f.antecedent, idx)
            live = np.flatnonzero(~out)
            if len(live):
                out[live] = self.holds(f.consequent, idx[live])
            return out
        raise _Replay

    def _mark(self, idx: np.ndarray, near: np.ndarray) -> None:
        if near.any():
            self.edge[idx[near]] = True

    def matrix(self, f: Formula, conjuncts):
        """Truth of f at every row, and for an implication whose antecedent
        has the given top-level conjuncts, how many of them each row passed
        before the first false one (else None)."""
        rows = np.arange(self.n)
        if conjuncts is None:
            return self.holds(f, rows), None
        depth = np.full(self.n, len(conjuncts))
        live = rows
        for i, g in enumerate(conjuncts):
            if not len(live):
                break
            ok = self.holds(g, live)
            depth[live[~ok]] = i
            live = live[ok]
        out = np.ones(self.n, dtype=bool)
        if len(live):
            out[live] = self.holds(f.consequent, live)
        return out, depth


def _conjuncts(f: Formula):
    """Top-level conjuncts of an implication's antecedent, or None."""
    if not isinstance(f, Implies):
        return None
    ante = f.antecedent
    return ante.args if isinstance(ante, And) else (ante,)


def _depth(ev: Evaluation, conjuncts, tol: float) -> int:
    for i, g in enumerate(conjuncts):
        if not ev.holds(g, tol):
            return i
    return len(conjuncts)


class _DrawnRows:
    """Assignments a sampler without draw_block handed out, read as columns
    with SampleBlock's interface; row j is the drawn dict itself."""

    def __init__(self, rows: List[Assignment]):
        self.rows = rows
        self.n = len(rows)

    def column(self, name: str, width: Optional[int]):
        """As SampleBlock.column: every row must hold a float (width None)
        or a tuple of width floats, converted by float() as Evaluation
        converts them."""
        try:
            col = list(map(itemgetter(name), self.rows))
        except KeyError:
            return None
        if set(map(type, col)) != {float if width is None else tuple}:
            return None
        if width is None:
            return np.fromiter(col, float, self.n)
        if set(map(len, col)) != {width}:
            return None
        return np.fromiter(chain.from_iterable(col), float,
                           self.n * width).reshape(self.n, width)

    def row(self, j: int) -> Assignment:
        return self.rows[j]


def _draw(sampler, prefix, n: int):
    """n samples as columns, and the exception that cut the drawing short
    (or None).  A sampler without draw_block draws row by row, and the rows
    drawn before a draw raises still count."""
    if hasattr(sampler, "draw_block"):
        return sampler.draw_block(prefix, n), None
    rows = []
    try:
        for _ in range(n):
            rows.append(sampler.draw(prefix))
    except Exception as exc:
        return _DrawnRows(rows), exc
    return _DrawnRows(rows), None


def _verdicts(space, f: Formula, drawn, tol: float, conjuncts=None):
    """For each row of a block of samples (a SampleBlock or _DrawnRows), in
    order: f's truth at tol, equal to eval_qf's; the row's antecedent depth
    (None without conjuncts); and the reference Evaluation when it decided
    the row, else None.

    Rows are decided lazily, in order, so a caller that stops at a row
    never evaluates the later ones through the reference, nor builds their
    assignments.
    """
    sure, depths = [False] * drawn.n, None
    try:
        with np.errstate(all="ignore"):
            block = _Block(space, drawn, tol)
            truth, depth = block.matrix(f, conjuncts)
    except Exception:
        # whatever the array path raised, the reference raises at its own
        # row, or decides every row without raising
        pass
    else:
        sure = (truth & ~block.edge).tolist()
        if depth is not None:
            depths = depth.tolist()
    for j in range(drawn.n):
        if sure[j]:
            yield True, None if depths is None else depths[j], None
            continue
        ev = Evaluation(space, drawn.row(j))
        ok = ev.holds(f, tol)
        yield ok, None if conjuncts is None else _depth(ev, conjuncts, tol), ev


def eval_bounded(space, f: Formula, sampler: Sampler, budget: int,
                 tol: float = 1e-6):
    """Search for a falsifying assignment of a closed universal sentence.

    A counterexample is reported only if the matrix evaluates false under
    both tol and tol/10; running out of budget is a HoldsOnSamples result,
    not an error.  Samples are drawn and evaluated in blocks (see the module
    docstring), with the results of evaluating them one at a time.
    """
    if free_vars(f):
        raise NotClosed("bounded evaluation needs a closed sentence")
    prefix, matrix = strip_universal_prefix(f)
    if not prefix:
        value = eval_qf(space, matrix, {}, tol)
        if value:
            return HoldsOnSamples(samples_tried=0)
        return Counterexample(assignment={})
    conjuncts = _conjuncts(matrix)
    depths = [] if conjuncts is None else [0] * (len(conjuncts) + 1)
    tried = 0
    while tried < budget:
        drawn, failed = _draw(sampler, prefix, min(_BLOCK, budget - tried))
        for ok, depth, ev in _verdicts(space, matrix, drawn, tol, conjuncts):
            if not ok and not ev.holds(matrix, tol / 10.0):
                return Counterexample(assignment=ev.a)
            if depth is not None:
                depths[depth] += 1
        tried += drawn.n
        if failed is not None:
            raise failed
    return HoldsOnSamples(samples_tried=tried, ante_depth=tuple(depths))
