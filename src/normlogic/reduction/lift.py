"""Lifting arithmetic witnesses to falsifying vector assignments.

A witness for q makes the compiled refutation sentence false: assign the
canonical marker tuple, the circle-constant pair and its curve certificates,
number pairs for the witness values and the multiplication-triple values,
and the scalar bindings; every antecedent conjunct then holds while the
negated matrix fails.

The first two antecedent conjuncts of B, the five-point conjunct and the
circle-constant conjunct, read only canonical names: the markers, A, U1
and U2.  Every lift over the same params writes the same values under
those names and no other name it writes is one of them, so such a
conjunct is the same formula at the same values in every lift, and its
truth is a pure function of (params, space, tol).  So any antecedent
conjunct whose free variables are all canonical names is decided once per
(params, space), in one Evaluation at canonical_assignment(params) kept by
_canonical, and read from there at each tol.  Only a pass is taken from
it: a conjunct that fails there is evaluated again in the lift's own
Evaluation, which names the failing atom as it always did.
"""

from __future__ import annotations

import functools
import math
from operator import sub
from typing import Sequence, Tuple

from ..errors import ToleranceBreach, WitnessInvalid
from ..geometry.construct import L1Params
from ..logic.ast import (And, Eq, Formula, Implies, Le, Lt, Not, Or, VecEq,
                         free_vars)
from ..logic.evaluate import (Assignment, Evaluation, _conjuncts,
                              strip_universal_prefix)
from ..logic.pairs import pair_coords
from ..logic.sentences import natural_slot
from .arith import ArithFormula, eval_arith, var_count
from .compiler import ReductionOutput, compile_formula


def bind_pair(a: Assignment, name: str, value: float) -> None:
    """Bind the number pair name = value: (-value, 0) and (0, value)."""
    a[f"{name}.1"], a[f"{name}.2"] = pair_coords(value)


def sine_certificates(s: float, t: float, m: int) -> Tuple[float, float]:
    """The certificate values (u1, u2) that mk_pSIN asks of the sine gadget
    at (s, t) on the curve of parameter m: ((1 + s)(2s + s*s + t/m), s*s)."""
    return (1.0 + s) * (2.0 * s + s * s + t / m), s * s


def canonical_assignment(params: L1Params) -> Assignment:
    """The five markers, the circle-constant pair A = pi and its curve
    certificates U1, U2 (the sine gadget at s = pi, t = 0)."""
    a: Assignment = {
        "e1": (1.0, 0.0),
        "e2": (0.0, 1.0),
        "w1": params.w1.as_tuple(),
        "w2": params.w2.as_tuple(),
        "w3": params.w3.as_tuple(),
    }
    u1, u2 = sine_certificates(math.pi, 0.0, params.m)
    bind_pair(a, "A", math.pi)
    bind_pair(a, "U1", u1)
    bind_pair(a, "U2", u2)
    return a


@functools.lru_cache(maxsize=8)
def _canonical(params: L1Params, space) -> Evaluation:
    """The Evaluation at canonical_assignment(params) that decides the
    conjuncts reading only canonical names (see the module docstring).
    Keyed by equality, which for the frozen spaces of geometry.spaces
    means the same norms."""
    return Evaluation(space, canonical_assignment(params))


def _bind_natural(a: Assignment, letter: str, i: int, count: int, value,
                  curve_m: int) -> None:
    """Bind the i-th natural of a block of count (natural_slot) to value:
    its pair, the sine zero (value + 1)pi and its certificates, which
    mk_pN checks it by, and its scalar."""
    pair, (c1, c2, c3), scalar = natural_slot(letter, i, count)
    zero = (value + 1.0) * math.pi
    u1, u2 = sine_certificates(zero, 0.0, curve_m)
    bind_pair(a, pair, float(value))
    bind_pair(a, c1, zero)
    bind_pair(a, c2, u1)
    bind_pair(a, c3, u2)
    a[scalar] = float(value)


def lift_witness(q: ArithFormula, witness: Sequence[int], params: L1Params,
                 space, tol: float = 1e-6,
                 compiled: ReductionOutput = None) -> Assignment:
    """Assignment falsifying the matrix of the compiled refutation sentence.

    The witness must satisfy q exactly; every antecedent conjunct of the
    matrix must evaluate true within tol, else ToleranceBreach names the
    first failing atom.
    """
    witness = tuple(int(v) for v in witness)
    k = var_count(q)
    if len(witness) != k:
        raise WitnessInvalid(f"witness length {len(witness)}, need {k}")
    if any(v < 0 for v in witness):
        raise WitnessInvalid("witness values must be natural numbers")
    env = {f"x{i}": v for i, v in enumerate(witness, start=1)}
    if not eval_arith(q, env):
        raise WitnessInvalid(f"witness {witness} does not satisfy the formula")

    out = compiled if compiled is not None else \
        compile_formula(q, 2, params)
    m = out.m
    canonical = _canonical(params, space)
    a = dict(canonical.a)
    triples = out.flatten.triple_values(env)
    for i, (s_val, t_val, z_val) in enumerate(triples, start=1):
        _bind_natural(a, "S", i, m, s_val, params.m)
        _bind_natural(a, "T", i, m, t_val, params.m)
        bind_pair(a, f"Z{i}", float(z_val))
        a[f"z{i}"] = float(z_val)
    for i, x_val in enumerate(witness, start=1):
        _bind_natural(a, "X", i, k, x_val, params.m)

    _, matrix = strip_universal_prefix(out.b)
    ev = Evaluation(space, a)
    for conjunct in _conjuncts(matrix):
        if free_vars(conjunct).keys() <= canonical.a.keys() and \
                canonical.holds(conjunct, tol):
            continue
        if not ev.holds(conjunct, tol):
            atom, residual = _first_failing_atom(ev, conjunct, tol)
            raise ToleranceBreach(
                f"antecedent atom missed by {residual:.3e}: {atom!r}")
    # with the antecedent true, the matrix is false exactly when its
    # consequent is
    if ev.holds(matrix.consequent, tol):
        raise ToleranceBreach(
            "lifted assignment fails to falsify the matrix")
    return a


#: each comparison's signed distance past its tolerance edge: positive
#: where it fails, negative where it holds
_GAPS = {
    Eq: lambda l, r, tol: abs(l - r) - tol,
    Le: lambda l, r, tol: l - (r + tol),
    Lt: lambda l, r, tol: l - (r - tol),
}


def _first_failing_atom(ev: Evaluation, f: Formula, tol: float,
                        want: bool = True) -> Tuple[Formula, float]:
    """Locate, inside an f whose truth is not want, the first atom that
    decides it, with how far the atom is past its tolerance edge.  An atom
    that holds where it should fail is reported negated, so the formula
    returned is always one that fails."""
    if isinstance(f, Not):
        return _first_failing_atom(ev, f.arg, tol, not want)
    literal = f if want else Not(f)
    gap = _GAPS.get(type(f))
    if gap is not None:
        return literal, abs(gap(ev.scalar(f.left), ev.scalar(f.right), tol))
    if isinstance(f, VecEq):
        d = max(map(abs, map(sub, ev.vec(f.left), ev.vec(f.right))))
        return literal, abs(d - tol)
    if isinstance(f, Implies):
        # a false implication blames its consequent; a true one its false
        # antecedent, else its consequent, in the order Evaluation reads them
        parts = [(f.consequent, True), (f.antecedent, False)] if want else \
            [(f.antecedent, True), (f.consequent, False)]
    elif isinstance(f, (And, Or)):
        parts = [(g, want) for g in f.args]
    else:
        parts = []
    for g, w in parts:
        if ev.holds(g, tol) != w:
            return _first_failing_atom(ev, g, tol, w)
    return literal, math.inf
