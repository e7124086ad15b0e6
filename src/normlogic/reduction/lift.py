"""Lifting arithmetic witnesses to falsifying vector assignments.

A witness for q makes the compiled refutation sentence false: assign the
canonical marker tuple, the circle-constant pair and its curve certificates,
number pairs for the witness values and the multiplication-triple values,
and the scalar bindings; every antecedent conjunct then holds while the
negated matrix fails.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from ..errors import ToleranceBreach, WitnessInvalid
from ..geometry.construct import L1Params
from ..logic.ast import And, Eq, Formula, Implies, Le, Lt, Not, Or, VecEq
from ..logic.evaluate import Assignment, Evaluation, strip_universal_prefix
from .arith import ArithFormula, eval_arith, var_count
from .compiler import ReductionOutput, compile_formula


def bind_pair(a: Assignment, name: str, value: float) -> None:
    """Bind the number pair name = value: (-value, 0) and (0, value)."""
    a[f"{name}.1"] = (-value, 0.0)
    a[f"{name}.2"] = (0.0, value)


def canonical_assignment(params: L1Params) -> Assignment:
    """The five markers, the circle-constant pair A = pi and its curve
    certificates U1, U2 (the sine gadget at s = pi, t = 0)."""
    pi = math.pi
    a: Assignment = {
        "e1": (1.0, 0.0),
        "e2": (0.0, 1.0),
        "w1": params.w1.as_tuple(),
        "w2": params.w2.as_tuple(),
        "w3": params.w3.as_tuple(),
    }
    bind_pair(a, "A", pi)
    bind_pair(a, "U1", (1.0 + pi) * (2.0 * pi + pi ** 2))
    bind_pair(a, "U2", pi ** 2)
    return a


def _sine_zero_certificates(a: Assignment, base: Sequence[str],
                            u1_value: float) -> None:
    """Certificate pairs (u1, u2, u3) for the sine gadget at a zero:
    u2-slot = (1+u1)(2*u1+u1^2), u3-slot = u1^2."""
    u1_name, u2_name, u3_name = base
    bind_pair(a, u1_name, u1_value)
    bind_pair(a, u2_name,
              (1.0 + u1_value) * (2.0 * u1_value + u1_value ** 2))
    bind_pair(a, u3_name, u1_value ** 2)


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
    pi = math.pi

    a = canonical_assignment(params)

    triples = out.flatten.triple_values(env)
    for i, (s_val, t_val, z_val) in enumerate(triples, start=1):
        bind_pair(a, f"S{i}", float(s_val))
        bind_pair(a, f"T{i}", float(t_val))
        bind_pair(a, f"Z{i}", float(z_val))
        _sine_zero_certificates(
            a, (f"S{m + i}", f"S{2 * m + i}", f"S{3 * m + i}"),
            (s_val + 1.0) * pi)
        _sine_zero_certificates(
            a, (f"T{m + i}", f"T{2 * m + i}", f"T{3 * m + i}"),
            (t_val + 1.0) * pi)
        a[f"s{i}"] = float(s_val)
        a[f"t{i}"] = float(t_val)
        a[f"z{i}"] = float(z_val)
    for i, x_val in enumerate(witness, start=1):
        bind_pair(a, f"X{i}", float(x_val))
        _sine_zero_certificates(
            a, (f"X{k + i}", f"X{2 * k + i}", f"X{3 * k + i}"),
            (x_val + 1.0) * pi)
        a[f"x{i}"] = float(x_val)

    _, matrix = strip_universal_prefix(out.b)
    ev = Evaluation(space, a)
    antecedent = matrix.antecedent
    for conjunct in (antecedent.args if isinstance(antecedent, And)
                     else (antecedent,)):
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


def _first_failing_atom(ev: Evaluation, f: Formula,
                        tol: float) -> Tuple[Formula, float]:
    """Locate a false atom inside a failing formula, with its residual."""
    if isinstance(f, (Eq, Le, Lt)):
        return f, abs(ev.scalar(f.left) - ev.scalar(f.right))
    if isinstance(f, VecEq):
        l = ev.vec(f.left)
        r = ev.vec(f.right)
        return f, max(abs(x - y) for x, y in zip(l, r))
    if isinstance(f, Not):
        return _first_failing_atom(ev, f.arg, tol)
    if isinstance(f, And):
        for g in f.args:
            if not ev.holds(g, tol):
                return _first_failing_atom(ev, g, tol)
    if isinstance(f, Or):
        # all disjuncts fail; report the first
        return _first_failing_atom(ev, f.args[0], tol) if f.args \
            else (f, math.inf)
    if isinstance(f, Implies):
        if not ev.holds(f.consequent, tol):
            return _first_failing_atom(ev, f.consequent, tol)
        return _first_failing_atom(ev, f.antecedent, tol)
    return f, math.nan
