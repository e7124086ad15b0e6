"""Compilation of arithmetic formulas into universal-implication sentences."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from ..errors import FormulaTooLarge, SortError
from ..geometry.construct import L1Params
from ..logic.ast import (And, Eq, Formula, Implies, Le, Not, Or, SAdd, SConst,
                         SVar)
from ..logic.macros import MacroEnv
from ..logic.prenex import check_aia_shape
from ..logic.sentences import b_variable_blocks, mk_A, mk_A_prime, mk_B, \
    mk_B_prime
from ..logic.sexpr import MAX_DEPTH
from .arith import (AAdd, AAnd, AEq, ALe, ANat, ANot, AOr, AVar,
                    ArithFormula, nesting_depth, operands, var_count)
from .flatten import FlattenResult, flatten_multiplications


@dataclass(frozen=True)
class ReductionOutput:
    a: Formula
    b: Formula
    a_prime: Optional[Formula]
    b_prime: Optional[Formula]
    m: int
    k: int
    dimension: int
    flatten: FlattenResult
    manifest: Dict
    params: L1Params
    shape_ok: bool


def macro_env(params: L1Params) -> MacroEnv:
    return MacroEnv(q=params.q, r=params.r, m=params.m)


#: each additive node but a variable or literal -> the logic node it renders
#: to, built from its rendered operands
_RENDER = {AAdd: SAdd, AEq: Eq, ALe: Le, ANot: Not,
           AAnd: lambda left, right: And((left, right)),
           AOr: lambda left, right: Or((left, right))}


def render_additive(f: ArithFormula) -> Formula:
    """Additive arithmetic rendered over scalar-sorted variables."""
    if isinstance(f, AVar):
        return SVar(f.name)
    if isinstance(f, ANat):
        return SConst(Fraction(f.value))
    make = _RENDER.get(type(f))
    if make is None:
        raise SortError(f"{type(f).__name__} node in an additive formula")
    return make(*map(render_additive, operands(f)))


def compile_formula(q: ArithFormula, dimension: int,
                    params: L1Params) -> ReductionOutput:
    """Emit the sentence pair whose joint validity over spaces like the
    constructed plane mirrors unsatisfiability of q over the naturals."""
    if dimension < 2:
        raise ValueError("dimension must be at least 2")
    flat = flatten_multiplications(q)
    # B holds not q1 three levels down, under its prefix and implication,
    # and its antecedent nests about 20 deep, so this is B's depth once it
    # is too deep; refuse before the recursive steps below meet such a q1
    depth = nesting_depth(flat.q1) + 3
    if depth > MAX_DEPTH:
        raise FormulaTooLarge(f"formula too large: B would nest {depth} "
                              f"nodes deep, and eval reads at most "
                              f"{MAX_DEPTH}")
    k = var_count(q)
    env = macro_env(params)
    q1_logic = render_additive(flat.q1)
    a = mk_A(env)
    b = mk_B(q1_logic, flat.m, k, env)
    a_prime = b_prime = None
    if dimension > 2:
        a_prime = mk_A_prime(env)
        b_prime = mk_B_prime(q1_logic, flat.m, k, env)
    shape_ok = check_aia_shape(Implies(a, b))
    if dimension > 2:
        shape_ok = shape_ok and check_aia_shape(Implies(a_prime, b_prime))
    # in the order manifest.json lists them
    manifest = {
        "m": flat.m,
        "k": k,
        "dimension": dimension,
        "shape_ok": shape_ok,
        "variables": b_variable_blocks(flat.m, k),
        "triples": [list(t) for t in flat.triples],
    }
    return ReductionOutput(a=a, b=b, a_prime=a_prime, b_prime=b_prime,
                           m=flat.m, k=k, dimension=dimension, flatten=flat,
                           manifest=manifest, params=params,
                           shape_ok=shape_ok)
