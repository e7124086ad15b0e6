"""Pairs of vector terms: the abbreviation layer for representing reals.

A real s is represented by the pair (-s*e1, s*e2).  Pairs are a purely
syntactic convenience: arithmetic on them is componentwise and every formula
built from them expands to plain vector-term syntax with no residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ast import VectorTerm, VVar, vadd, vneg, vscale

E1_VAR = VVar("e1")
E2_VAR = VVar("e2")


@dataclass(frozen=True)
class PairExpr:
    first: VectorTerm
    second: VectorTerm


def pair_var(name: str) -> PairExpr:
    """A pair variable S, realized as the component variables S.1 and S.2."""
    return PairExpr(VVar(f"{name}.1"), VVar(f"{name}.2"))


def pair_component_names(name: str):
    return (f"{name}.1", f"{name}.2")


def pair_coords(value: float, dim: int = 2):
    """The coordinates of the pair standing for value: (-value, 0, ...)
    and (0, value, ...), in a space of dimension dim."""
    tail = (0.0,) * (dim - 2)
    return (-value, 0.0) + tail, (0.0, value) + tail


def padd(a: PairExpr, b: PairExpr) -> PairExpr:
    return PairExpr(vadd(a.first, b.first), vadd(a.second, b.second))


def pneg(a: PairExpr) -> PairExpr:
    return PairExpr(vneg(a.first), vneg(a.second))


def psub(a: PairExpr, b: PairExpr) -> PairExpr:
    return padd(a, pneg(b))


def pscale(coeff, a: PairExpr) -> PairExpr:
    coeff = Fraction(coeff)
    return PairExpr(vscale(coeff, a.first), vscale(coeff, a.second))


def numeral(i: int) -> PairExpr:
    """The pair (-i*e1, i*e2) standing for the natural number i."""
    if i < 0:
        raise ValueError(f"numerals are non-negative; got {i}")
    return PairExpr(vscale(-i, E1_VAR), vscale(i, E2_VAR))
