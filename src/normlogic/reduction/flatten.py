"""Removal of multiplications from arithmetic formulas.

Every product node is replaced, bottom-up and left to right, by a fresh
variable z_i, with fresh s_i and t_i naming its operands through additive
side equations.  The result q1 is additive, and the original formula is
equivalent to exists s t z (z_i = s_i t_i for all i, and q1): the side
equations pin the fresh variables to values determined by the original ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .arith import (AAnd, AEq, AMul, AVar, ArithFormula, ArithTerm,
                    eval_arith, operands)


@dataclass(frozen=True)
class FlattenResult:
    q1: ArithFormula
    triples: Tuple[Tuple[str, str, str], ...]  # (s_i, t_i, z_i) names
    m: int
    operand_terms: Tuple[Tuple[ArithTerm, ArithTerm], ...]  # rewritten operands

    def triple_values(self, witness: Dict[str, int]) -> List[Tuple[int, int, int]]:
        """Values of (s_i, t_i, z_i) determined by a witness, in order."""
        env = dict(witness)
        out = []
        for (s_name, t_name, z_name), (s_term, t_term) in \
                zip(self.triples, self.operand_terms):
            s_val = eval_arith(s_term, env)
            t_val = eval_arith(t_term, env)
            z_val = s_val * t_val
            env[s_name] = s_val
            env[t_name] = t_val
            env[z_name] = z_val
            out.append((s_val, t_val, z_val))
        return out


def flatten_multiplications(f: ArithFormula) -> FlattenResult:
    side_eqs: List[ArithFormula] = []
    products: List[Tuple[ArithTerm, ArithTerm]] = []
    triples: List[Tuple[str, str, str]] = []

    def rewrite(node):
        kids = [rewrite(k) for k in operands(node)]
        if not isinstance(node, AMul):
            return type(node)(*kids) if kids else node
        i = len(triples) + 1
        s_name, t_name, z_name = f"s{i}", f"t{i}", f"z{i}"
        side_eqs.append(AEq(AVar(s_name), kids[0]))
        side_eqs.append(AEq(AVar(t_name), kids[1]))
        triples.append((s_name, t_name, z_name))
        products.append(tuple(kids))
        return AVar(z_name)

    q1 = rewrite(f)
    for eq in reversed(side_eqs):
        q1 = AAnd(eq, q1)
    return FlattenResult(q1=q1, triples=tuple(triples),
                         m=len(triples), operand_terms=tuple(products))


def has_mul(node) -> bool:
    return isinstance(node, AMul) or any(map(has_mul, operands(node)))
