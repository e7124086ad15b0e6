"""The closed universal sentences of the reduction.

The first sentence pins down spaces that look like the constructed plane
(five-point configuration, a half-period below four, axis behaviour,
periodicity).  The second adds, for a given additive matrix over scalar
variables, enough natural-number and multiplication bindings that its
negation follows; together they form the universal implication emitted by
the compiler.  For dimensions above two both gain a decomposition clause
tying the axis vectors into the distinguished plane.

``mk_A`` and ``mk_B`` are interned like the gadgets they apply (see
``macros.interned``): while a sentence lives, building it again for the
same plane and matrix returns it, and A, which depends on the plane alone,
is built once for all the formulas compiled over that plane.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import SortError
from .ast import (And, Eq, Formula, Forall, Implies, Not, SNorm, SVar, VVar,
                  VecEq, conj, free_vars, is_quantifier_free, vadd)
from .macros import (MacroEnv, interned, mk_Def, mk_Periodic, mk_pMult, mk_pN,
                     mk_pPar, mk_pPi, mk_pW)
from .pairs import pair_component_names, pair_var

#: The five-point marker tuple, the first variables of every prefix.
MARKERS = ("e1", "e2", "w1", "w2", "w3")


def _pair_block(names) -> List[Tuple[str, str]]:
    return [(h, "vec") for n in names for h in pair_component_names(n)]


@interned
def mk_A(env: MacroEnv) -> Formula:
    """The space-characterizing sentence; closed and purely universal."""
    pair_names = ["A", "U1", "U2"]
    tail_pairs = ["S", "T", "V1", "V2", "V3", "V4", "V5"]
    prefix: List[Tuple[str, str]] = [(n, "vec") for n in MARKERS]
    prefix += _pair_block(pair_names)
    prefix += [("x", "vec"), ("y", "vec"), ("z", "vec")]
    prefix += _pair_block(tail_pairs)

    a, u1, u2 = (pair_var(n) for n in pair_names)
    s, t, v1, v2, v3, v4, v5 = (pair_var(n) for n in tail_pairs)
    ante = And((
        mk_pW(VVar("e1"), VVar("e2"), VVar("w1"), VVar("w2"), VVar("w3"),
              env),
        mk_pPi(a, u1, u2, env),
    ))
    cons = And((
        mk_Def(VVar("e1"), VVar("e2"), VVar("x"), VVar("y"), VVar("z")),
        mk_Periodic(a, s, t, v1, v2, v3, v4, v5, env),
    ))
    return Forall(tuple(prefix), Implies(ante, cons))


def b_variable_blocks(m: int, k: int) -> Dict[str, List[str]]:
    """Quantified variable names of the arithmetic sentence, by block."""
    return {
        "plain": list(MARKERS),
        "head_pairs": ["A", "U1", "U2"],
        "s_pairs": [f"S{i}" for i in range(1, 4 * m + 1)],
        "t_pairs": [f"T{i}" for i in range(1, 4 * m + 1)],
        "z_pairs": [f"Z{i}" for i in range(1, m + 1)],
        "scalars": [f"s{i}" for i in range(1, m + 1)]
        + [f"t{i}" for i in range(1, m + 1)]
        + [f"z{i}" for i in range(1, m + 1)],
        "x_pairs": [f"X{i}" for i in range(1, 4 * k + 1)],
        "x_scalars": [f"x{i}" for i in range(1, k + 1)],
    }


def natural_slot(letter: str, i: int,
                 count: int) -> Tuple[str, Tuple[str, ...], str]:
    """Names of the i-th natural of the block of count pairs named by
    letter ("S", "T" or "X"): its pair, the three pairs that mk_pN
    certifies it with, and its scalar."""
    return (f"{letter}{i}",
            (f"{letter}{count + i}", f"{letter}{2 * count + i}",
             f"{letter}{3 * count + i}"),
            f"{letter.lower()}{i}")


@interned
def mk_B(q1: Formula, m: int, k: int, env: MacroEnv) -> Formula:
    """The refutation sentence for an additive quantifier-free matrix q1
    over scalar variables s_i, t_i, z_i (multiplication triples) and x_i."""
    _require_additive_scalar_matrix(q1, m, k)
    blocks = b_variable_blocks(m, k)
    prefix: List[Tuple[str, str]] = [(n, "vec") for n in blocks["plain"]]
    prefix += _pair_block(blocks["head_pairs"])
    prefix += _pair_block(blocks["s_pairs"])
    prefix += _pair_block(blocks["t_pairs"])
    prefix += _pair_block(blocks["z_pairs"])
    prefix += [(n, "scalar") for n in blocks["scalars"]]
    prefix += _pair_block(blocks["x_pairs"])
    prefix += [(n, "scalar") for n in blocks["x_scalars"]]

    a, u1, u2 = (pair_var(n) for n in ["A", "U1", "U2"])

    def natural(letter: str, i: int, count: int):
        """The natural's pair, its mk_pN, and its scalar's equation."""
        pair, certificates, scalar = natural_slot(letter, i, count)
        p = pair_var(pair)
        return (p, mk_pN(p, *map(pair_var, certificates), a, env),
                Eq(SVar(scalar), SNorm(p.second)))

    ante: List[Formula] = [
        mk_pW(VVar("e1"), VVar("e2"), VVar("w1"), VVar("w2"), VVar("w3"),
              env),
        mk_pPi(a, u1, u2, env),
    ]
    for i in range(1, m + 1):
        s, s_n, s_eq = natural("S", i, m)
        t, t_n, t_eq = natural("T", i, m)
        z = pair_var(f"Z{i}")
        ante.append(And((s_n, t_n, mk_pMult(s, t, z), s_eq, t_eq,
                         Eq(SVar(f"z{i}"), SNorm(z.second)))))
    for i in range(1, k + 1):
        ante.append(And(natural("X", i, k)[1:]))
    return Forall(tuple(prefix), Implies(conj(ante), Not(q1)))


def mk_star() -> Formula:
    """Decomposition of the axis vectors over the marker directions."""
    e1, e2 = VVar("e1"), VVar("e2")
    w1, w2 = VVar("w1"), VVar("w2")
    a1, a2, b1, b2 = VVar("a1"), VVar("a2"), VVar("b1"), VVar("b2")
    return And((
        VecEq(e1, vadd(a1, b1)), mk_pPar(a1, w1), mk_pPar(b1, w2),
        VecEq(e2, vadd(a2, b2)), mk_pPar(a2, w1), mk_pPar(b2, w2),
    ))


_STAR_VARS = (("a1", "vec"), ("a2", "vec"), ("b1", "vec"), ("b2", "vec"))


def _conjoin_star(sentence: Formula) -> Formula:
    """Conjoin the decomposition clause to the five-point conjunct and
    universally quantify its four witnesses."""
    if not isinstance(sentence, Forall) or \
            not isinstance(sentence.body, Implies):
        raise SortError("expected a universal implication sentence")
    body = sentence.body
    ante = body.antecedent
    if not isinstance(ante, And) or len(ante.args) < 2:
        raise SortError("expected the five-point conjunct up front")
    new_ante = And((ante.args[0], mk_star()) + ante.args[1:])
    return Forall(sentence.vars + _STAR_VARS,
                  Implies(new_ante, body.consequent))


def mk_A_prime(env: MacroEnv) -> Formula:
    return _conjoin_star(mk_A(env))


def mk_B_prime(q1: Formula, m: int, k: int, env: MacroEnv) -> Formula:
    return _conjoin_star(mk_B(q1, m, k, env))


def _require_additive_scalar_matrix(q1: Formula, m: int, k: int) -> None:
    if not is_quantifier_free(q1):
        raise SortError("matrix must be quantifier-free")
    blocks = b_variable_blocks(m, k)
    allowed = set(blocks["scalars"] + blocks["x_scalars"])
    for name, sort in free_vars(q1).items():
        if sort != "scalar":
            raise SortError(f"matrix variable {name!r} is not scalar-sorted")
        if name not in allowed:
            raise SortError(f"matrix variable {name!r} outside the declared "
                            f"blocks for m={m}, k={k}")
