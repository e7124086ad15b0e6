"""Formula templates of the additive language, fully expanded at build time.

Each constructor returns a plain core formula: the pair layer and comparison
abbreviations leave no residue.  Constructors that mention the constructed
plane's rational constants (the segment lengths and the marker distance) or
the curve's integer stiffness M take a MacroEnv.

Gadget applications are interned like nodes.  Each constructor here is
wrapped by ``interned``, which looks its arguments up in one module table
and returns the expansion already built for them, so applying a gadget again
to the same arguments expands nothing.  The key follows the node table's
rule: nodes by identity, other values by value and type, and a pair or an
environment field by field, so ``MacroEnv(q=0.5, ...)`` and
``MacroEnv(q=Fraction(1, 2), ...)`` stay distinct.  The table holds its
expansions weakly, so an entry lives only while its expansion does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, wraps
from typing import Dict
from weakref import KeyedRef

from .ast import (And, Eq, Forall, Formula, Implies, Lt, Not, Or, SAdd,
                  SConst, VVar, VZero, VecEq, VectorTerm, _Node,
                  _forget as _forget_node, free_vars, snorm, vadd, vneg,
                  vscale, vsub)
from .pairs import (E1_VAR, E2_VAR, PairExpr, numeral, padd, pneg, pscale,
                    psub)


@dataclass(frozen=True)
class MacroEnv:
    """Rational constants of the constructed plane used inside formulas."""
    q: Fraction
    r: Fraction
    m: int


#: (constructor, its arguments' keys...) -> weak reference to the expansion
_EXPANSIONS: Dict[tuple, KeyedRef] = {}

#: drops a dead expansion's entry, as ``ast._forget`` drops a dead node's
_forget = partial(_forget_node, table=_EXPANSIONS)


def _key(value):
    """An environment as its type and its constants, each with its type;
    any other value with its type, as the node table keys leaf values."""
    if type(value) is MacroEnv:
        return (MacroEnv, *map(_key, (value.q, value.r, value.m)))
    return value, type(value)


def interned(build):
    """Wrap a formula constructor so that a call with the same arguments
    as a living expansion returns that expansion instead of building it.

    A node argument is keyed by its identity, and a pair by its type and
    its two vector terms; the key is flat, because a tuple of nodes hashes
    at C speed.  A lookup costs about as much as finding one or two
    interned nodes.
    A call with keyword arguments is built, not looked up."""
    @wraps(build)
    def intern_call(*args, **kwargs):
        if kwargs:
            return build(*args, **kwargs)
        key = [build]
        for arg in args:
            if isinstance(arg, _Node):
                key.append(arg)
            elif type(arg) is PairExpr:
                key += (PairExpr, arg.first, arg.second)
            else:
                key.append(_key(arg))
        key = tuple(key)
        ref = _EXPANSIONS.get(key)
        if ref is not None:
            formula = ref()
            if formula is not None:
                return formula
        formula = build(*args, **kwargs)
        _EXPANSIONS[key] = KeyedRef(formula, _forget, key)
        return formula
    return intern_call


@interned
def mk_pSD(v: VectorTerm, w: VectorTerm) -> Formula:
    """||v + w|| = ||v|| + ||w||."""
    return Eq(snorm(vadd(v, w)), SAdd(snorm(v), snorm(w)))


@interned
def mk_pRotund(v: VectorTerm) -> Formula:
    """forall u: ||u|| = ||v|| = ||(u+v)/2||  =>  u = v."""
    used = free_vars(v)
    name = "u"
    i = 0
    while name in used:
        i += 1
        name = f"u{i}"
    u = VVar(name)
    half = vscale(Fraction(1, 2), vadd(u, v))
    ante = And((Eq(snorm(u), snorm(v)), Eq(snorm(v), snorm(half))))
    return Forall(((name, "vec"),), Implies(ante, VecEq(u, v)))


@interned
def mk_pPar(v: VectorTerm, w: VectorTerm) -> Formula:
    """v and w span the same line: nonzero and same or opposite direction."""
    return And((
        Not(VecEq(v, VZero())),
        Not(VecEq(w, VZero())),
        Or((mk_pSD(v, w), mk_pSD(v, vneg(w)))),
    ))


@interned
def mk_pOK(s: PairExpr) -> Formula:
    """s is a valid representation of a real number."""
    return And((
        Eq(snorm(s.first), snorm(s.second)),
        Or((
            And((mk_pSD(s.first, vneg(E1_VAR)), mk_pSD(s.second, E2_VAR))),
            And((mk_pSD(s.first, E1_VAR), mk_pSD(s.second, vneg(E2_VAR)))),
        )),
    ))


# -- pair comparisons ----------------------------------------------------------

@interned
def mk_pair_eq(s: PairExpr, t: PairExpr) -> Formula:
    return VecEq(s.second, t.second)


@interned
def mk_pair_ge(s: PairExpr, t: PairExpr) -> Formula:
    return mk_pSD(psub(s, t).second, E2_VAR)


@interned
def mk_pair_gt(s: PairExpr, t: PairExpr) -> Formula:
    return And((mk_pair_ge(s, t), Not(mk_pair_eq(s, t))))


@interned
def mk_pair_lt(s: PairExpr, t: PairExpr) -> Formula:
    return mk_pair_gt(t, s)


# -- the five-point configuration ------------------------------------------------

def _chain(terms, last) -> list:
    """a = b = ... = last as consecutive equations."""
    items = list(terms) + [last]
    return [Eq(items[i], items[i + 1]) for i in range(len(items) - 1)]


def _half(a: VectorTerm, b: VectorTerm) -> VectorTerm:
    return vscale(Fraction(1, 2), vadd(a, b))


@interned
def mk_pW(p1: VectorTerm, p2: VectorTerm, u1: VectorTerm, u2: VectorTerm,
          u3: VectorTerm, env: MacroEnv) -> Formula:
    """The five-point configuration that pins (p1,p2,u1,u2,u3) to the
    canonical marker tuple up to sign."""
    one = SConst(Fraction(1))
    atoms = []
    atoms += _chain([snorm(p1), snorm(p2), snorm(u1), snorm(u2), snorm(u3)],
                    one)
    atoms += _chain([snorm(_half(u1, u3)), snorm(_half(u2, u3))], one)
    atoms.append(Lt(snorm(_half(u1, u2)), one))
    atoms.append(Eq(snorm(vsub(u1, u3)), SConst(env.r)))
    atoms.append(Eq(snorm(vsub(u3, u2)), SConst(2 * env.r)))
    atoms += _chain([snorm(vsub(p1, u1)), snorm(vsub(p2, u2))],
                    SConst(env.q))
    atoms.append(Lt(snorm(_half(p1, u1)), one))
    atoms.append(Lt(snorm(_half(p2, u2)), one))
    return And(tuple(atoms))


@interned
def mk_Def(e1: VectorTerm = E1_VAR, e2: VectorTerm = E2_VAR,
           x: VectorTerm = VVar("x"), y: VectorTerm = VVar("y"),
           z: VectorTerm = VVar("z")) -> Formula:
    """Axes are independent unit directions, the unit disc sits inside their
    square, and axis-box combinations are rotund."""
    one = SConst(Fraction(1))
    c1 = And(tuple(_chain([snorm(e1), snorm(e2)], one))
             + (Not(mk_pPar(e1, e2)),))
    c2 = Implies(
        And((mk_pPar(x, e1), mk_pPar(y, e2), Eq(snorm(vadd(x, y)), one))),
        And((Lt(snorm(x), one), Lt(snorm(y), one))))
    xy = vadd(x, y)
    mid = vscale(Fraction(1, 2), vadd(xy, z))
    c3 = Implies(
        And((mk_pSD(x, vneg(e1)), mk_pSD(y, e2),
             Eq(snorm(z), snorm(xy)), Eq(snorm(xy), snorm(mid)))),
        VecEq(z, xy))
    return And((c1, c2, c3))


# -- multiplication and the curve ------------------------------------------------

@interned
def mk_pNNMult(s: PairExpr, t: PairExpr, u: PairExpr) -> Formula:
    """Graph of multiplication for non-negative operands, via similar
    triangles spanned on the axes."""
    zero = numeral(0)
    return And((
        mk_pOK(s), mk_pOK(t), mk_pOK(u),
        mk_pair_ge(s, zero), mk_pair_ge(t, zero),
        mk_pSD(vadd(vneg(E1_VAR), s.second), vadd(t.first, u.second)),
    ))


@interned
def mk_pMult(s: PairExpr, t: PairExpr, u: PairExpr) -> Formula:
    """Multiplication for arbitrary sign via the four sign cases."""
    zero = numeral(0)
    return Or((
        And((mk_pair_ge(s, zero), mk_pair_ge(t, zero),
             mk_pNNMult(s, t, u))),
        And((mk_pair_lt(s, zero), mk_pair_ge(t, zero),
             mk_pNNMult(pneg(s), t, pneg(u)))),
        And((mk_pair_ge(s, zero), mk_pair_lt(t, zero),
             mk_pNNMult(s, pneg(t), pneg(u)))),
        And((mk_pair_lt(s, zero), mk_pair_lt(t, zero),
             mk_pNNMult(pneg(s), pneg(t), u))),
    ))


@interned
def mk_pG(s: PairExpr, t: PairExpr, u1: PairExpr) -> Formula:
    """t is the curve value at s: u1 = (1+s)t and the stretched point
    (-(1+t), (1+s)t) lies on the unit circle."""
    zero = numeral(0)
    one = numeral(1)
    return And((
        mk_pair_gt(s, zero), mk_pair_gt(t, zero),
        mk_pMult(padd(one, s), t, u1),
        Eq(snorm(vadd(padd(one, t).first, u1.second)),
           SAdd(SAdd(SConst(Fraction(1)), snorm(s.second)),
                snorm(u1.second))),
    ))


@interned
def mk_pSIN(s: PairExpr, t: PairExpr, u1: PairExpr, u2: PairExpr,
            env: MacroEnv) -> Formula:
    """t = sin s for s > 0, via the curve formula with u2 = s^2."""
    arg = padd(padd(pscale(2, s), u2), pscale(Fraction(1, env.m), t))
    return And((mk_pG(s, arg, u1), mk_pMult(s, s, u2)))


@interned
def mk_Periodic(a: PairExpr, s: PairExpr, t: PairExpr, v1: PairExpr,
                v2: PairExpr, v3: PairExpr, v4: PairExpr, v5: PairExpr,
                env: MacroEnv) -> Formula:
    """a > 0 is the half-period: the sine gadget vanishes on (0, 2a) only at
    a, and shifting by a flips its sign."""
    zero = numeral(0)
    c1 = And((mk_pOK(a), mk_pair_gt(a, zero)))
    sin_st = mk_pSIN(s, t, v1, v2, env)
    window = And((mk_pair_lt(zero, s), mk_pair_lt(s, pscale(2, a)), sin_st))
    iff = And((
        Implies(mk_pair_eq(t, zero), mk_pair_eq(s, a)),
        Implies(mk_pair_eq(s, a), mk_pair_eq(t, zero)),
    ))
    c2 = Implies(window, iff)
    c3 = Implies(
        And((sin_st, mk_pSIN(padd(s, a), v3, v4, v5, env))),
        mk_pair_eq(v3, pneg(t)))
    return And((c1, c2, c3))


@interned
def mk_pN(x: PairExpr, u1: PairExpr, u2: PairExpr, u3: PairExpr,
          a: PairExpr, env: MacroEnv) -> Formula:
    """x represents a natural number: (x+1)a is a positive sine zero."""
    zero = numeral(0)
    one = numeral(1)
    return And((
        mk_pSIN(u1, zero, u2, u3, env),
        mk_pMult(padd(x, one), a, u1),
    ))


@interned
def mk_pPi(x: PairExpr, u1: PairExpr, u2: PairExpr, env: MacroEnv) -> Formula:
    """x represents the circle constant: a sine zero below four."""
    zero = numeral(0)
    return And((
        mk_pair_lt(x, numeral(4)),
        mk_pSIN(x, zero, u1, u2, env),
    ))

