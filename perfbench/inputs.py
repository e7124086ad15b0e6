"""Seeded benchmark inputs whose right answer is known by construction.

Nothing here calls the package under test.  Arithmetic formulas are built as
small trees, printed in the package's input grammar and judged by this
module's own evaluator.  Satisfiable formulas are built around a planted
witness; unsatisfiable ones come from templates with a number-theoretic
proof.  Circle pairs come from families whose classification follows from
the plane's construction, and boundary vectors from an independent copy of
the boundary's closed form, so their norms are known without the norm code.

Term trees:    ("var", i) | ("nat", c) | ("add", a, b) | ("mul", a, b)
Formula trees: ("eq" | "le" | "lt", left, right) | ("not", f)
             | ("and" | "or", f, g)
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import product
from typing import List, Optional, Tuple

# -- arithmetic formulas ----------------------------------------------------

_REL = {"eq": "=", "le": "<=", "lt": "<"}


def term_text(t) -> str:
    kind = t[0]
    if kind == "var":
        return f"x{t[1]}"
    if kind == "nat":
        return str(t[1])
    if kind == "add":
        return f"{term_text(t[1])} + {term_text(t[2])}"
    factors = [term_text(a) if a[0] in ("var", "nat") else f"({term_text(a)})"
               for a in t[1:]]
    return " * ".join(factors)


def formula_text(f) -> str:
    kind = f[0]
    if kind in _REL:
        return f"{term_text(f[1])} {_REL[kind]} {term_text(f[2])}"
    if kind == "not":
        return f"not ({formula_text(f[1])})"
    parts = [f"({formula_text(g)})" if g[0] in ("and", "or")
             else formula_text(g) for g in f[1:]]
    return f" {kind} ".join(parts)


def value(t, xs: Tuple[int, ...]) -> int:
    kind = t[0]
    if kind == "var":
        return xs[t[1] - 1]
    if kind == "nat":
        return t[1]
    if kind == "add":
        return value(t[1], xs) + value(t[2], xs)
    return value(t[1], xs) * value(t[2], xs)


def holds(f, xs: Tuple[int, ...]) -> bool:
    kind = f[0]
    if kind == "eq":
        return value(f[1], xs) == value(f[2], xs)
    if kind == "le":
        return value(f[1], xs) <= value(f[2], xs)
    if kind == "lt":
        return value(f[1], xs) < value(f[2], xs)
    if kind == "not":
        return not holds(f[1], xs)
    if kind == "and":
        return holds(f[1], xs) and holds(f[2], xs)
    return holds(f[1], xs) or holds(f[2], xs)


def products(node) -> int:
    """Number of product nodes: the m the compiler must report."""
    if node[0] in ("var", "nat"):
        return 0
    return (node[0] == "mul") + sum(products(c) for c in node[1:])


@dataclass(frozen=True)
class Formula:
    text: str
    tree: tuple
    m: int
    k: int
    #: witnesses known to satisfy the formula; empty when it is unsatisfiable
    witnesses: Tuple[Tuple[int, ...], ...]
    #: why the formula has no solution, for the unsatisfiable templates
    proof: Optional[str] = None


def _sum(terms):
    out = terms[0]
    for t in terms[1:]:
        out = ("add", out, t)
    return out


def _plus(t, c: int):
    if t[0] == "nat":
        return ("nat", t[1] + c)
    return t if c == 0 else ("add", t, ("nat", c))


def planted(rng: random.Random, m: int, k: int, extra: int = 0) -> Formula:
    """A formula with exactly m products over exactly x1..xk, built around a
    planted witness; up to `extra` further witnesses from [0, 2]^k."""
    w = tuple(rng.randint(0, 2) for _ in range(k))
    pieces = [("var", i) for i in range(1, k + 1)]
    rng.shuffle(pieces)
    for _ in range(m):
        a = pieces.pop(rng.randrange(len(pieces))) if pieces \
            else ("var", rng.randint(1, k))
        if pieces and rng.random() < 0.5:
            b = pieces.pop(rng.randrange(len(pieces)))
        elif rng.random() < 0.5:
            b = ("var", rng.randint(1, k))
        else:
            b = ("nat", rng.randint(2, 3))
        pieces.append(("mul", a, b) if rng.random() < 0.5 else ("mul", b, a))
    rng.shuffle(pieces)
    cut = rng.randint(1, len(pieces))
    left = _sum(pieces[:cut])
    right = _sum(pieces[cut:]) if cut < len(pieces) else ("nat", 0)
    lv, rv = value(left, w), value(right, w)
    if rng.random() < 0.7:
        if lv < rv:
            left = _plus(left, rv - lv)
        else:
            right = _plus(right, lv - rv)
        f = ("eq", left, right)
    else:
        f = ("le", left, _plus(right, max(0, lv - rv) + rng.randint(0, 2)))
    i = rng.randint(1, k)
    side = rng.random()
    if side < 0.25:
        bound = ("nat", w[i - 1] + rng.randint(1, 3))
        f = ("and", f, ("lt", ("var", i), bound))
    elif side < 0.4:
        f = ("or", ("eq", ("var", i), ("nat", w[i - 1] + 1)), f)
    elif side < 0.55:
        f = ("and", ("not", ("eq", ("var", i), ("nat", w[i - 1] + 1))), f)
    assert holds(f, w) and products(f) == m
    others = [xs for xs in product(range(3), repeat=k)
              if xs != w and holds(f, xs)]
    rng.shuffle(others)
    return Formula(formula_text(f), f, m, k, (w,) + tuple(others[:extra]))


def _nonsquare(rng: random.Random) -> int:
    while True:
        n = rng.randint(2, 30)
        if math.isqrt(n) ** 2 != n:
            return n


#: unsatisfiable templates, each (name, m, k)
UNSAT_TEMPLATES = (("succ", 0, 1), ("square", 1, 1), ("parity", 2, 2),
                   ("order", 0, 2))


def refutable(rng: random.Random, template: str) -> Formula:
    """An unsatisfiable formula from one of the proof-carrying templates."""
    x1, x2 = ("var", 1), ("var", 2)
    if template == "succ":
        c = rng.randint(1, 9)
        f = ("eq", ("add", x1, ("nat", c)), x1)
        proof = f"x + {c} > x"
    elif template == "square":
        n = _nonsquare(rng)
        f = ("eq", ("mul", x1, x1), ("nat", n))
        proof = f"{n} is not a square"
    elif template == "parity":
        c = rng.randint(2, 4)
        r = rng.randint(1, c - 1)
        f = ("eq", ("mul", ("nat", c), x1),
             ("add", ("mul", ("nat", c), x2), ("nat", r)))
        proof = f"the sides differ mod {c}"
    else:
        a, b = rng.choice([(0, 1), (1, 0), (1, 1), (0, 2), (2, 1)])
        f = ("and", ("le", _plus(x1, a), x2), ("le", _plus(x2, b), x1))
        proof = f"adding the two gives {a + b} <= 0"
    m, k = next((m, k) for name, m, k in UNSAT_TEMPLATES if name == template)
    assert products(f) == m
    assert not any(holds(f, xs) for xs in product(range(8), repeat=k))
    return Formula(formula_text(f), f, m, k, (), proof)


def max_var(node) -> int:
    """The k of x1..xk: the highest variable index used."""
    if node[0] == "var":
        return node[1]
    if node[0] == "nat":
        return 0
    return max(max_var(c) for c in node[1:])


def _e2e(tree, witness=None, proof=None) -> Formula:
    return Formula(formula_text(tree), tree, products(tree), max_var(tree),
                   (witness,) if witness else (), proof)


_X1, _X2 = ("var", 1), ("var", 2)

#: The six formulas of the package's reduction end-to-end suite, with their
#: answers worked out by hand.
E2E = (
    _e2e(("eq", _X1, ("nat", 2)), (2,)),
    _e2e(("eq", ("mul", _X1, _X1), ("nat", 4)), (2,)),
    _e2e(("and", ("eq", ("add", _X1, _X2), ("add", _X2, _X1)),
          ("eq", _X1, ("nat", 1))), (1, 0)),
    _e2e(("eq", ("add", _X1, ("nat", 1)), _X1), proof="x + 1 > x"),
    _e2e(("eq", ("mul", _X1, _X1), ("nat", 2)), proof="2 is not a square"),
    _e2e(("and", ("le", _X1, _X2), ("le", ("add", _X2, ("nat", 1)), _X1)),
         proof="adding the two gives 1 <= 0"),
)


# -- circle pairs -------------------------------------------------------------

@dataclass(frozen=True)
class CirclePair:
    family: str
    p: Tuple[float, float]
    r: float
    q: Tuple[float, float]
    s: float
    grid_n: int
    expected: str  # a Classification value name
    #: both components must be isolated points (two-point lemma)
    two_points: bool = False


def _scale(c, a):
    return (c * a[0], c * a[1])


def _polar(rng: random.Random, lo: float, hi: float):
    phi = rng.uniform(0.0, 2 * math.pi)
    d = rng.uniform(lo, hi)
    return (d * math.cos(phi), d * math.sin(phi))


def circle_pairs(rng: random.Random, params,
                 groups: int) -> List[CirclePair]:
    """The three two-point-lemma pairs, then `groups` seeded groups of two
    translates, one homothety about w3 and one disjoint pair.

    The plane's unit ball lies between the euclidean discs of radius
    1/sqrt(2) and sqrt(2) (it contains +-e1, +-e2 and every boundary point
    has coordinates of modulus at most 1), which fixes the classification
    of the translate and disjoint families without evaluating a norm.
    """
    w1, w2, w3 = (params.w1.as_tuple(), params.w2.as_tuple(),
                  params.w3.as_tuple())
    q, r = float(params.q), float(params.r)
    o = (0.0, 0.0)
    out = [
        # two-point lemma: markers on circles about e-points meet twice
        CirclePair("two_point", w1, q, o, 1.0, 8192, "TWO_COMPONENTS", True),
        CirclePair("two_point", w2, q, o, 1.0, 8192, "TWO_COMPONENTS", True),
        CirclePair("two_point", w1, r, w2, 2 * r, 8192, "TWO_COMPONENTS",
                   True),
    ]
    for i in range(groups):
        for _ in range(2):
            # translates: 0 < ||v|| <= sqrt(2) * 1.2 < 2, two components
            out.append(CirclePair("translate", o, 1.0, _polar(rng, 0.2, 1.2),
                                  1.0, 8192, "TWO_COMPONENTS"))
        # homothety about the vertex w3, shrinking or growing: the circles
        # share w3 and the two segments through it, one component
        lam = rng.uniform(0.6, 0.9) if i % 2 else rng.uniform(1.1, 1.4)
        out.append(CirclePair("homothety_w3", o, 1.0, _scale(1 - lam, w3), lam,
                              8192, "ONE_COMPONENT"))
        if i % 2:
            # far: euclidean distance >= 3 > 2 * sqrt(2)
            out.append(CirclePair("disjoint_far", o, 1.0,
                                  _polar(rng, 3.0, 5.0), 1.0, 4096,
                                  "DISJOINT"))
        else:
            # nested: ||c|| + s <= sqrt(2) * 0.3 + 0.8 < 2
            out.append(CirclePair("disjoint_nested", o, 2.0,
                                  _polar(rng, 0.0, 0.3), rng.uniform(0.3, 0.8),
                                  4096, "DISJOINT"))
    return out


# -- the boundary, independently ----------------------------------------------

def gamma(x: float, m: int) -> float:
    """The north-west boundary graph, from its closed form."""
    s = (x + 1.0) / (-x)
    g = 2.0 * s + s * s + math.sin(s) / m
    return g / (1.0 + g)


def unit_vectors(rng: random.Random, params, n: int):
    """n unit-norm vectors from every boundary piece and all four quadrants:
    euclidean arcs, the two segments, and the graph, plus antipodes."""
    w1, w2, w3 = (params.w1.as_tuple(), params.w2.as_tuple(),
                  params.w3.as_tuple())
    t1, t2 = math.atan2(w1[1], w1[0]), math.atan2(w2[1], w2[0])
    out = []
    for i in range(n):
        piece = i % 4
        if piece == 0:
            t = rng.choice((rng.uniform(0.0, t1),
                            rng.uniform(t2, math.pi / 2)))
            u = (math.cos(t), math.sin(t))
        elif piece in (1, 2):
            a, b = (w1, w3) if piece == 1 else (w3, w2)
            lam = rng.uniform(0.0, 1.0)
            u = (a[0] + lam * (b[0] - a[0]), a[1] + lam * (b[1] - a[1]))
        else:
            x = rng.uniform(-0.999, -0.001)
            u = (x, gamma(x, params.m))
        out.append(u if rng.random() < 0.5 else (-u[0], -u[1]))
    return out


def known_norm_batch(rng: random.Random, params, n: int):
    """(vectors, norms): unit vectors scaled by known factors."""
    scales = [rng.uniform(0.1, 3.0) for _ in range(n)]
    vs = [_scale(c, u) for c, u in zip(scales, unit_vectors(rng, params, n))]
    return vs, scales


def on_boundary(p, params, tol: float) -> bool:
    """Whether p lies on the unit circle, by the piece its angle selects."""
    x, y = p
    if y < 0.0 or (y == 0.0 and x < 0.0):
        x, y = -x, -y
    w1, w2, w3 = (params.w1.as_tuple(), params.w2.as_tuple(),
                  params.w3.as_tuple())
    t = math.atan2(y, x)
    if t > math.pi / 2 and x < 0.0 and y > 0.0:
        return abs(y - gamma(x, params.m)) <= tol
    t1, t3, t2 = (math.atan2(w[1], w[0]) for w in (w1, w3, w2))
    if t1 < t < t2:
        a, b = (w1, w3) if t < t3 else (w3, w2)
        cross = (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
        return abs(cross) <= tol
    return abs(math.hypot(x, y) - 1.0) <= tol
