"""Term and formula syntax for the additive two-sorted language.

Vector terms admit variables, zero, addition, negation, and scaling by
rational constants only; scalar terms admit variables, rational constants,
norms of vector terms, addition, and negation.  There is no scalar product
node, which keeps the language additive by construction.

Equal terms are one object.  Each constructor looks its fields up in an
intern table and returns the node already built for them, so a sentence
that repeats a subterm holds it once: the compiled sentences are DAGs with
far fewer distinct nodes than their trees have nodes, and ``==`` and
``hash`` are object identity.  The table is keyed by the class, the
children's identities and, for leaf values, the value and its type (so
``VScale(0.5, v)`` and ``VScale(Fraction(1, 2), v)`` stay distinct).  It
holds its nodes weakly, so a node lives only while something else refers
to it.  Gadget applications are interned the same way one layer up
(``macros.interned``): a gadget applied again to the same arguments
returns its living expansion without building a node.  The walkers here
visit each distinct node once per call (``free_vars`` once per binder
scope, and keeps each answer while the node lives); ``node_count`` still
counts the tree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple, Union
from weakref import KeyedRef, WeakKeyDictionary

from ..errors import SortError

VEC = "vec"
SCALAR = "scalar"

#: key -> weak reference to the node built for it
_TABLE: Dict[tuple, KeyedRef] = {}


def _forget(ref: KeyedRef, table=_TABLE) -> None:
    """Drop a dead node's entry (the table is bound early, so that this
    still works while the interpreter shuts down)."""
    if table.get(ref.key) is ref:
        del table[ref.key]


class _Node:
    """An immutable, interned AST node.

    ``_fields`` names the constructor arguments in order; the first
    ``_values`` of them hold leaf values (names, rationals, binder lists),
    whose types the key records, and the rest hold child nodes, one each,
    or, for a ``_variadic`` class, a tuple of them in the one child field.
    ``_kids`` is the tuple of children, which every walker follows.
    """

    __slots__ = ("__weakref__", "_kids")
    _fields: Tuple[str, ...] = ()
    _values = 0
    _variadic = False

    def __new__(cls, *values):
        if cls._values:
            key = (cls, *values, *map(type, values))
        else:
            key = (cls, *values)
        ref = _TABLE.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        if len(values) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} "
                            f"arguments, got {len(values)}")
        node = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(node, name, value)
        object.__setattr__(node, "_kids", values[-1] if cls._variadic
                           else values[cls._values:])
        _TABLE[key] = KeyedRef(node, _forget, key)
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__name__}({fields})"


# -- vector terms -----------------------------------------------------------

class VVar(_Node):
    __slots__ = _fields = ("name",)
    _values = 1


class VZero(_Node):
    __slots__ = ()


class VAdd(_Node):
    __slots__ = _fields = ("left", "right")


class VNeg(_Node):
    __slots__ = _fields = ("arg",)


class VScale(_Node):
    __slots__ = _fields = ("coeff", "arg")
    _values = 1


VectorTerm = Union[VVar, VZero, VAdd, VNeg, VScale]


# -- scalar terms -----------------------------------------------------------

class SVar(_Node):
    __slots__ = _fields = ("name",)
    _values = 1


class SConst(_Node):
    __slots__ = _fields = ("value",)
    _values = 1


class SNorm(_Node):
    __slots__ = _fields = ("arg",)


class SAdd(_Node):
    __slots__ = _fields = ("left", "right")


class SNeg(_Node):
    __slots__ = _fields = ("arg",)


ScalarTerm = Union[SVar, SConst, SNorm, SAdd, SNeg]


# -- formulas ----------------------------------------------------------------

class Eq(_Node):
    __slots__ = _fields = ("left", "right")


class Le(_Node):
    __slots__ = _fields = ("left", "right")


class Lt(_Node):
    __slots__ = _fields = ("left", "right")


class VecEq(_Node):
    __slots__ = _fields = ("left", "right")


class Not(_Node):
    __slots__ = _fields = ("arg",)


class And(_Node):
    __slots__ = _fields = ("args",)
    _variadic = True


class Or(_Node):
    __slots__ = _fields = ("args",)
    _variadic = True


class Implies(_Node):
    __slots__ = _fields = ("antecedent", "consequent")


class Forall(_Node):
    __slots__ = _fields = ("vars", "body")  # vars: ((name, sort), ...)
    _values = 1


class Exists(_Node):
    __slots__ = _fields = ("vars", "body")
    _values = 1


Formula = Union[Eq, Le, Lt, VecEq, Not, And, Or, Implies, Forall, Exists]

TRUE = And(())


def conj(formulas) -> Formula:
    """N-ary conjunction; a single conjunct stays bare, none gives TRUE."""
    formulas = tuple(formulas)
    if len(formulas) == 1:
        return formulas[0]
    return And(formulas)


# -- smart term constructors --------------------------------------------------

def vscale(coeff, arg: VectorTerm) -> VectorTerm:
    """Scale with the obvious simplifications (0, 1, -1, nested scales)."""
    coeff = Fraction(coeff)
    if coeff == 0:
        return VZero()
    if coeff == 1:
        return arg
    if isinstance(arg, VZero):
        return VZero()
    if isinstance(arg, VScale):
        return vscale(coeff * arg.coeff, arg.arg)
    if coeff == -1:
        return VNeg(arg)
    return VScale(coeff, arg)


def vadd(left: VectorTerm, right: VectorTerm) -> VectorTerm:
    if isinstance(left, VZero):
        return right
    if isinstance(right, VZero):
        return left
    return VAdd(left, right)


def vneg(arg: VectorTerm) -> VectorTerm:
    if isinstance(arg, VZero):
        return VZero()
    if isinstance(arg, VNeg):
        return arg.arg
    return VNeg(arg)


def vsub(left: VectorTerm, right: VectorTerm) -> VectorTerm:
    return vadd(left, vneg(right))


def snorm(arg: VectorTerm) -> ScalarTerm:
    return SNorm(arg)


# -- walkers ------------------------------------------------------------------

def _kids_of(node) -> tuple:
    try:
        return node._kids
    except AttributeError:
        raise SortError(f"unknown node {node!r}") from None


#: node -> its free variables, for nodes that free_vars has walked
_FREE: "WeakKeyDictionary[_Node, Dict[str, str]]" = WeakKeyDictionary()


def free_vars(node) -> Dict[str, str]:
    """Free variables of a term or formula, mapped to their sorts.

    A node is walked once; later calls copy the kept answer, so a search
    that checks the same sentence again does not walk it again."""
    out = _FREE.get(node) if isinstance(node, _Node) else None
    if out is None:
        out = {}
        _collect_free(node, {}, out, set())  # rejects anything but a node
        _FREE[node] = out
    return dict(out)


_SORT_WORD = {VEC: "vector", SCALAR: "scalar"}


def _use(name: str, sort: str, bound: Dict[str, str],
         out: Dict[str, str]) -> None:
    if name not in bound:
        if out.setdefault(name, sort) != sort:
            raise SortError(f"variable {name!r} used at both sorts")
    elif bound[name] != sort:
        raise SortError(f"{name!r} bound as {_SORT_WORD[bound[name]]}, "
                        f"used as {_SORT_WORD[sort]}")


def _collect_free(node, bound: Dict[str, str], out: Dict[str, str],
                  seen: set) -> None:
    """Walk node under the binders `bound`.  Walking a node twice under the
    same binders adds nothing, so `seen` holds what this scope has walked;
    a binder starts a new scope, where a shared subterm may be bound."""
    if node in seen:
        return
    seen.add(node)
    if isinstance(node, VVar):
        _use(node.name, VEC, bound, out)
    elif isinstance(node, SVar):
        _use(node.name, SCALAR, bound, out)
    elif isinstance(node, (Forall, Exists)):
        inner = dict(bound)
        for name, sort in node.vars:
            if sort not in (VEC, SCALAR):
                raise SortError(f"unknown sort {sort!r} for {name!r}")
            inner[name] = sort
        _collect_free(node.body, inner, out, set())
    else:
        for kid in _kids_of(node):
            _collect_free(kid, bound, out, seen)


def check_sorts(node) -> None:
    """Structural well-sortedness pass; raises SortError on any defect.

    Parsed or hand-built trees can put a node of one sort where another is
    expected, or scale by a non-rational; this finds it.
    """
    _check(node, set())
    free_vars(node)  # also catches cross-sort variable use


SCALAR_NODES = (SVar, SConst, SNorm, SAdd, SNeg)
VECTOR_NODES = (VVar, VZero, VAdd, VNeg, VScale)
FORMULA_NODES = (Eq, Le, Lt, VecEq, Not, And, Or, Implies, Forall, Exists)

#: class -> (the classes its children must be instances of, their name)
KID_SORT = {
    **dict.fromkeys((VAdd, VNeg, VScale, SNorm, VecEq),
                    (VECTOR_NODES, "vector term")),
    **dict.fromkeys((SAdd, SNeg, Eq, Le, Lt), (SCALAR_NODES, "scalar term")),
    **dict.fromkeys((Not, And, Or, Implies, Forall, Exists),
                    (FORMULA_NODES, "formula")),
    **dict.fromkeys((VVar, VZero, SVar, SConst), ((), "")),
}


def _check(node, seen: set) -> None:
    if node in seen:
        return
    seen.add(node)
    try:
        sort, what = KID_SORT[type(node)]
    except KeyError:
        raise SortError(f"unknown node {node!r}") from None
    if isinstance(node, VScale) and not isinstance(node.coeff, Fraction):
        raise SortError(f"scale coefficient must be rational: {node!r}")
    if isinstance(node, (Forall, Exists)):
        names = [n for n, _ in node.vars]
        if len(set(names)) != len(names):
            raise SortError(f"duplicate bound variable in {names}")
    for kid in node._kids:
        if not isinstance(kid, sort):
            raise SortError(f"{what} expected, got {kid!r}")
        _check(kid, seen)


def is_quantifier_free(f: Formula) -> bool:
    """True iff no quantifier sits in f's connective structure."""
    seen = set()
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, (Forall, Exists)):
            return False
        if isinstance(g, (Not, And, Or, Implies)) and g not in seen:
            seen.add(g)
            todo.extend(g._kids)
    return True


def node_count(node) -> int:
    """Total AST node count (terms and formulas) of the tree: a subterm
    counts once for each place it occurs, though it is visited once."""
    counts: Dict[object, int] = {}

    def count(n) -> int:
        c = counts.get(n)
        if c is None:
            c = counts[n] = 1 + sum(map(count, _kids_of(n)))
        return c

    return count(node)
