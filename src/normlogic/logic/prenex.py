"""Shape checking and prenex variants of universal implications."""

from __future__ import annotations

from typing import Tuple

from ..errors import NotClosed
from .ast import (Exists, Forall, Formula, Implies, free_vars,
                  is_quantifier_free)
from .evaluate import strip_universal_prefix


def _purely_universal(f: Formula) -> bool:
    while isinstance(f, Forall):
        f = f.body
    return is_quantifier_free(f)


def check_aia_shape(f: Formula) -> bool:
    """True iff f is an implication between purely universal sentences."""
    if free_vars(f):
        raise NotClosed("shape check needs a closed sentence")
    if not isinstance(f, Implies):
        return False
    return _purely_universal(f.antecedent) and _purely_universal(f.consequent)


def _rename_apart(vars_a, taken):
    """Deterministically prime antecedent names that clash elsewhere."""
    mapping = {}
    renamed = []
    for name, sort in vars_a:
        new = name
        while new in taken:
            new += "'"
        taken = taken | {new}
        mapping[name] = new
        renamed.append((new, sort))
    return tuple(renamed), mapping


def _substitute_names(f: Formula, mapping) -> Formula:
    """f with its free variables renamed by mapping, rebuilt once per
    distinct node.  A binder starts a new scope, in which the names it
    binds are not renamed."""
    memo = {}

    def go(node):
        new = memo.get(node)
        if new is not None:
            return new
        cls = type(node)
        fields = cls._fields[:cls._values]
        values = [getattr(node, name) for name in fields]
        if fields == ("name",):
            values = [mapping.get(node.name, node.name)]
        if isinstance(node, (Forall, Exists)):
            bound = {n for n, _ in node.vars}
            inner = {k: v for k, v in mapping.items() if k not in bound}
            kids = (go(node.body) if inner == mapping
                    else _substitute_names(node.body, inner),)
        else:
            kids = tuple(map(go, node._kids))
        new = memo[node] = (cls(*values, kids) if cls._variadic
                            else cls(*values, *kids))
        return new

    return go(f)


def prenex_variants(f: Formula) -> Tuple[Formula, Formula]:
    """Logically equivalent (forall-exists, exists-forall) prenex forms of an
    implication between purely universal sentences.

    Pulling the antecedent's universal prefix out of an implication flips it
    existential; clashing names get primed first.
    """
    if free_vars(f):
        raise NotClosed("prenexing needs a closed sentence")
    if not check_aia_shape(f):
        raise ValueError("not an implication of purely universal sentences")
    vars_a, matrix_a = strip_universal_prefix(f.antecedent)
    vars_b, matrix_b = strip_universal_prefix(f.consequent)
    taken = {n for n, _ in vars_b}
    renamed_a, mapping = _rename_apart(vars_a, taken)
    matrix_a = _substitute_names(matrix_a, mapping)
    core = Implies(matrix_a, matrix_b)

    def wrap(cls, vs, body):
        return cls(tuple(vs), body) if vs else body

    ae = wrap(Forall, vars_b, wrap(Exists, renamed_a, core))
    ea = wrap(Exists, renamed_a, wrap(Forall, vars_b, core))
    return ae, ea
