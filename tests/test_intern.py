"""Interned AST: equal terms are one object, and the DAG walkers agree with
tree walkers that visit every occurrence."""

import copy
import gc
import hashlib
import pickle
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings

from normlogic.errors import NotClosed, SortError
from normlogic.geometry import EuclideanSpace
from normlogic.logic import (And, Counterexample, Eq, Exists, Forall,
                             Implies, Le, Lt, Not, Or, SAdd, SConst, SNeg,
                             SNorm, SVar, Sampler, VAdd, VNeg, VScale, VVar,
                             VZero, VecEq,
                             check_aia_shape, check_sorts, eval_bounded,
                             free_vars, is_quantifier_free, node_count,
                             parse_sentence, print_sentence)
from normlogic.logic import macros, pair_var, sentences
from normlogic.logic.ast import TRUE, _Node
from normlogic.logic.macros import MacroEnv
from normlogic.reduction import compile_formula, macro_env, parse_arith

from test_sexpr import _formulas


# -- tree walkers: every occurrence visited, no sharing assumed -----------------

def _tree_rebuild(node):
    """A fresh construction of node, bottom up, from copies of its values."""
    if isinstance(node, (VVar, SVar)):
        return type(node)("".join(node.name))
    if isinstance(node, VZero):
        return VZero()
    if isinstance(node, SConst):
        return SConst(Fraction(node.value.numerator, node.value.denominator))
    if isinstance(node, VScale):
        coeff = Fraction(node.coeff.numerator, node.coeff.denominator)
        return VScale(coeff, _tree_rebuild(node.arg))
    if isinstance(node, (VNeg, SNeg, SNorm, Not)):
        return type(node)(_tree_rebuild(node.arg))
    if isinstance(node, (VAdd, SAdd, Eq, Le, Lt, VecEq)):
        return type(node)(_tree_rebuild(node.left), _tree_rebuild(node.right))
    if isinstance(node, (And, Or)):
        return type(node)(tuple(_tree_rebuild(g) for g in node.args))
    if isinstance(node, Implies):
        return Implies(_tree_rebuild(node.antecedent),
                       _tree_rebuild(node.consequent))
    if isinstance(node, (Forall, Exists)):
        return type(node)(tuple((n, s) for n, s in node.vars),
                          _tree_rebuild(node.body))
    raise TypeError(node)


def _tree_free(node, bound, out):
    if isinstance(node, (VVar, SVar)):
        sort = "vec" if isinstance(node, VVar) else "scalar"
        if node.name in bound:
            if bound[node.name] != sort:
                raise SortError("bound at the other sort")
        elif out.setdefault(node.name, sort) != sort:
            raise SortError("used at both sorts")
    elif isinstance(node, (VZero, SConst)):
        pass
    elif isinstance(node, (VNeg, SNeg, SNorm, VScale, Not)):
        _tree_free(node.arg, bound, out)
    elif isinstance(node, (VAdd, SAdd, Eq, Le, Lt, VecEq)):
        _tree_free(node.left, bound, out)
        _tree_free(node.right, bound, out)
    elif isinstance(node, (And, Or)):
        for g in node.args:
            _tree_free(g, bound, out)
    elif isinstance(node, Implies):
        _tree_free(node.antecedent, bound, out)
        _tree_free(node.consequent, bound, out)
    else:
        _tree_free(node.body, {**bound, **dict(node.vars)}, out)
    return out


def _tree_count(node):
    if isinstance(node, (VVar, VZero, SVar, SConst)):
        return 1
    if isinstance(node, (VNeg, SNeg, SNorm, VScale, Not)):
        return 1 + _tree_count(node.arg)
    if isinstance(node, (VAdd, SAdd, Eq, Le, Lt, VecEq)):
        return 1 + _tree_count(node.left) + _tree_count(node.right)
    if isinstance(node, (And, Or)):
        return 1 + sum(_tree_count(g) for g in node.args)
    if isinstance(node, Implies):
        return 1 + _tree_count(node.antecedent) + _tree_count(node.consequent)
    return 1 + _tree_count(node.body)


def _tree_qf(f):
    if isinstance(f, (Forall, Exists)):
        return False
    if isinstance(f, Not):
        return _tree_qf(f.arg)
    if isinstance(f, (And, Or)):
        return all(_tree_qf(g) for g in f.args)
    if isinstance(f, Implies):
        return _tree_qf(f.antecedent) and _tree_qf(f.consequent)
    return True


def _tree_print(t):
    if isinstance(t, (VVar, SVar)):
        return t.name
    if isinstance(t, VZero):
        return "0v"
    if isinstance(t, SConst):
        return str(t.value)
    if isinstance(t, VScale):
        return f"(vscale {t.coeff} {_tree_print(t.arg)})"
    if isinstance(t, (And, Or)):
        head = "and" if isinstance(t, And) else "or"
        return f"({head}" + "".join(" " + _tree_print(g) for g in t.args) \
            + ")"
    if isinstance(t, (Forall, Exists)):
        head = "forall" if isinstance(t, Forall) else "exists"
        binds = " ".join(f"({n} {s})" for n, s in t.vars)
        return f"({head} ({binds}) {_tree_print(t.body)})"
    head = {VAdd: "vadd", VNeg: "vneg", SNorm: "norm", SAdd: "+",
            SNeg: "neg", Eq: "=", Le: "<=", Lt: "<", VecEq: "veq",
            Not: "not", Implies: "=>"}[type(t)]
    if isinstance(t, (VNeg, SNorm, SNeg, Not)):
        return f"({head} {_tree_print(t.arg)})"
    if isinstance(t, Implies):
        return f"({head} {_tree_print(t.antecedent)} " \
               f"{_tree_print(t.consequent)})"
    return f"({head} {_tree_print(t.left)} {_tree_print(t.right)})"


def _distinct(node):
    """Number of distinct node objects reachable from node."""
    seen, todo = {}, [node]
    while todo:
        n = todo.pop()
        if id(n) in seen:
            continue
        seen[id(n)] = n
        if isinstance(n, (VNeg, SNeg, SNorm, VScale, Not)):
            todo.append(n.arg)
        elif isinstance(n, (VAdd, SAdd, Eq, Le, Lt, VecEq)):
            todo += [n.left, n.right]
        elif isinstance(n, (And, Or)):
            todo += n.args
        elif isinstance(n, Implies):
            todo += [n.antecedent, n.consequent]
        elif isinstance(n, (Forall, Exists)):
            todo.append(n.body)
    return len(seen)


# -- transparency ---------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(_formulas(2))
def test_interning_is_transparent(f):
    assert _tree_rebuild(f) is f
    assert parse_sentence(print_sentence(f)) is f
    assert print_sentence(f) == _tree_print(f)
    assert node_count(f) == _tree_count(f)
    assert is_quantifier_free(f) == _tree_qf(f)
    try:
        expected = list(_tree_free(f, {}, {}).items())
    except SortError:
        with pytest.raises(SortError):
            free_vars(f)
    else:
        assert list(free_vars(f).items()) == expected


def test_equal_fields_of_other_types_stay_distinct():
    v = VVar("v")
    exact = VScale(Fraction(1, 2), v)
    check_sorts(exact)
    inexact = VScale(0.5, v)
    assert inexact is not exact and inexact != exact
    with pytest.raises(SortError):
        check_sorts(inexact)
    assert SConst(Fraction(1)) is not SConst(1)


def test_nodes_are_immutable_and_copy_to_themselves():
    f = Forall((("v", "vec"),), VecEq(VScale(Fraction(1, 3), VVar("v")),
                                      VZero()))
    with pytest.raises(AttributeError):
        f.body = TRUE
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f


# -- scope: a subterm shared inside and outside a binder -------------------------

_SHARED = Eq(SVar("v"), SConst(Fraction(1)))


def test_shared_subterm_free_beside_its_binder():
    f = And((Forall((("v", "scalar"),), _SHARED), _SHARED))
    assert free_vars(f) == {"v": "scalar"}
    sampler = Sampler(EuclideanSpace(2), seed=0)
    with pytest.raises(NotClosed):
        eval_bounded(EuclideanSpace(2), f, sampler, 10)
    with pytest.raises(NotClosed):
        check_aia_shape(Implies(f, f))


def test_shared_subterm_bound_everywhere_is_closed():
    inner = And((Forall((("v", "scalar"),), _SHARED), _SHARED))
    f = Forall((("v", "scalar"),), inner)
    assert free_vars(f) == {}
    assert check_aia_shape(Implies(f, f)) is False   # closed, not purely
    g = Forall((("v", "scalar"),), And((_SHARED, Not(Not(_SHARED)))))
    res = eval_bounded(EuclideanSpace(2), g,
                       Sampler(EuclideanSpace(2), seed=0), 10)
    assert isinstance(res, Counterexample)   # v = 1 fails almost surely


def test_shared_subterm_sort_clash_under_binder():
    f = And((_SHARED, Forall((("v", "vec"),), _SHARED)))
    with pytest.raises(SortError):
        free_vars(f)
    with pytest.raises(SortError):
        check_sorts(f)


def test_free_vars_kept_per_node_and_copied():
    f = Forall((("v", "vec"),), Eq(SNorm(VVar("v")), SVar("kept")))
    first = free_vars(f)
    first["stray"] = "vec"  # the caller's copy, not the kept answer
    assert free_vars(f) == {"kept": "scalar"}
    assert free_vars(f) is not free_vars(f)
    g = f.body
    assert list(free_vars(g).items()) == [("v", "vec"), ("kept", "scalar")]
    ref = weakref.ref(f)
    del f, g
    gc.collect()
    assert ref() is None  # the kept answers hold no node alive


# -- interned gadget applications ------------------------------------------------

def _gadget_calls(env):
    """One application of each interned constructor, over pairs and vectors
    named for this test alone, as (constructor, arguments)."""
    v, w, x, y, z = (VVar(f"gi_{n}") for n in "vwxyz")
    s, t, u, a = (pair_var(f"GI{n}") for n in "STUA")
    v1, v2, v3, v4, v5 = (pair_var(f"GIV{i}") for i in range(1, 6))
    q1 = Eq(SVar("x1"), SConst(Fraction(4)))
    m = macros
    return [
        (m.mk_pSD, (v, w)), (m.mk_pRotund, (v,)), (m.mk_pPar, (v, w)),
        (m.mk_pOK, (s,)), (m.mk_pair_eq, (s, t)), (m.mk_pair_ge, (s, t)),
        (m.mk_pair_gt, (s, t)), (m.mk_pair_lt, (s, t)),
        (m.mk_pW, (v, w, x, y, z, env)), (m.mk_Def, (v, w, x, y, z)),
        (m.mk_pNNMult, (s, t, u)), (m.mk_pMult, (s, t, u)),
        (m.mk_pG, (s, t, u)), (m.mk_pSIN, (s, t, u, a, env)),
        (m.mk_Periodic, (a, s, t, v1, v2, v3, v4, v5, env)),
        (m.mk_pN, (s, t, u, a, v1, env)), (m.mk_pPi, (s, t, u, env)),
        (sentences.mk_A, (env,)), (sentences.mk_B, (q1, 0, 1, env)),
    ]


def test_gadget_applications_are_interned(l1_params, monkeypatch):
    env = macro_env(l1_params)
    calls = _gadget_calls(env)
    built = [build(*args) for build, args in calls]
    # the memo changes no result: a fresh expansion is the same node
    for (build, args), f in zip(calls, built):
        assert build.__wrapped__(*args) is f, build.__name__
    # and a repeated application returns it without expanding again
    made = []
    new = _Node.__new__

    def counting(cls, *values):
        made.append(cls)
        return new(cls, *values)

    monkeypatch.setattr(_Node, "__new__", staticmethod(counting))
    again = [build(*args) for build, args in calls]
    monkeypatch.undo()
    assert all(f is g for f, g in zip(built, again))
    assert made == []
    assert macros.mk_Def() is macros.mk_Def(e1=macros.E1_VAR) \
        is macros.mk_Def.__wrapped__()


def test_equal_environments_of_other_types_stay_distinct():
    exact = MacroEnv(q=Fraction(1, 2), r=Fraction(1, 8), m=3)
    inexact = MacroEnv(q=0.5, r=Fraction(1, 8), m=3)
    assert exact == inexact   # as dataclasses they compare equal
    points = tuple(VVar(f"gi_p{i}") for i in range(5))
    f = macros.mk_pW(*points, exact)
    g = macros.mk_pW(*points, inexact)
    assert g is not f
    assert g is macros.mk_pW.__wrapped__(*points, inexact)
    assert print_sentence(f) != print_sentence(g)
    assert macros.mk_pW(*points, exact) is f
    # the other constant too
    h = macros.mk_pW(*points, MacroEnv(Fraction(1, 2), 0.125, 3))
    assert h is not f and h is not g


def test_memo_keeps_no_expansion_alive():
    s, t, u = (pair_var(f"GIK{n}") for n in "STU")
    gc.collect()
    before = len(macros._EXPANSIONS)
    f = macros.mk_pMult(s, t, u)
    assert len(macros._EXPANSIONS) > before
    refs = [weakref.ref(f), weakref.ref(s.first), weakref.ref(u.second)]
    del f, s, t, u
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    assert len(macros._EXPANSIONS) == before


# -- pinned sizes and bytes of the compiled sentences ------------------------------

_SHA_A = "24debbc15082755c1c8246a2e2959c1b6d5e850b75c920c0083bbcff7b635f10"
_SHA_B = "448dbc838820454b6c618102ff4d5e40ae9188ba9859be8dbc86a1aed3fbba7f"


@pytest.mark.parametrize("text, nodes, distinct", [
    ("x1*x1 = 4", 14165, 1948),
    ("x1*x2*x3 = x4 + 1", 32901, 4362),
])
def test_b_sizes_pinned(l1_params, text, nodes, distinct):
    b = compile_formula(parse_arith(text), 2, l1_params).b
    assert node_count(b) == nodes
    assert _distinct(b) == distinct


def test_printed_sentences_pinned(l1_params):
    out = compile_formula(parse_arith("x1*x1 = 4"), 2, l1_params)
    for f, digest in ((out.a, _SHA_A), (out.b, _SHA_B)):
        text = print_sentence(f)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert parse_sentence(text) is f
