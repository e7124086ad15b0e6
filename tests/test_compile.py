"""Compiler structure: shapes, variable blocks, dimension lift."""

from fractions import Fraction

import pytest

from normlogic.errors import NotClosed, SortError
from normlogic.logic import (Eq, Forall, Implies, SConst, SNorm, SVar, VVar,
                             check_aia_shape, mk_pPar, parse_sentence,
                             print_sentence)
from normlogic.reduction import (compile_formula, parse_arith, print_arith,
                                 render_additive)
from normlogic.reduction.arith import AEq, AMul, AVar, ANat
from test_sexpr import expand_labels


def test_additive_formula_omits_triple_blocks(l1_params):
    out = compile_formula(parse_arith("x1 = 2"), 2, l1_params)
    assert out.m == 0 and out.k == 1
    names = {n for n, _ in out.b.vars}
    assert not any(n.startswith(("S", "T", "Z", "s", "t", "z"))
                   for n in names)
    assert out.shape_ok


def test_square_formula_shape(l1_params):
    out = compile_formula(parse_arith("x1*x1 = 2"), 2, l1_params)
    assert out.m == 1 and out.k == 1
    assert out.shape_ok
    assert check_aia_shape(Implies(out.a, out.b))
    assert out.a_prime is None and out.b_prime is None


def test_dimension_three_carries_decomposition(l1_params):
    out = compile_formula(parse_arith("x1*x1 = 2"), 3, l1_params)
    assert out.a_prime is not None and out.b_prime is not None
    assert out.shape_ok
    # the decomposition clause mentions the markers through the parallel
    # predicate; a1..b2 got quantified
    names = [n for n, _ in out.a_prime.vars]
    assert names[-4:] == ["a1", "a2", "b1", "b2"]
    text = expand_labels(print_sentence(out.a_prime))
    reached = _reachable(out.a_prime)
    for par in (mk_pPar(VVar("a1"), VVar("w1")),
                mk_pPar(VVar("b2"), VVar("w2"))):
        assert expand_labels(print_sentence(par)) in text
        assert par in reached


def _reachable(node):
    """Every node reachable from node, itself included."""
    seen, todo = set(), [node]
    while todo:
        n = todo.pop()
        if n not in seen:
            seen.add(n)
            todo.extend(n._kids)
    return seen


def test_dimension_three_sentences_round_trip(l1_params):
    out = compile_formula(parse_arith("x1*x1 = 2"), 3, l1_params)
    for f in (out.a_prime, out.b_prime):
        assert parse_sentence(print_sentence(f)) is f


_ONE = SConst(Fraction(1))
_CLOSED = Forall((("w", "vec"),), Eq(SNorm(VVar("w")), _ONE))
_V_AS_SCALAR = Forall((("v", "vec"),), Eq(SVar("v"), _ONE))


@pytest.mark.parametrize("f, error, message", [
    (Implies(Forall((("v", "vec"),), Eq(SVar("a"), SNorm(VVar("v")))),
             _CLOSED), NotClosed, "shape check needs a closed sentence"),
    (Implies(_CLOSED, Eq(SVar("a"), _ONE)), NotClosed,
     "shape check needs a closed sentence"),
    (Eq(SVar("a"), _ONE), NotClosed, "shape check needs a closed sentence"),
    (Implies(Eq(SNorm(VVar("x")), _ONE), Eq(SVar("x"), _ONE)), SortError,
     "variable 'x' used at both sorts"),
    (Implies(_CLOSED, _V_AS_SCALAR), SortError,
     "'v' bound as vector, used as scalar"),
    (Implies(Forall((("v", "foo"),), Eq(SVar("v"), _ONE)),
             _V_AS_SCALAR), SortError, "unknown sort 'foo' for 'v'"),
], ids=["open-antecedent", "open-consequent", "open-atom", "sorts-across",
        "sort-in-consequent", "sorts-in-both"])
def test_shape_check_errors(f, error, message):
    # the shape check takes each side's kept free variables first; what it
    # raises is still what walking the whole implication raises
    with pytest.raises(error) as exc:
        check_aia_shape(f)
    assert str(exc.value) == message


def test_render_additive_rejects_products():
    with pytest.raises(SortError):
        render_additive(AEq(AMul(AVar("x1"), AVar("x1")), ANat(4)))


def test_compile_rejects_dimension_one(l1_params):
    with pytest.raises(ValueError):
        compile_formula(parse_arith("x1 = 2"), 1, l1_params)


def test_manifest_contents(l1_params):
    out = compile_formula(parse_arith("x1*x2 = 6"), 2, l1_params)
    assert out.manifest["formula"] == "x1 * x2 = 6"
    assert out.manifest["m"] == 1
    assert out.manifest["k"] == 2
    assert out.manifest["variables"]["x_pairs"] == \
        [f"X{i}" for i in range(1, 9)]
    assert out.manifest["triples"] == [["s1", "t1", "z1"]]


@pytest.mark.parametrize("text", [
    "x1*x1 = 2", "x1 + 1 = x1", "not (x1 = 2 or x2 <= 3) and x1 + 1 < x2",
    "(x1 + x2)*x3 = x4*(x1 + 1)"])
def test_manifest_formula_reads_back(l1_params, text):
    formula = compile_formula(parse_arith(text), 2, l1_params) \
        .manifest["formula"]
    assert print_arith(parse_arith(formula)) == formula
    assert parse_arith(formula) == parse_arith(text)


def test_compile_deterministic(l1_params):
    q = parse_arith("x1*x1 = 2")
    out1 = compile_formula(q, 2, l1_params)
    out2 = compile_formula(q, 2, l1_params)
    assert print_sentence(out1.a) == print_sentence(out2.a)
    assert print_sentence(out1.b) == print_sentence(out2.b)
