"""Arithmetic syntax, semantics, and the bounded satisfiability oracle."""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlogic.errors import ParseError
from normlogic.reduction import arith
from normlogic.reduction import (bounded_nat_sat, eval_arith, parse_arith,
                                 print_arith, var_count)
from normlogic.reduction.arith import (MAX_DEPTH, MAX_PARENS, AAdd, AAnd,
                                       AEq, ALe, AMul, ANat, ANot, AOr, AVar,
                                       nesting_depth)


def test_parse_product_equation():
    f = parse_arith("x1*x1 = 2")
    assert f == AEq(AMul(AVar("x1"), AVar("x1")), ANat(2))


def test_parse_additive():
    f = parse_arith("x1 + 1 = x1")
    assert f == AEq(AAdd(AVar("x1"), ANat(1)), AVar("x1"))


def test_parse_error():
    with pytest.raises(ParseError):
        parse_arith("x1 = = 2")
    with pytest.raises(ParseError):
        parse_arith("x1 + = 2")
    with pytest.raises(ParseError):
        parse_arith("y1 = 2")  # variables are x1, x2, ...


def test_precedence():
    f = parse_arith("x1 + x2 * x3 = 7")
    assert f == AEq(AAdd(AVar("x1"), AMul(AVar("x2"), AVar("x3"))), ANat(7))
    g = parse_arith("(x1 + x2) * x3 = 7")
    assert g == AEq(AMul(AAdd(AVar("x1"), AVar("x2")), AVar("x3")), ANat(7))


def test_connective_precedence():
    f = parse_arith("x1 = 1 and x2 = 2 or x1 = 0")
    assert isinstance(f, AOr)
    assert isinstance(f.left, AAnd)


def test_strict_less_desugars():
    f = parse_arith("x1 < 3")
    assert f == AAnd(ALe(AVar("x1"), ANat(3)),
                     ANot(AEq(AVar("x1"), ANat(3))))


def test_parenthesized_formula():
    f = parse_arith("not (x1 = 2 or x1 = 3)")
    assert isinstance(f, ANot) and isinstance(f.arg, AOr)


def test_formula_in_double_parentheses():
    f = parse_arith("x1 = 2")
    assert parse_arith("((x1 = 2))") == f
    assert parse_arith("not (((x1 = 2)))") == ANot(f)
    assert parse_arith("((x1 = 2) and x2 = 1)") == AAnd(
        f, AEq(AVar("x2"), ANat(1)))
    # a group holding one term group is still a term
    assert parse_arith("((x1 + 1)) = 2") == AEq(AAdd(AVar("x1"), ANat(1)),
                                                 ANat(2))
    with pytest.raises(ParseError, match="expected '\\)'"):
        parse_arith("((x1 = 2)")


def test_nesting_depth_counts_operators():
    assert nesting_depth(parse_arith("x1 = 2")) == 1
    assert nesting_depth(parse_arith("x1 + x2 * x3 = 7")) == 3
    assert nesting_depth(parse_arith("not (x1 < 3)")) == 4
    assert nesting_depth(AVar("x1")) == 0


def _sum(terms):
    return " + ".join(["1"] * terms) + " = x1"


def _product(levels):
    return "x1 * (1 + " * levels + "x1" + ")" * levels + " = 2"


@pytest.mark.parametrize("text, depth, deeper", [
    (_sum(MAX_DEPTH), MAX_DEPTH, _sum(MAX_DEPTH + 1)),  # n - 1 +, one =
    ("not " * (MAX_DEPTH - 1) + "x1 = 2", MAX_DEPTH,
     "not " * MAX_DEPTH + "x1 = 2"),
    (" and ".join(["x1 = 2"] * MAX_DEPTH), MAX_DEPTH,
     " and ".join(["x1 = 2"] * (MAX_DEPTH + 1))),
    (_product(MAX_DEPTH // 2 - 1), MAX_DEPTH - 1, _product(MAX_DEPTH // 2)),
], ids=["sum", "not", "and", "product"])
def test_nesting_at_the_limit(text, depth, deeper):
    assert nesting_depth(parse_arith(text)) == depth
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_arith(deeper)


def test_deep_formulas_are_parse_errors():
    # far past the limit, still a ParseError and not a RecursionError
    for text in (_sum(1600), "not " * 3000 + "x1 = 2"):
        with pytest.raises(ParseError, match="nesting too deep"):
            parse_arith(text)


@pytest.mark.parametrize("open_", ["(", "not ("], ids=["bare", "not"])
def test_parentheses_at_the_limit(open_):
    inner = parse_arith("x1 = 2")
    ok = parse_arith(open_ * MAX_PARENS + "x1 = 2" + ")" * MAX_PARENS)
    assert nesting_depth(ok) == 1 + open_.count("not") * MAX_PARENS
    term = "(" * MAX_PARENS + "x1" + ")" * MAX_PARENS + " = 2"
    assert parse_arith(term) == inner
    for deep in (MAX_PARENS + 1, 400, 3000):
        text = open_ * deep + "x1 = 2" + ")" * deep
        with pytest.raises(ParseError, match="parentheses nest too deep") \
                as err:
            parse_arith(text)
        assert err.value.offset == len(open_) * MAX_PARENS + open_.index("(")


@pytest.mark.parametrize("text", [
    "x1*x1 = 2", "x1 + 1 = x1", "x1 <= x2 and x2 + 1 <= x1",
    "not (x1 = 2 or x2 <= 1)", "(x1 + x2) * x3 = 7",
    "x1 * (x2 + 1) = 6", "2 * x1 = x2", "x1 < 3",
])
def test_round_trip(text):
    f = parse_arith(text)
    assert parse_arith(print_arith(f)) == f


def test_round_trip_of_deep_negations():
    # each negation of a literal prints bare, so 250 of them print no
    # parentheses at all, and parse back to the same formula
    f = parse_arith("not " * 250 + "x1 = 2")
    text = print_arith(f)
    assert text == "not " * 250 + "x1 = 2"
    assert parse_arith(text) == f
    # a negated disjunction keeps its parentheses
    g = parse_arith("not (x1 = 2 or x2 = 1)")
    assert print_arith(g) == "not (x1 = 2 or x2 = 1)"
    assert parse_arith(print_arith(g)) == g
    h = parse_arith("not not (x1 = 2 and x2 <= 1)")
    assert print_arith(h) == "not not (x1 = 2 and x2 <= 1)"
    assert parse_arith(print_arith(h)) == h


_TERMS = st.recursive(
    st.builds(AVar, st.sampled_from(["x1", "x2", "x3"]))
    | st.builds(ANat, st.integers(0, 12)),
    lambda t: st.builds(AAdd, t, t) | st.builds(AMul, t, t), max_leaves=6)
_COMPARISONS = (
    st.builds(AEq, _TERMS, _TERMS) | st.builds(ALe, _TERMS, _TERMS)
    # the shape a < b parses to
    | st.builds(lambda a, b: AAnd(ALe(a, b), ANot(AEq(a, b))),
                _TERMS, _TERMS))
_FORMULAS = st.recursive(
    _COMPARISONS,
    lambda f: st.builds(ANot, f) | st.builds(AAnd, f, f)
    | st.builds(AOr, f, f), max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(_FORMULAS)
def test_print_then_parse_is_identity(f):
    assert parse_arith(print_arith(f)) == f


@pytest.mark.parametrize("text", [
    "x1 + (x2 = 1) = 3", "not x1", "(x1 = 2) + 1 = 3", "x1 = 2 = 3",
    "x1 and x2", "((x1 + 1))",
])
def test_term_for_formula_or_formula_for_term_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_arith(text)


def test_eval_arith():
    f = parse_arith("x1*x1 + x2 = 5")
    assert eval_arith(f, {"x1": 2, "x2": 1})
    assert not eval_arith(f, {"x1": 1, "x2": 1})


def test_var_count():
    assert var_count(parse_arith("x1 = 2")) == 1
    assert var_count(parse_arith("x3 = 2")) == 3  # ranges over x1..x3
    assert var_count(parse_arith("1 + 1 = 2")) == 0


def test_bounded_sat_square():
    assert bounded_nat_sat(parse_arith("x1*x1 = 4"), 10) == (2,)


def test_bounded_sat_unsat():
    assert bounded_nat_sat(parse_arith("x1 + 1 = x1"), 100) is None
    assert bounded_nat_sat(parse_arith("x1*x1 = 2"), 100) is None


def test_bounded_sat_lexicographic():
    # both (0,3) and (1,2) satisfy; lexicographic order picks (0,3)
    assert bounded_nat_sat(parse_arith("x1 + x2 = 3"), 5) == (0, 3)


def test_bounded_sat_enumerates_only_used_variables():
    assert bounded_nat_sat(parse_arith("x3 = 2"), 5) == (0, 0, 2)
    f = parse_arith("x6 + 1 = x6")
    roots = []
    real = arith.eval_arith

    def counting(node, env):
        if node is f:
            roots.append(env)
        return real(node, env)

    with mock.patch.object(arith, "eval_arith", counting):
        assert bounded_nat_sat(f, 3) is None
    # one call per value of x6, where the full product makes 4**6
    assert len(roots) == 4


@pytest.mark.parametrize("text", [
    "x2 + x4 = 3", "x3 * x1 = 2 and not x3 = 1", "x5 <= 2 and x2 + 1 = x5",
    "x4 * x4 = x2 + 3 or x2 = 3", "x3 + x3 = 5", "x1 < x3"])
def test_bounded_sat_matches_the_full_product(text):
    f = parse_arith(text)
    k = var_count(f)
    names = [f"x{i}" for i in range(1, k + 1)]
    for bound in range(4):
        first = next((values for values in
                      itertools.product(range(bound + 1), repeat=k)
                      if eval_arith(f, dict(zip(names, values)))), None)
        assert bounded_nat_sat(f, bound) == first


def test_bounded_sat_closed_formula():
    assert bounded_nat_sat(parse_arith("1 + 1 = 2"), 3) == ()
    assert bounded_nat_sat(parse_arith("1 = 2"), 3) is None
