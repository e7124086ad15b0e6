"""Compiler structure: shapes, variable blocks, dimension lift."""

import pytest

from normlogic.errors import SortError
from normlogic.logic import (Implies, VVar, check_aia_shape, mk_pPar,
                             parse_sentence, print_sentence)
from normlogic.reduction import compile_formula, parse_arith, render_additive
from normlogic.reduction.arith import AEq, AMul, AVar, ANat


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
    text = print_sentence(out.a_prime)
    assert print_sentence(mk_pPar(VVar("a1"), VVar("w1"))) in text
    assert print_sentence(mk_pPar(VVar("b2"), VVar("w2"))) in text


def test_dimension_three_sentences_round_trip(l1_params):
    out = compile_formula(parse_arith("x1*x1 = 2"), 3, l1_params)
    for f in (out.a_prime, out.b_prime):
        assert parse_sentence(print_sentence(f)) is f


def test_render_additive_rejects_products():
    with pytest.raises(SortError):
        render_additive(AEq(AMul(AVar("x1"), AVar("x1")), ANat(4)))


def test_compile_rejects_dimension_one(l1_params):
    with pytest.raises(ValueError):
        compile_formula(parse_arith("x1 = 2"), 1, l1_params)


def test_manifest_contents(l1_params):
    out = compile_formula(parse_arith("x1*x2 = 6"), 2, l1_params)
    assert out.manifest["m"] == 1
    assert out.manifest["k"] == 2
    assert out.manifest["variables"]["x_pairs"] == \
        [f"X{i}" for i in range(1, 9)]
    assert out.manifest["triples"] == [["s1", "t1", "z1"]]


def test_compile_deterministic(l1_params):
    q = parse_arith("x1*x1 = 2")
    out1 = compile_formula(q, 2, l1_params)
    out2 = compile_formula(q, 2, l1_params)
    assert print_sentence(out1.a) == print_sentence(out2.a)
    assert print_sentence(out1.b) == print_sentence(out2.b)
