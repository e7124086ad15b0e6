"""Structure of the emitted sentences: prefixes, counts, the decomposition
clause, prenex shapes."""

from fractions import Fraction

import pytest

from normlogic.errors import NotClosed, SortError
from normlogic.logic import (And, Eq, Exists, Forall, Implies, SConst, SVar,
                             check_aia_shape, check_sorts, free_vars, mk_A,
                             mk_A_prime, mk_B, mk_B_prime, mk_star,
                             node_count, prenex_variants,
                             strip_universal_prefix)
from normlogic.logic.prenex import _substitute_names
from normlogic.logic.sentences import b_variable_blocks
from normlogic.reduction import macro_env


@pytest.fixture(scope="module")
def env(l1_params):
    return macro_env(l1_params)


def _simple_q1():
    return Eq(SVar("x1"), SConst(Fraction(2)))


def test_a_is_closed_universal(env):
    a = mk_A(env)
    assert free_vars(a) == {}
    assert isinstance(a, Forall)
    check_sorts(a)


def test_a_prefix_layout(env):
    a = mk_A(env)
    names = [n for n, s in a.vars]
    assert names[:5] == ["e1", "e2", "w1", "w2", "w3"]
    assert names[5:11] == ["A.1", "A.2", "U1.1", "U1.2", "U2.1", "U2.2"]
    assert names[11:14] == ["x", "y", "z"]
    # seven auxiliary pairs close the prefix
    assert len(names) == 5 + 6 + 3 + 14
    assert all(s == "vec" for _, s in a.vars)


def test_b_quantifier_counts(env):
    m, k = 1, 1
    b = mk_B(_simple_q1(), m, k, env)
    assert free_vars(b) == {}
    vec = [n for n, s in b.vars if s == "vec"]
    sca = [n for n, s in b.vars if s == "scalar"]
    assert len(vec) == 5 + 6 + 2 * (4 * m) + 2 * (4 * m) + 2 * m + 2 * (4 * k)
    assert len(sca) == 3 * m + k
    blocks = b_variable_blocks(m, k)
    assert blocks["s_pairs"] == ["S1", "S2", "S3", "S4"]
    assert blocks["scalars"] == ["s1", "t1", "z1"]
    check_sorts(b)


def test_b_with_no_triples_omits_blocks(env):
    b = mk_B(_simple_q1(), 0, 1, env)
    names = {n for n, _ in b.vars}
    assert not any(n.startswith("S") for n in names)
    assert not any(n.startswith("Z") for n in names)
    assert {"X1.1", "X4.2", "x1"} <= names


def test_b_rejects_foreign_matrix_variables(env):
    with pytest.raises(SortError):
        mk_B(Eq(SVar("y9"), SConst(Fraction(0))), 0, 1, env)


def test_star_mentions_markers(env):
    star = mk_star()
    assert {"e1", "e2", "w1", "w2", "a1", "a2", "b1", "b2"} <= \
        set(free_vars(star))


def test_primes_add_decomposition(env):
    a = mk_A(env)
    ap = mk_A_prime(env)
    names = [n for n, _ in ap.vars]
    assert names[-4:] == ["a1", "a2", "b1", "b2"]
    assert node_count(ap) > node_count(a)
    bp = mk_B_prime(_simple_q1(), 1, 1, env)
    assert free_vars(bp) == {}
    check_sorts(bp)


def test_b_larger_than_a(env):
    a = mk_A(env)
    b = mk_B(_simple_q1(), 0, 1, env)
    assert node_count(b) > 0 and node_count(a) > 0
    # B for the smallest matrix still carries the X-blocks on top of the
    # shared head, A carries Def and Periodic; both are sizeable
    assert node_count(Implies(a, b)) == node_count(a) + node_count(b) + 1


def test_aia_shape(env):
    from normlogic.logic import SNorm, VVar
    a, b = mk_A(env), mk_B(_simple_q1(), 0, 1, env)
    assert check_aia_shape(Implies(a, b))
    assert not check_aia_shape(a)  # not an implication
    # a closed existential sentence is simply not of the shape
    ex_closed = Exists((("v", "vec"),),
                       Eq(SNorm(VVar("v")), SConst(Fraction(1))))
    assert not check_aia_shape(ex_closed)
    with pytest.raises(NotClosed):
        check_aia_shape(Eq(SVar("x1"), SConst(Fraction(1))))


def test_prenex_variants_shapes(env):
    a, b = mk_A(env), mk_B(_simple_q1(), 0, 1, env)
    ae, ea = prenex_variants(Implies(a, b))
    assert isinstance(ae, Forall) and isinstance(ae.body, Exists)
    assert isinstance(ea, Exists) and isinstance(ea.body, Forall)
    from normlogic.logic import is_quantifier_free
    assert is_quantifier_free(ae.body.body)
    assert is_quantifier_free(ea.body.body)
    assert free_vars(ae) == {} and free_vars(ea) == {}
    # antecedent variables got renamed apart
    inner_names = {n for n, _ in ae.body.vars}
    outer_names = {n for n, _ in ae.vars}
    assert inner_names.isdisjoint(outer_names)


def test_prenex_renames_antecedent_matrix(env):
    a, b = mk_A(env), mk_B(_simple_q1(), 0, 1, env)
    ae, _ = prenex_variants(Implies(a, b))
    vars_a, matrix_a = strip_universal_prefix(a)
    renamed = ae.body.body.antecedent
    inverse = {new: old for (old, _), (new, _) in zip(vars_a, ae.body.vars)}
    clashing = {old for new, old in inverse.items() if new != old}
    assert clashing
    # renaming back gives A's own matrix, and no clashing name is left free
    assert _substitute_names(renamed, inverse) is matrix_a
    assert clashing.isdisjoint(free_vars(renamed))
    # a binder hides the names it binds from the renaming
    inner = Eq(SVar("a"), SVar("b"))
    f = And((inner, Forall((("a", "scalar"),), inner)))
    assert _substitute_names(f, {"a": "a'", "b": "b'"}) == And((
        Eq(SVar("a'"), SVar("b'")),
        Forall((("a", "scalar"),), Eq(SVar("a"), SVar("b'")))))
