"""Evaluator semantics: tolerance contract, errors, bounded refutation."""

import gc
import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normlogic.errors import NotClosed, SortError, UnboundVariable
from normlogic.geometry import EuclideanSpace, PlaneSpace, Vec2, two_sum
from normlogic.logic import (And, Counterexample, Eq, Forall, HoldsOnSamples,
                             Implies, Le, Lt, Not, Or, Sampler, SAdd, SConst,
                             SNeg, SNorm, SVar, VAdd, VNeg, VScale, VVar,
                             VZero, VecEq, eval_bounded, eval_qf, free_vars,
                             mk_A, mk_pSD, strip_universal_prefix)
from normlogic.logic.evaluate import (_BLOCK, _NORM_MEMO_BOUND, _NORM_MEMOS,
                                      Evaluation, _DrawnRows, _norm_memo,
                                      _verdicts)


def test_norm_of_zero_atom(l1_space):
    f = Eq(SNorm(VZero()), SConst(Fraction(0)))
    assert eval_qf(l1_space, f, {}, 1e-9)


def test_eq_tolerance(l1_space):
    f = Eq(SVar("a"), SVar("b"))
    assert eval_qf(l1_space, f, {"a": 1.0, "b": 1.0 + 5e-7}, 1e-6)
    assert not eval_qf(l1_space, f, {"a": 1.0, "b": 1.0 + 5e-6}, 1e-6)


def test_lt_strictness(l1_space):
    f = Lt(SVar("a"), SVar("b"))
    # within tolerance of equality: strictness must refuse
    assert not eval_qf(l1_space, f, {"a": 1.0, "b": 1.0 + 5e-7}, 1e-6)
    assert eval_qf(l1_space, f, {"a": 1.0, "b": 1.1}, 1e-6)
    # Le accepts the same near-tie
    assert eval_qf(l1_space, Le(SVar("a"), SVar("b")),
                   {"a": 1.0 + 5e-7, "b": 1.0}, 1e-6)


def test_veceq_max_coordinate(l1_space):
    f = VecEq(VVar("v"), VVar("w"))
    assert eval_qf(l1_space, f, {"v": (1, 2), "w": (1 + 1e-8, 2 - 1e-8)},
                   1e-6)
    assert not eval_qf(l1_space, f, {"v": (1, 2), "w": (1, 2.1)}, 1e-6)


def test_unbound_variable(l1_space):
    with pytest.raises(UnboundVariable):
        eval_qf(l1_space, Eq(SVar("a"), SConst(Fraction(0))), {}, 1e-6)


def test_sort_mismatch_in_assignment(l1_space):
    f = Eq(SNorm(VVar("v")), SConst(Fraction(0)))
    with pytest.raises(SortError):
        eval_qf(l1_space, f, {"v": 3.0}, 1e-6)


def test_vec2_values_read_as_tuples(l1_space):
    rng = np.random.default_rng(22)
    v, w = VVar("v"), VVar("w")
    s = SVar("s")
    formulas = [Le(SNorm(VAdd(v, VNeg(w))), s), Lt(s, SNorm(v)),
                Eq(SNorm(VScale(Fraction(1, 3), v)), SAdd(SNorm(w), SNeg(s))),
                VecEq(VAdd(v, w), VAdd(w, v))]
    for _ in range(50):
        (vx, vy), (wx, wy) = rng.uniform(-3.0, 3.0, (2, 2))
        scalar = float(rng.uniform(0.0, 4.0))
        for f in formulas:
            assert eval_qf(l1_space, f, {"v": Vec2(vx, vy), "w": Vec2(wx, wy),
                                         "s": scalar}, 1e-6) == \
                eval_qf(l1_space, f, {"v": (vx, vy), "w": (wx, wy),
                                      "s": scalar}, 1e-6)
    with pytest.raises(SortError, match="dimension 2, space needs 3"):
        eval_qf(EuclideanSpace(3), Eq(SNorm(v), SConst(Fraction(0))),
                {"v": Vec2(1.0, 0.0)}, 1e-6)


def test_sampler_reads_vec2_special_vectors_as_tuples(l1_params):
    markers = [l1_params.w1, l1_params.w2, l1_params.w3]
    for dim in (2, 3):
        space = EuclideanSpace(dim)
        from_vec2 = Sampler(space, special_vectors=markers)
        from_tuples = Sampler(space, special_vectors=[(w.x, w.y)
                                                      for w in markers])
        assert from_vec2.special_points == from_tuples.special_points
        assert len(from_vec2.special_points) == 1 + 2 * (dim + 3)


def test_quantifier_rejected(l1_space):
    f = Forall((("v", "vec"),), Eq(SNorm(VVar("v")), SConst(Fraction(0))))
    with pytest.raises(SortError):
        eval_qf(l1_space, f, {}, 1e-6)


def test_bounded_nonneg_norm_holds(l1_space):
    f = Forall((("v", "vec"),), Le(SConst(Fraction(0)), SNorm(VVar("v"))))
    res = eval_bounded(l1_space, f, Sampler(l1_space, seed=3), 500)
    assert isinstance(res, HoldsOnSamples)
    assert res.samples_tried == 500


def test_bounded_finds_zero_counterexample(l1_space):
    f = Forall((("v", "vec"),), Eq(SNorm(VVar("v")), SConst(Fraction(1))))
    res = eval_bounded(l1_space, f, Sampler(l1_space, seed=3), 2000)
    assert isinstance(res, Counterexample)
    # the reported assignment really falsifies the matrix at both tolerances
    body = f.body
    assert not eval_qf(l1_space, body, res.assignment, 1e-6)
    assert not eval_qf(l1_space, body, res.assignment, 1e-7)


def test_bounded_requires_closed(l1_space):
    f = Eq(SNorm(VVar("v")), SConst(Fraction(1)))
    with pytest.raises(NotClosed):
        eval_bounded(l1_space, f, Sampler(l1_space, seed=1), 10)


def test_bounded_sentence_without_prefix(l1_space):
    # a closed sentence with no quantifier is decided once, with no draw
    zero, one = SConst(Fraction(0)), SConst(Fraction(1))
    sampler = Sampler(l1_space, seed=1)
    state = sampler.rng.getstate()
    assert eval_bounded(l1_space, Le(zero, one), sampler, 10) == \
        HoldsOnSamples(samples_tried=0)
    assert eval_bounded(l1_space, Le(one, zero), sampler, 10) == \
        Counterexample({})
    assert sampler.rng.getstate() == state


def test_rebound_name_is_drawn_at_its_innermost_binding(l1_space):
    # the matrix reads the inner v, a scalar, not the outer vector
    f = Forall((("v", "vec"),),
               Forall((("v", "scalar"),), Le(SVar("v"), SConst(Fraction(5)))))
    assert eval_bounded(l1_space, f, Sampler(l1_space, seed=0), 1000) == \
        HoldsOnSamples(samples_tried=1000)
    a = Sampler(l1_space).draw((("v", "vec"), ("v", "scalar")))
    assert list(a) == ["v"] and isinstance(a["v"], float)
    # a half rebound as a scalar leaves no pair, even if every pair is
    # curated; a half rebound as a vector makes one
    curated = Sampler(l1_space, curated_probability=1.0)
    a = curated.draw((("S.1", "vec"), ("S.2", "vec"), ("S.1", "scalar")))
    assert list(a) == ["S.2", "S.1"] and isinstance(a["S.1"], float)
    a = curated.draw((("S.1", "scalar"), ("S.2", "vec"), ("S.1", "vec")))
    value = a["S.2"][1]
    assert list(a) == ["S.1", "S.2"] and value in (0.0, 1.0, 2.0, 3.0, math.pi)
    assert a["S.1"] == (-value, 0.0)


def test_sentence_a_holds_on_samples(l1):
    from normlogic.logic import mk_A
    from normlogic.reduction import macro_env
    params, space = l1
    sentence = mk_A(macro_env(params))
    sampler = Sampler(space, seed=11,
                      special_vectors=[params.w1, params.w2, params.w3])
    res = eval_bounded(space, sentence, sampler, 3000, tol=1e-6)
    assert isinstance(res, HoldsOnSamples)


# -- differential check against a tree evaluator ------------------------------
#
# The reference below evaluates every subterm afresh, with no memo: each norm
# node calls space.norm.  eval_qf must give the same truth value and raise the
# same exception type on every formula.


def _ref_vec(term, a, dim):
    if isinstance(term, VVar):
        try:
            v = a[term.name]
        except KeyError:
            raise UnboundVariable(term.name) from None
        if isinstance(v, (int, float)):
            raise SortError(f"{term.name!r} holds a scalar")
        t = tuple(float(c) for c in v)
        if len(t) != dim:
            raise SortError(f"{term.name!r} has the wrong dimension")
        return t
    if isinstance(term, VZero):
        return (0.0,) * dim
    if isinstance(term, VAdd):
        l = _ref_vec(term.left, a, dim)
        r = _ref_vec(term.right, a, dim)
        return tuple(x + y for x, y in zip(l, r))
    if isinstance(term, VNeg):
        return tuple(-x for x in _ref_vec(term.arg, a, dim))
    if isinstance(term, VScale):
        c = float(term.coeff)
        return tuple(c * x for x in _ref_vec(term.arg, a, dim))
    raise SortError(f"not a vector term: {term!r}")


def _ref_scalar(term, a, space):
    if isinstance(term, SVar):
        try:
            v = a[term.name]
        except KeyError:
            raise UnboundVariable(term.name) from None
        if not isinstance(v, (int, float)):
            raise SortError(f"{term.name!r} holds a vector")
        return float(v)
    if isinstance(term, SConst):
        return float(term.value)
    if isinstance(term, SNorm):
        return space.norm(_ref_vec(term.arg, a, space.dimension))
    if isinstance(term, SAdd):
        return _ref_scalar(term.left, a, space) + \
            _ref_scalar(term.right, a, space)
    if isinstance(term, SNeg):
        return -_ref_scalar(term.arg, a, space)
    raise SortError(f"not a scalar term: {term!r}")


def _ref_eval(space, f, a, tol):
    if isinstance(f, Eq):
        return abs(_ref_scalar(f.left, a, space)
                   - _ref_scalar(f.right, a, space)) <= tol
    if isinstance(f, Le):
        return _ref_scalar(f.left, a, space) \
            <= _ref_scalar(f.right, a, space) + tol
    if isinstance(f, Lt):
        return _ref_scalar(f.left, a, space) \
            < _ref_scalar(f.right, a, space) - tol
    if isinstance(f, VecEq):
        l = _ref_vec(f.left, a, space.dimension)
        r = _ref_vec(f.right, a, space.dimension)
        return max(abs(x - y) for x, y in zip(l, r)) <= tol
    if isinstance(f, Not):
        return not _ref_eval(space, f.arg, a, tol)
    if isinstance(f, And):
        return all(_ref_eval(space, g, a, tol) for g in f.args)
    if isinstance(f, Or):
        return any(_ref_eval(space, g, a, tol) for g in f.args)
    if isinstance(f, Implies):
        return (not _ref_eval(space, f.antecedent, a, tol)) or \
            _ref_eval(space, f.consequent, a, tol)
    raise SortError(f"unknown formula node: {f!r}")


_COORD = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
                   st.floats(-4.0, 4.0, allow_nan=False))
_COEFF = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2),
                          Fraction(-3), Fraction(2, 3)])


def _vector_pool(data, names):
    """Vector terms over the given variables, among them equal vectors
    written as different terms (commuted sums, +0, --t, 1*t)."""
    pool = [VVar(n) for n in names] + [VZero()]
    for _ in range(data.draw(st.integers(2, 8))):
        t = data.draw(st.sampled_from(pool))
        u = data.draw(st.sampled_from(pool))
        op = data.draw(st.sampled_from(
            ["add", "neg", "scale", "commute", "plus0", "negneg", "one"]))
        pool += {
            "add": lambda: [VAdd(t, u)],
            "neg": lambda: [VNeg(t)],
            "scale": lambda: [VScale(data.draw(_COEFF), t)],
            "commute": lambda: [VAdd(t, u), VAdd(u, t)],
            "plus0": lambda: [VAdd(t, VZero())],
            "negneg": lambda: [VNeg(VNeg(t))],
            "one": lambda: [VScale(Fraction(1), t)],
        }[op]()
    return pool


def _scalar_term(data, pool, scalars, depth):
    kind = data.draw(st.sampled_from(
        ["norm", "norm", "var", "const"] + (["add", "neg"] if depth else [])))
    if kind == "norm":
        return SNorm(data.draw(st.sampled_from(pool)))
    if kind == "var":
        return SVar(data.draw(st.sampled_from(scalars)))
    if kind == "const":
        return SConst(Fraction(data.draw(st.integers(-3, 3))))
    if kind == "add":
        return SAdd(_scalar_term(data, pool, scalars, depth - 1),
                    _scalar_term(data, pool, scalars, depth - 1))
    return SNeg(_scalar_term(data, pool, scalars, depth - 1))


def _edge_atom(data, space, pool, a, tol):
    """An atom on a norm whose two sides differ by tol, give or take 1e-12."""
    t = data.draw(st.sampled_from(pool))
    n = space.norm(_ref_vec(t, a, space.dimension))
    off = data.draw(st.sampled_from([-1e-12, 0.0, 1e-12]))
    kind = data.draw(st.sampled_from(["eq", "le", "lt"]))
    if kind == "eq":
        return Eq(SNorm(t), SConst(Fraction(n + tol + off)))
    if kind == "le":
        return Le(SNorm(t), SConst(Fraction(n - tol + off)))
    return Lt(SNorm(t), SConst(Fraction(n + tol + off)))


def _formula(data, space, pool, scalars, a, tol, depth):
    kind = data.draw(st.sampled_from(
        ["eq", "le", "lt", "veceq", "edge", "edge"]
        + (["not", "and", "or", "implies"] if depth else [])))
    if kind in ("eq", "le", "lt"):
        node = {"eq": Eq, "le": Le, "lt": Lt}[kind]
        return node(_scalar_term(data, pool, scalars, 2),
                    _scalar_term(data, pool, scalars, 2))
    if kind == "veceq":
        return VecEq(data.draw(st.sampled_from(pool)),
                     data.draw(st.sampled_from(pool)))
    if kind == "edge":
        return _edge_atom(data, space, pool, a, tol)
    sub = [_formula(data, space, pool, scalars, a, tol, depth - 1)
           for _ in range(1 if kind == "not" else 2)]
    if kind == "not":
        return Not(sub[0])
    if kind == "implies":
        return Implies(sub[0], sub[1])
    return (And if kind == "and" else Or)(tuple(sub))


def _outcome(fn):
    try:
        return fn()
    except Exception as e:  # the exception type is the outcome compared
        return type(e)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_eval_qf_matches_tree_evaluator(l1_space, data):
    vecs = [f"v{i}" for i in range(data.draw(st.integers(2, 4)))]
    scalars = [f"s{i}" for i in range(data.draw(st.integers(1, 2)))]
    a = {n: (data.draw(_COORD), data.draw(_COORD)) for n in vecs}
    a.update({n: data.draw(_COORD) for n in scalars})
    tol = data.draw(st.sampled_from([1e-6, 1e-9, 1e-10]))
    pool = _vector_pool(data, vecs)
    f = _formula(data, l1_space, pool, scalars, a, tol, 3)
    # then, sometimes, an unbound or wrong-sort variable
    fault = data.draw(st.sampled_from(
        [None, None, None, "unbound", "vec-as-scalar", "scalar-as-vec"]))
    if fault == "unbound":
        del a[data.draw(st.sampled_from(vecs + scalars))]
    elif fault == "vec-as-scalar":
        a[data.draw(st.sampled_from(vecs))] = 1.0
    elif fault == "scalar-as-vec":
        a[data.draw(st.sampled_from(scalars))] = (1.0, 0.0)
    want = _outcome(lambda: _ref_eval(l1_space, f, a, tol))
    assert _outcome(lambda: eval_qf(l1_space, f, a, tol)) == want


# -- the memo of one Evaluation ------------------------------------------------
#
# An Evaluation keeps every node's value for the rest of its life, and a
# formula's truth per tolerance.  Asked again, at another tolerance, or for a
# node that other formulas share, it must answer as the tree evaluator does.


def test_truths_are_kept_per_tolerance(l1_space):
    ev = Evaluation(l1_space, {"a": 1.0, "b": 1.0 + 5e-7})
    atom = Eq(SVar("a"), SVar("b"))
    both = And((atom, Le(SVar("a"), SVar("b"))))
    assert ev.holds(atom, 1e-6) is True
    assert ev.holds(atom, 1e-7) is False
    assert ev.holds(both, 1e-7) is False
    assert ev.holds(both, 1e-6) is True
    assert ev.holds(atom, 1e-6) is True


def _shared_formulas(data, space, pool, scalars, a, tol):
    """Formulas that all reach one scalar term and one subformula, each in
    several places."""
    term = _scalar_term(data, pool, scalars, 2)
    sub = _formula(data, space, pool, scalars, a, tol, 2)
    other = _scalar_term(data, pool, scalars, 1)
    atoms = [Eq(term, other), Le(other, term), Lt(term, SNeg(term)),
             Le(SAdd(term, term), other)]
    pick = st.sampled_from(atoms)
    return [Not(sub), And((data.draw(pick), sub)), Or((sub, data.draw(pick))),
            Implies(sub, data.draw(pick)), Implies(data.draw(pick), sub),
            And((Or((sub, data.draw(pick))), Not(sub), data.draw(pick)))]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_shared_nodes_match_tree_evaluator(l1_space, data):
    vecs = [f"v{i}" for i in range(data.draw(st.integers(2, 3)))]
    scalars = [f"s{i}" for i in range(data.draw(st.integers(1, 2)))]
    a = {n: (data.draw(_COORD), data.draw(_COORD)) for n in vecs}
    a.update({n: data.draw(_COORD) for n in scalars})
    tol = data.draw(st.sampled_from([1e-6, 1e-9, 1e-10]))
    pool = _vector_pool(data, vecs)
    formulas = _shared_formulas(data, l1_space, pool, scalars, a, tol)
    fault = data.draw(st.sampled_from(
        [None, None, "unbound", "vec-as-scalar", "scalar-as-vec"]))
    if fault == "unbound":
        del a[data.draw(st.sampled_from(vecs + scalars))]
    elif fault == "vec-as-scalar":
        a[data.draw(st.sampled_from(vecs))] = 1.0
    elif fault == "scalar-as-vec":
        a[data.draw(st.sampled_from(scalars))] = (1.0, 0.0)
    # one Evaluation answers every formula, in a drawn order, at tol and at
    # tol/10, so later questions meet what earlier ones kept
    ev = Evaluation(l1_space, a)
    order = data.draw(st.permutations(
        [(f, t) for f in formulas for t in (tol, tol / 10.0)]))
    for f, t in order:
        want = _outcome(lambda: _ref_eval(l1_space, f, a, t))
        assert _outcome(lambda: ev.holds(f, t)) == want


def test_unbound_variable_through_shared_node_raises_every_time(l1_space):
    shared = SNorm(VAdd(VVar("v"), VVar("missing")))
    one = SConst(Fraction(1))
    uses = [Le(shared, one), Eq(SAdd(one, shared), one),
            Or((Lt(one, SConst(Fraction(0))), Not(Le(shared, one)))),
            VecEq(VAdd(VVar("v"), VVar("missing")), VVar("v"))]
    ev = Evaluation(l1_space, {"v": (1.0, 0.0)})
    for f in uses + uses:
        with pytest.raises(UnboundVariable):
            ev.holds(f, 1e-6)
        with pytest.raises(UnboundVariable):
            ev.scalar(shared)


# -- the norm memo of a space -------------------------------------------------
#
# Every Evaluation over one space reads and fills that space's norm memo.  A
# memoised norm must be the space's own norm of that vector, bit for bit,
# whichever Evaluation computed it, and the memo must stay within its bound.


def _memo_norm(space, v):
    """||v|| as an Evaluation of its own reads it."""
    return Evaluation(space, {"v": v}).scalar(SNorm(VVar("v")))


def test_memoised_norms_are_the_space_norm(l1_space):
    rng = random.Random(24)
    vs = [(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
          for _ in range(300)]
    vs += [(x * 1e-150, y * 1e150) for x, y in vs[:20]]
    vs += [(0.0, 0.0), (1.0, 0.0), (0.0, -1.0), (-2.5, 0.0)]
    for space in (l1_space, PlaneSpace(l1_space.boundary), EuclideanSpace(2)):
        # the first pass fills the memo, the second reads it
        for _ in range(2):
            for v in vs:
                assert _memo_norm(space, v) == space.norm(v)
        memo = _norm_memo(space)
        assert all(memo[v] == space.norm(v) for v in vs)
    wide = two_sum(l1_space, EuclideanSpace(2))
    for v in vs[:50] + vs[:50]:
        w = v + v[::-1]
        assert _memo_norm(wide, w) == wide.norm(w)


def test_spaces_keep_their_own_norms(l1_space):
    # a memo keyed by the coordinates alone would hand one space's norm to
    # the other
    plane, euclid = PlaneSpace(l1_space.boundary), EuclideanSpace(2)
    v = (3.0, 4.0)
    assert _memo_norm(plane, v) == plane.norm(v) != 5.0
    assert _memo_norm(euclid, v) == euclid.norm(v) == 5.0
    assert _memo_norm(plane, v) == plane.norm(v)
    # an equal space is another space, with its own memo
    assert _norm_memo(PlaneSpace(l1_space.boundary)) is not _norm_memo(plane)


def test_norm_memo_stays_within_its_bound():
    space = EuclideanSpace(2)
    memo = _norm_memo(space)
    for i in range(_NORM_MEMO_BOUND):
        v = (float(i), 1.0)
        assert _memo_norm(space, v) == space.norm(v)
    # full at the bound; the next new vector clears it first
    assert len(memo) == _NORM_MEMO_BOUND
    for i in range(_NORM_MEMO_BOUND, 2 * _NORM_MEMO_BOUND + 7):
        v = (float(i), 1.0)
        assert _memo_norm(space, v) == space.norm(v)
        assert len(memo) <= _NORM_MEMO_BOUND
    assert len(memo) < _NORM_MEMO_BOUND
    assert _memo_norm(space, (0.0, 1.0)) == 1.0


def test_signed_zero_keys_give_the_norm_of_both(l1_space):
    # (-1.0, -0.0) == (-1.0, 0.0), so the two share a memo entry; both
    # uncached norms must be the one it holds, whichever came first
    for make in (lambda: PlaneSpace(l1_space.boundary),
                 lambda: EuclideanSpace(2)):
        for first, second in [((-1.0, -0.0), (-1.0, 0.0)),
                              ((-1.0, 0.0), (-1.0, -0.0))]:
            space = make()
            got = [_memo_norm(space, first), _memo_norm(space, second)]
            assert len(_norm_memo(space)) == 1
            assert got == [space.norm(first)] * 2 == [space.norm(second)] * 2


def test_norm_memo_under_threads():
    # threads that share a space share its memo, clears included; a lost
    # or crossed update must never hand a thread another vector's norm
    space = EuclideanSpace(2)
    bad, done = [], []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(_NORM_MEMO_BOUND // 2):
            v = (float(rng.randrange(2 * _NORM_MEMO_BOUND)), 1.0)
            if _memo_norm(space, v) != space.norm(v):
                bad.append(v)
        done.append(seed)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == list(range(6)) and not bad
    assert len(_norm_memo(space)) <= _NORM_MEMO_BOUND


def test_norm_memo_dies_with_its_space():
    space = EuclideanSpace(2)
    _memo_norm(space, (3.0, 4.0))
    key = id(space)
    assert key in _NORM_MEMOS
    del space
    gc.collect()
    assert key not in _NORM_MEMOS


# -- Sampler stream against the per-draw reference ----------------------------
#
# The reference below is Sampler.draw as it was before draws were planned
# once per prefix: every draw recomputes the pair roots and calls
# random.uniform and random.choice.  The planned draw must produce the same
# assignments, in the same key order, from the same seed.


def _ref_draw(sampler, prefix):
    rng = sampler.rng
    box = sampler.box
    p = sampler.curated_probability
    dim = sampler.space.dimension
    a = {}
    # a name is drawn at its last binding, the one the matrix reads
    prefix = tuple(b for i, b in enumerate(prefix)
                   if all(b[0] != name for name, _ in prefix[i + 1:]))
    names = set(prefix)
    pair_roots = sorted({n[:-2] for n, s in prefix
                         if s == "vec" and n.endswith(".1")
                         and (n[:-2] + ".2", "vec") in names})
    curated_pairs = set()
    for root in pair_roots:
        if rng.random() < p:
            curated_pairs.add(root)
    for name, sort in prefix:
        if name in a:
            continue
        if sort == "scalar":
            a[name] = rng.uniform(-box, box)
            continue
        root = name[:-2] if name.endswith((".1", ".2")) else None
        if root in curated_pairs:
            value = rng.choice((0.0, 1.0, 2.0, 3.0, math.pi))
            a[f"{root}.1"] = (-value, 0.0) + (0.0,) * (dim - 2)
            a[f"{root}.2"] = (0.0, value) + (0.0,) * (dim - 2)
            continue
        if rng.random() < p:
            a[name] = rng.choice(sampler.special_points)
        else:
            a[name] = tuple(rng.uniform(-box, box) for _ in range(dim))
    return a


# scalars, plain vectors, pair halves whose roots sort differently from
# their prefix order, lone halves, and scalars that share a half's name
_PREFIX_ENTRIES = [
    ("s", "scalar"), ("t", "scalar"), ("u", "vec"), ("v", "vec"),
    ("q.1", "vec"), ("q.2", "vec"), ("b.1", "vec"), ("b.2", "vec"),
    ("k.2", "vec"), ("k.1", "vec"), ("a.b.1", "vec"), ("a.b.2", "vec"),
    ("z.1", "vec"), ("z.2", "vec"), ("p10.2", "vec"), ("p10.1", "vec"),
    ("p2.1", "vec"), ("p2.2", "vec"), ("c.d.2", "vec"), ("c.d.1", "vec"),
    ("lone.1", "vec"), ("solo.2", "vec"), ("b.1", "scalar"),
    ("x.1", "scalar"), ("x.2", "vec")]
# a shuffled run of the entries, cut short, with repeated names after it
_PREFIX = st.builds(
    lambda run, cut, repeats: tuple(run[:cut]) + tuple(run[:repeats]),
    st.permutations(_PREFIX_ENTRIES),
    st.integers(1, len(_PREFIX_ENTRIES)), st.integers(0, 6))
_ALL_PAIRS_REVERSED = tuple(sorted(_PREFIX_ENTRIES, reverse=True))


@settings(max_examples=200, deadline=None)
@given(dim=st.sampled_from([2, 3]), seed=st.integers(0, 2 ** 32 - 1),
       box=st.sampled_from([3.0, 0.5, 10.0]),
       probability=st.sampled_from([0.25, 0.5, 0.0, 1.0]),
       specials=st.one_of(
           st.none(),
           st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=3)),
       prefixes=st.lists(_PREFIX, min_size=1, max_size=3),
       order=st.lists(st.integers(0, 2), min_size=1, max_size=12),
       sizes=st.lists(st.sampled_from([1, 7, 256]), min_size=1,
                      max_size=3))
@example(dim=2, seed=0, box=3.0, probability=0.5, specials=None,
         prefixes=[_ALL_PAIRS_REVERSED], order=[0] * 8, sizes=[1, 7, 256])
@example(dim=3, seed=1, box=3.0, probability=0.5, specials=[(0.5, -2.0)],
         prefixes=[_ALL_PAIRS_REVERSED, (("k.2", "vec"), ("s", "scalar"),
                                         ("k.1", "vec"))],
         order=[0, 1], sizes=[256, 7, 1])
def test_sampler_stream_matches_reference(dim, seed, box, probability,
                                          specials, prefixes, order, sizes):
    sampler, reference, blocks, block_reference = (
        Sampler(EuclideanSpace(dim), seed=seed, box=box,
                special_vectors=specials, curated_probability=probability)
        for _ in range(4))
    assert sampler.special_points == reference.special_points
    # draws alternate between prefixes, so a kept plan must follow them
    for k in order:
        prefix = prefixes[k % len(prefixes)]
        got = sampler.draw(prefix)
        want = _ref_draw(reference, prefix)
        assert list(got.items()) == list(want.items())
    assert sampler.rng.getstate() == reference.rng.getstate()
    # a block of n rows is the stream of n draws, and its columns hold what
    # its rows hold, as the draw-only adapter reads them
    for i, n in enumerate(sizes):
        prefix = prefixes[i % len(prefixes)]
        block = blocks.draw_block(prefix, n)
        rows = [block.row(j) for j in range(n)]
        want = [_ref_draw(block_reference, prefix) for _ in range(n)]
        assert [list(a.items()) for a in rows] == \
            [list(a.items()) for a in want]
        adapter = _DrawnRows(want)
        for name, _ in prefix:
            for width in (None, dim):
                got, exp = block.column(name, width), adapter.column(name,
                                                                     width)
                if got is not None:
                    assert got.shape == exp.shape
                    assert got.tobytes() == exp.tobytes()
                else:
                    assert exp is None
    assert blocks.rng.getstate() == block_reference.rng.getstate()


# -- block evaluation against the reference -----------------------------------
#
# eval_bounded evaluates blocks of samples with array norms, which can differ
# from space.norm by an ulp, and hands every row it cannot vouch for to
# eval_qf's Evaluation.  Its verdicts must be eval_qf's, row by row.

_DISAGREEING = {}


def _disagreeing(space, count=8):
    """Vectors whose norm_arr is below their norm, from a fixed stream: on
    them an atom on the norm's tolerance edge can hold by one of the two
    norms and fail by the other."""
    if space not in _DISAGREEING:
        rng = np.random.default_rng(7)
        found = []
        while len(found) < count:
            vs = rng.uniform(-4.0, 4.0, (512, 2)).tolist()
            for v, n in zip(vs, space.norm_arr(np.array(vs)).tolist()):
                if n < space.norm(tuple(v)):
                    found.append(tuple(v))
        _DISAGREEING[space] = found[:count]
    return _DISAGREEING[space]


def _on_edge(data, space, names, a, tol):
    """An atom on the tolerance edge of a variable's norm at row a: at
    space.norm's value, at norm_arr's, or a float between the two."""
    name = data.draw(st.sampled_from(names))
    v = a[name]
    n, n_arr = space.norm(v), float(space.norm_arr(np.array([v]))[0])
    n = data.draw(st.sampled_from([n, math.nextafter(n_arr, n), n_arr]))
    kind = data.draw(st.sampled_from([Lt, Le, Eq]))
    return kind(SNorm(VVar(name)),
                SConst(Fraction(n - tol if kind is Le else n + tol)))


# the block takes each norm in one norm_arr call over the rows that need
# it: once over the drawn rows alone, once with pad copies of them ahead
@pytest.mark.parametrize("pad", [0, 16])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_block_verdicts_match_eval_qf(l1_space, pad, data):
    vecs = [f"v{i}" for i in range(data.draw(st.integers(2, 4)))]
    scalars = [f"s{i}" for i in range(data.draw(st.integers(1, 2)))]
    vector = st.one_of(st.sampled_from(_disagreeing(l1_space)),
                       st.tuples(_COORD, _COORD))
    rows = []
    for _ in range(data.draw(st.integers(1, 6))):
        a = {n: data.draw(vector) for n in vecs}
        a.update({n: data.draw(_COORD) for n in scalars})
        rows.append(a)
    rows = [dict(rows[i % len(rows)]) for i in range(pad)] + rows
    tol = data.draw(st.sampled_from([0.0, 1e-6, 1e-9, 1e-10]))
    pool = _vector_pool(data, vecs)
    # the edge atoms sit on the tolerance edges of one of the rows, and
    # most formulas hinge on one more, on a variable's norm
    edge_row = data.draw(st.sampled_from(rows))
    f = _formula(data, l1_space, pool, scalars, edge_row, tol, 3)
    edge = _on_edge(data, l1_space, vecs, edge_row, tol)
    f = data.draw(st.sampled_from([
        edge, And((edge, f)), Or((edge, f)), Implies(edge, f),
        Implies(f, edge), f]))
    a = data.draw(st.sampled_from(rows))
    fault = data.draw(st.sampled_from(
        [None, None, None, "unbound", "vec-as-scalar", "scalar-as-vec"]))
    if fault == "unbound":
        del a[data.draw(st.sampled_from(vecs + scalars))]
    elif fault == "vec-as-scalar":
        a[data.draw(st.sampled_from(vecs))] = 1.0
    elif fault == "scalar-as-vec":
        a[data.draw(st.sampled_from(scalars))] = (1.0, 0.0)
    want = _outcome(lambda: [eval_qf(l1_space, f, r, tol) for r in rows])
    got = _outcome(lambda: [ok for ok, _, _ in
                            _verdicts(l1_space, f, _DrawnRows(rows), tol)])
    assert got == want


class _Rows:
    """A sampler that hands out the given assignments in order."""

    def __init__(self, rows):
        self.rows = rows
        self.drawn = 0

    def draw(self, prefix):
        a = self.rows[self.drawn]  # IndexError once they run out
        self.drawn += 1
        return a


def test_block_defers_edge_rows_to_the_reference(l1_space):
    v = _disagreeing(l1_space)[0]
    # false by the reference (||v|| < ||v||), true by the array norm
    atom = Lt(SNorm(VVar("v")), SConst(Fraction(l1_space.norm(v))))
    rows = [{"v": (0.0, 0.0)}] * 3 + [{"v": v}]
    assert [ok for ok, _, _ in _verdicts(l1_space, atom, _DrawnRows(rows),
                                         0.0)] == [True] * 3 + [False]
    res = eval_bounded(l1_space, Forall((("v", "vec"),), atom), _Rows(rows),
                       len(rows), tol=0.0)
    assert isinstance(res, Counterexample) and res.assignment is rows[-1]


def _sequential(space, f, sampler, budget, tol=1e-6):
    """eval_bounded as it was before blocks, one sample at a time, with the
    antecedent-depth histogram counted by eval_qf."""
    if free_vars(f):
        raise NotClosed("bounded evaluation needs a closed sentence")
    prefix, matrix = strip_universal_prefix(f)
    conjuncts = None
    if isinstance(matrix, Implies):
        ante = matrix.antecedent
        conjuncts = ante.args if isinstance(ante, And) else (ante,)
    depths = [] if conjuncts is None else [0] * (len(conjuncts) + 1)
    for _ in range(budget):
        a = sampler.draw(prefix)
        if not eval_qf(space, matrix, a, tol) and \
                not eval_qf(space, matrix, a, tol / 10.0):
            return Counterexample(assignment=a)
        if conjuncts is not None:
            depth = 0
            while depth < len(conjuncts) and \
                    eval_qf(space, conjuncts[depth], a, tol):
                depth += 1
            depths[depth] += 1
    return HoldsOnSamples(samples_tried=budget, ante_depth=tuple(depths))


# for all v, s: ||v|| <= 2 and s > 0  =>  ||v|| <= 1
_V, _S = VVar("v"), SVar("s")
_CAPPED = Forall((("v", "vec"), ("s", "scalar")), Implies(
    And((Le(SNorm(_V), SConst(Fraction(2))), Lt(SConst(Fraction(0)), _S))),
    Le(SNorm(_V), SConst(Fraction(1)))))
# rows that hold, stopping at conjuncts 0, 1 and 2, in turn
_HOLDS = ({"v": (3.0, 0.0), "s": 1.0}, {"v": (0.5, 0.0), "s": -1.0},
          {"v": (0.0, 0.5), "s": 1.0})
_FALSE = {"v": (1.5, 0.0), "s": 1.0}
_UNREACHED = {"v": (0.0, -3.0)}  # no s, but conjunct 0 is false
_UNBOUND = {"v": (0.5, 0.5)}     # no s, and conjunct 1 needs it
_SCALAR_AS_VEC = {"v": (0.5, 0.5), "s": (1.0, 0.0)}


def _stream(n, at=()):
    """n rows cycling through _HOLDS, with the rows at the indices of `at`
    replaced by its values."""
    rows = [dict(_HOLDS[i % 3]) for i in range(n)]
    for i, a in dict(at).items():
        rows[i] = dict(a)
    return rows


@pytest.mark.parametrize("rows, budget", [
    (_stream(10, {0: _FALSE}), 10),                     # the first row
    (_stream(_BLOCK + 3, {_BLOCK - 1: _FALSE}), _BLOCK + 3),
    (_stream(_BLOCK + 3, {_BLOCK: _FALSE}), _BLOCK + 3),
    (_stream(2 * _BLOCK + 37), 2 * _BLOCK + 37),        # holds, odd budget
    (_stream(2 * _BLOCK + 37), 2 * _BLOCK + 30),        # budget < stream
    (_stream(300, {5: _UNREACHED, 290: _UNREACHED}), 300),
    (_stream(300, {5: _UNREACHED, 260: _UNBOUND}), 300),
    (_stream(300, {3: _UNREACHED, 9: _UNBOUND}), 300),
    (_stream(300, {30: _FALSE, 40: _SCALAR_AS_VEC}), 300),
    (_stream(300, {20: _SCALAR_AS_VEC, 30: _FALSE}), 300),
    (_stream(300, {290: _FALSE}), 400),  # the sampler runs dry after it
    (_stream(300), 400),                 # and with nothing found
    (_stream(5), 0),
])
def test_eval_bounded_matches_sequential(rows, budget):
    space = EuclideanSpace(2)
    want = _outcome(lambda: _sequential(space, _CAPPED, _Rows(rows), budget))
    got = _outcome(lambda: eval_bounded(space, _CAPPED, _Rows(rows), budget))
    assert got == want
    if isinstance(got, Counterexample):
        assert got.assignment is want.assignment  # the drawn dict itself


def test_eval_bounded_histogram_counts_every_sample():
    res = eval_bounded(EuclideanSpace(2), _CAPPED, _Rows(_stream(301)), 301)
    assert res == HoldsOnSamples(301, ante_depth=(101, 100, 100))


class _DrawOnly:
    """A stock Sampler seen through draw alone, as perfbench's counting
    proxy sees it: eval_bounded reads its rows through the adapter."""

    def __init__(self, inner):
        self.inner = inner

    def draw(self, prefix):
        return self.inner.draw(prefix)


@pytest.mark.parametrize("make", ["B", "A", "pSD"])
def test_eval_bounded_matches_sequential_on_sentences(l1, make):
    from normlogic.reduction import compile_formula, macro_env, parse_arith
    params, space = l1
    f = {"B": lambda: compile_formula(parse_arith("x1 = 2"), 2, params).b,
         "A": lambda: mk_A(macro_env(params)),
         "pSD": lambda: Forall((("v", "vec"), ("w", "vec")),
                               mk_pSD(VVar("v"), VVar("w")))}[make]()
    markers = [params.w1, params.w2, params.w3]
    # the stock sampler draws blocks; seen through draw alone, its rows go
    # through the adapter
    results = [run(space, f, Sampler(space, seed=5, special_vectors=markers,
                                     curated_probability=0.9), 600)
               for run in (_sequential, eval_bounded,
                           lambda space, f, sampler, budget: eval_bounded(
                               space, f, _DrawOnly(sampler), budget))]
    assert results[0] == results[1] == results[2]


# X.2 before X.1, so a curated pair inserts X.1 before X.2; a plain vector
# and a scalar around them
_BLOCK_PREFIX = (("X.2", "vec"), ("s", "scalar"), ("X.1", "vec"),
                 ("v", "vec"))


def _refuted_at(dim, row, curated):
    """A seed whose stock stream curates the pair X at `row` (or not), and
    a sentence over _BLOCK_PREFIX that only the sample at `row` falsifies:
    its s must differ from the value s takes there, or X.1 + X.2 must have
    a negative norm, or equal v."""
    for seed in range(100):
        sampler = Sampler(EuclideanSpace(dim), seed=seed,
                          curated_probability=0.5)
        a = [sampler.draw(_BLOCK_PREFIX) for _ in range(row + 1)][-1]
        if (list(a)[0] == "X.1") == curated:
            break
    x1, x2 = VVar("X.1"), VVar("X.2")
    return seed, Forall(_BLOCK_PREFIX, Or((
        Not(Eq(SVar("s"), SConst(Fraction(a["s"])))),
        Le(SNorm(VAdd(x1, x2)), SConst(Fraction(-1))),
        VecEq(VVar("v"), VAdd(x1, x2)))))


@pytest.mark.parametrize("dim, curated", [(2, False), (2, True), (3, True)])
@pytest.mark.parametrize("row", [0, _BLOCK - 1, _BLOCK])
def test_eval_bounded_block_draw_matches_sequential(dim, curated, row):
    space = EuclideanSpace(dim)
    seed, f = _refuted_at(dim, row, curated)

    def stock():
        return Sampler(space, seed=seed, curated_probability=0.5)

    want = _sequential(space, f, stock(), 3 * _BLOCK)
    assert isinstance(want, Counterexample)
    bare, inner = stock(), stock()
    got = eval_bounded(space, f, bare, 3 * _BLOCK)
    wrapped = eval_bounded(space, f, _DrawOnly(inner), 3 * _BLOCK)
    for res in (got, wrapped):
        assert res == want
        assert list(res.assignment.items()) == \
            list(want.assignment.items())
    # both drew to the end of the counterexample's block
    assert bare.rng.getstate() == inner.rng.getstate()
    # a curated pair's halves come .1 first, though X.2 is bound first
    assert list(want.assignment) == (["X.1", "X.2", "s", "v"] if curated
                                     else ["X.2", "s", "X.1", "v"])
