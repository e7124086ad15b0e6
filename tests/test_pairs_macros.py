"""Pair layer and macro templates, checked against independent geometric
oracles."""

import math
import random

import pytest

from normlogic.geometry import same_direction
from normlogic.logic import (And, Eq, Forall, Not, Or, PairExpr, SAdd,
                             SNorm, VAdd, VVar, check_sorts, eval_qf,
                             free_vars, mk_Def, mk_pG, mk_pMult, mk_pNNMult,
                             mk_pOK, mk_pPar, mk_pRotund, mk_pSD, mk_pair_ge,
                             mk_pair_gt, numeral, pair_var)
from normlogic.logic.macros import MacroEnv
from normlogic.reduction import macro_env


def _canon(params):
    return {
        "e1": (1.0, 0.0), "e2": (0.0, 1.0),
        "w1": params.w1.as_tuple(), "w2": params.w2.as_tuple(),
        "w3": params.w3.as_tuple(),
    }


def _bind(a, name, x):
    a[f"{name}.1"] = (-x, 0.0)
    a[f"{name}.2"] = (0.0, x)


def test_psd_template_shape():
    f = mk_pSD(VVar("x"), VVar("x"))
    assert f == Eq(SNorm(VAdd(VVar("x"), VVar("x"))),
                   SAdd(SNorm(VVar("x")), SNorm(VVar("x"))))


def test_psd_evaluation(l1_space):
    f = mk_pSD(VVar("v"), VVar("w"))
    assert eval_qf(l1_space, f, {"v": (0, 1), "w": (0, 1)}, 1e-9)
    assert not eval_qf(l1_space, f, {"v": (0, 1), "w": (0, -1)}, 1e-9)


def test_ppar_template():
    f = mk_pPar(VVar("v"), VVar("w"))
    assert isinstance(f, And) and len(f.args) == 3
    assert isinstance(f.args[0], Not) and isinstance(f.args[1], Not)
    assert isinstance(f.args[2], Or) and len(f.args[2].args) == 2


def test_protund_binds_fresh_probe():
    f = mk_pRotund(VVar("u"))
    assert isinstance(f, Forall)
    (name, sort), = f.vars
    assert sort == "vec" and name != "u"
    assert free_vars(f) == {"u": "vec"}


def test_pok_on_valid_and_invalid_pairs(l1):
    params, space = l1
    a = _canon(params)
    ok = mk_pOK(PairExpr(VVar("S.1"), VVar("S.2")))
    for value in (0.0, 1.0, 2.5, -1.5):
        _bind(a, "S", value)
        assert eval_qf(space, ok, a, 1e-6)
    a["S.1"], a["S.2"] = (-2.0, 0.0), (0.0, 3.0)  # mismatched magnitudes
    assert not eval_qf(space, ok, a, 1e-6)
    a["S.1"], a["S.2"] = (-2.0, 0.0), (0.0, -2.0)  # same side twice
    assert not eval_qf(space, ok, a, 1e-6)


def test_pair_comparisons(l1):
    params, space = l1
    s, t = pair_var("S"), pair_var("T")
    ge = mk_pair_ge(s, t)
    gt = mk_pair_gt(s, t)
    a = _canon(params)
    for sv, tv, want_ge, want_gt in ((2.0, 1.0, True, True),
                                     (1.0, 1.0, True, False),
                                     (0.5, 1.0, False, False)):
        _bind(a, "S", sv)
        _bind(a, "T", tv)
        assert eval_qf(space, ge, a, 1e-9) is want_ge
        assert eval_qf(space, gt, a, 1e-9) is want_gt


def test_numerals_satisfy_pok_and_nonneg(l1):
    params, space = l1
    a = _canon(params)
    zero = numeral(0)
    for i in range(11):
        n = numeral(i)
        assert eval_qf(space, mk_pOK(n), a, 1e-6)
        assert eval_qf(space, mk_pair_ge(n, zero), a, 1e-6)


def test_numeral_rejects_negative():
    with pytest.raises(ValueError):
        numeral(-1)


# -- expansion soundness against independent geometric oracles ------------------


def _random_pair_value(rng):
    """Either a genuine representation pair or a broken one."""
    x = rng.uniform(-3.0, 3.0)
    kind = rng.randrange(3)
    if kind == 0:
        return x, ((-x, 0.0), (0.0, x)), True
    if kind == 1:  # magnitudes disagree
        y = x + rng.choice((-1, 1)) * rng.uniform(0.3, 1.0)
        return x, ((-x, 0.0), (0.0, y)), False
    # components on the same side
    sgn = 1.0 if x >= 0 else -1.0
    mag = abs(x) + 0.5
    return x, ((sgn * mag, 0.0), (0.0, sgn * mag)), False


def _pok_oracle(space, first, second, tol=1e-6):
    e1, e2 = (1.0, 0.0), (0.0, 1.0)
    neg = lambda v: (-v[0], -v[1])
    if abs(space.norm(first) - space.norm(second)) > tol:
        return False
    forward = same_direction(space, first, neg(e1), tol) and \
        same_direction(space, second, e2, tol)
    backward = same_direction(space, first, e1, tol) and \
        same_direction(space, second, neg(e2), tol)
    return forward or backward


def test_pok_expansion_matches_geometric_oracle(l1):
    params, space = l1
    rng = random.Random(31)
    ok = mk_pOK(pair_var("S"))
    for _ in range(100):
        _, (p1, p2), _ = _random_pair_value(rng)
        a = _canon(params)
        a["S.1"], a["S.2"] = p1, p2
        assert eval_qf(space, ok, a, 1e-6) == _pok_oracle(space, p1, p2)


def test_psd_expansion_matches_geometry(l1):
    params, space = l1
    rng = random.Random(32)
    f = mk_pSD(VVar("v"), VVar("w"))
    for _ in range(100):
        v = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        w = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert eval_qf(space, f, {"v": v, "w": w}, 1e-6) == \
            same_direction(space, v, w, 1e-6)


def test_pnnmult_matches_similar_triangles_oracle(l1):
    """The gadget agrees with the direct product check on clean samples:
    operands on a 0.25 grid, product either exact or off by at least 0.01."""
    params, space = l1
    rng = random.Random(33)
    gadget = mk_pNNMult(pair_var("S"), pair_var("T"), pair_var("U"))
    for _ in range(100):
        s = 0.25 * rng.randrange(0, 13)
        t = 0.25 * rng.randrange(0, 13)
        if rng.random() < 0.5:
            u, want = s * t, True
        else:
            u = s * t + rng.choice((-1, 1)) * rng.uniform(0.01, 0.5)
            want = False
        a = _canon(params)
        _bind(a, "S", s)
        _bind(a, "T", t)
        _bind(a, "U", u)
        got = eval_qf(space, gadget, a, 1e-10)
        oracle = (s >= 0 and t >= 0 and abs(u - s * t) <= 1e-10)
        assert got == oracle == want


def test_pmult_sign_cases(l1):
    params, space = l1
    gadget = mk_pMult(pair_var("S"), pair_var("T"), pair_var("U"))
    assert isinstance(gadget, Or) and len(gadget.args) == 4
    a = _canon(params)
    for s, t in ((2.0, 3.0), (-2.0, 3.0), (2.0, -3.0), (-2.0, -3.0)):
        _bind(a, "S", s)
        _bind(a, "T", t)
        _bind(a, "U", s * t)
        assert eval_qf(space, gadget, a, 1e-10)
        _bind(a, "U", s * t + 0.1)
        assert not eval_qf(space, gadget, a, 1e-10)


def test_def_holds_at_canonical_instances(l1):
    params, space = l1
    f = mk_Def()
    a = _canon(params)
    # axis-parallel instances with x nonpositive, y nonnegative
    a.update({"x": (-0.3, 0.0), "y": (0.0, 0.6), "z": (-0.3, 0.6)})
    assert eval_qf(space, f, a, 1e-6)
    # violating z (same norms forced but unequal vector) must not arise on
    # rotund combinations; a z of different norm leaves Def vacuously true
    a.update({"z": (1.0, 1.0)})
    assert eval_qf(space, f, a, 1e-6)


def test_pg_accepts_curve_values_and_rejects_offsets(l1):
    import math
    params, space = l1
    m = params.m
    gadget = mk_pG(pair_var("S"), pair_var("T"), pair_var("U1"))
    for i in range(20):
        s = 0.1 + 0.1 * i
        t_curve = 2 * s + s * s + math.sin(s) / m
        for off, want in ((0.0, True), (1e-3, False), (-1e-3, False)):
            t = t_curve + off
            a = _canon(params)
            _bind(a, "S", s)
            _bind(a, "T", t)
            _bind(a, "U1", (1 + s) * t)
            assert eval_qf(space, gadget, a, 1e-6) is want, (s, off)


def test_pw_rejects_single_coordinate_nudges(l1):
    from normlogic.logic import mk_pW
    params, space = l1
    env = MacroEnv(q=params.q, r=params.r, m=params.m)
    pw = mk_pW(VVar("e1"), VVar("e2"), VVar("w1"), VVar("w2"), VVar("w3"),
               env)
    canon = _canon(params)
    assert eval_qf(space, pw, canon, 1e-6)
    for key in ("w3", "w1", "e1"):
        nudged = dict(canon)
        x, y = nudged[key]
        nudged[key] = (x + 1e-3, y)
        assert not eval_qf(space, pw, nudged, 1e-6)


def test_eval_over_two_sum_space(l1):
    from normlogic.geometry import EuclideanSpace, two_sum
    params, space = l1
    w = two_sum(space, EuclideanSpace(1))
    f = mk_pSD(VVar("v"), VVar("w"))
    v3 = (0.0, 1.0, 0.0)
    assert eval_qf(w, f, {"v": v3, "w": v3}, 1e-9)
    assert not eval_qf(w, f, {"v": v3, "w": (0.0, 0.0, 1.0)}, 1e-9)


def test_macros_build_core_syntax(l1_params):
    env = macro_env(l1_params)
    from normlogic.logic import mk_pSIN
    f = mk_pSIN(pair_var("S"), pair_var("T"), pair_var("U1"), pair_var("U2"),
                env)
    check_sorts(f)


def test_check_sorts_rejects_foreign_nodes():
    from normlogic.errors import SortError
    with pytest.raises(SortError):
        check_sorts("not a formula")
    with pytest.raises(SortError):
        check_sorts(Not(pair_var("S")))
