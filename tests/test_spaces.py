"""Norm axioms, the comparison-point identity, and 2-sum behaviour."""

import math
import random

import numpy as np
import pytest

from normlogic.errors import DomainError, ZeroVector
from normlogic.geometry import (EuclideanSpace, Vec2, aux_a, norm,
                                same_direction, two_sum)


def _random_vec(rng, lo=-3.0, hi=3.0):
    return Vec2(rng.uniform(lo, hi), rng.uniform(lo, hi))


def test_norm_of_zero(l1_space):
    assert norm(l1_space, Vec2(0.0, 0.0)) == 0.0
    assert norm(EuclideanSpace(3), (0.0, 0.0, 0.0)) == 0.0


def test_vec2_rejects_non_finite():
    from normlogic.errors import DomainError
    with pytest.raises(DomainError):
        Vec2(float("nan"), 0.0)
    with pytest.raises(DomainError):
        Vec2(0.0, float("inf"))


def test_homogeneity(l1_space):
    rng = random.Random(7)
    for _ in range(1000):
        v = _random_vec(rng)
        lam = rng.uniform(-5.0, 5.0)
        nv = l1_space.norm(v)
        assert abs(l1_space.norm(v.scale(lam)) - abs(lam) * nv) \
            <= 1e-9 * (1.0 + nv)


def test_triangle_inequality(l1_space):
    rng = random.Random(8)
    for _ in range(1000):
        v, w = _random_vec(rng), _random_vec(rng)
        assert l1_space.norm(v + w) <= l1_space.norm(v) + l1_space.norm(w) + 1e-9


def test_positive_definite(l1_space):
    rng = random.Random(9)
    for _ in range(200):
        v = _random_vec(rng)
        if v.hypot() > 1e-12:
            assert l1_space.norm(v) > 0.0


def test_norm_arr_matches_scalar(l1_space):
    rng = random.Random(10)
    vs = np.array([[rng.uniform(-2, 2), rng.uniform(-2, 2)]
                   for _ in range(500)])
    batch = l1_space.norm_arr(vs)
    for row, n in zip(vs, batch):
        assert n == pytest.approx(l1_space.norm(Vec2(*row)), abs=1e-12)


def test_aux_a_same_ray_is_identity(l1_space):
    v = Vec2(0.3, -1.2)
    a = aux_a(l1_space, v, v)
    assert (a - v).hypot() <= 1e-12
    a2 = aux_a(l1_space, v, v.scale(2.0))
    assert (a2 - v).hypot() <= 1e-12


def test_aux_a_norm_identity(l1_space):
    rng = random.Random(11)
    for _ in range(300):
        v, w = _random_vec(rng), _random_vec(rng)
        if v.hypot() < 1e-6 or w.hypot() < 1e-6:
            continue
        nv, nw = l1_space.norm(v), l1_space.norm(w)
        a = aux_a(l1_space, v, w)
        expected = nv * l1_space.norm(v + w) / (nv + nw)
        assert l1_space.norm(a) == pytest.approx(expected, abs=1e-9)
        assert l1_space.norm(a) <= nv + 1e-9


def test_aux_a_zero_vector(l1_space):
    with pytest.raises(ZeroVector):
        aux_a(l1_space, Vec2(0.0, 0.0), Vec2(1.0, 0.0))


def test_same_direction_basics(l1_space):
    v = Vec2(0.4, 1.1)
    assert same_direction(l1_space, v, v, 1e-9)
    assert same_direction(l1_space, v, v.scale(3.5), 1e-9)
    e2 = Vec2(0.0, 1.0)
    assert not same_direction(l1_space, e2, -e2, 1e-9)


def test_same_direction_on_maximal_segment(l1):
    # two interior points of [w1, w3], translated to rays from the origin,
    # witness additivity without being parallel
    params, space = l1
    p = params.w1.scale(0.7) + params.w3.scale(0.3)
    q = params.w1.scale(0.2) + params.w3.scale(0.8)
    assert abs(space.norm(p) - 1.0) < 1e-12
    assert abs(space.norm(q) - 1.0) < 1e-12
    assert same_direction(space, p, q, 1e-9)
    assert p.cross(q) != 0.0  # genuinely not parallel


def test_two_sum_norms(l1):
    params, space = l1
    w = two_sum(space, EuclideanSpace(1))
    assert w.dimension == 3
    w3 = params.w3
    assert w.norm((w3.x, w3.y, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert w.norm((0.0, 0.0, 2.5)) == pytest.approx(2.5, abs=1e-15)
    rng = random.Random(12)
    for _ in range(200):
        v = _random_vec(rng)
        t = rng.uniform(-2, 2)
        expect = math.hypot(space.norm(v), abs(t))
        assert w.norm((v.x, v.y, t)) == pytest.approx(expect, abs=1e-12)


def test_two_sum_nested(l1_space):
    w = two_sum(l1_space, EuclideanSpace(2))
    assert w.dimension == 4
    assert w.norm((0.0, 1.0, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)


def _ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b), 1e-300))


@pytest.mark.parametrize("parts", ["plane+line", "plane+plane", "euclid2+3"])
def test_two_sum_norm_arr_matches_norm(l1_space, parts):
    left, right = {"plane+line": (l1_space, EuclideanSpace(1)),
                   "plane+plane": (l1_space, l1_space),
                   "euclid2+3": (EuclideanSpace(2), EuclideanSpace(3))}[parts]
    w = two_sum(left, right)
    k = left.dimension
    rng = np.random.default_rng(14)
    vs = rng.uniform(-3.0, 3.0, (600, w.dimension))
    vs[:100, :k] = 0.0    # a zero left half
    vs[100:200, k:] = 0.0  # a zero right half
    vs[200] = 0.0
    batch = w.norm_arr(vs)
    assert batch.shape == (600,)
    for row, n in zip(vs, batch):
        assert _ulps(n, w.norm(tuple(row))) <= 4
    assert batch[200] == 0.0


@pytest.mark.parametrize("parts", ["plane", "plane+plane"])
def test_norm_arr_rejects_nan_as_norm_does(l1_space, parts):
    space = l1_space if parts == "plane" else two_sum(l1_space, l1_space)
    n = space.dimension
    for i in range(n):
        v = [0.5] * n
        v[i] = float("nan")
        with pytest.raises(DomainError):
            space.norm(tuple(v))
        with pytest.raises(DomainError):
            space.norm_arr(np.array([v]))
        # one NaN row spoils a batch of finite ones
        with pytest.raises(DomainError):
            space.norm_arr(np.array([[0.0] * n, v, [0.5] * n]))
    assert space.norm_arr(np.zeros((3, n))).tolist() == [0.0, 0.0, 0.0]
    assert space.norm((0.0,) * n) == 0.0


@pytest.mark.parametrize("parts", ["plane", "euclid2", "line+line"])
def test_vec2_and_tuple_have_the_same_norm(l1_space, parts):
    space = {"plane": l1_space, "euclid2": EuclideanSpace(2),
             "line+line": two_sum(EuclideanSpace(1), EuclideanSpace(1))}[parts]
    rng = np.random.default_rng(15)
    for x, y in rng.uniform(-3.0, 3.0, (2000, 2)).tolist():
        assert norm(space, Vec2(x, y)) == norm(space, (x, y))


def test_euclidean_plane_norm_is_norm_arr_row_for_row():
    space = EuclideanSpace(2)
    rng = np.random.default_rng(16)
    vs = rng.uniform(-3.0, 3.0, (5000, 2))
    vs[:1000] *= rng.uniform(1e-150, 1e150, (1000, 1))
    assert space.norm_arr(vs).tolist() == [space.norm(v) for v in vs.tolist()]


@pytest.mark.parametrize("dim, given", [(2, 3), (3, 2)])
def test_euclidean_norm_rejects_the_wrong_dimension(dim, given):
    space = EuclideanSpace(dim)
    v = (3.0, 4.0, 12.0)
    with pytest.raises(DomainError):
        space.norm(v[:given])
    with pytest.raises(DomainError):
        space.norm_arr(np.array([v[:given]] * 4))
    # the right dimension still gives the norm
    assert space.norm(v[:dim]) == space.norm_arr(np.array([v[:dim]]))[0] \
        == {2: 5.0, 3: 13.0}[dim]


@pytest.mark.parametrize("given", [1, 3])
def test_plane_norm_rejects_the_wrong_dimension(l1_space, given):
    v = (3.0, 4.0, 12.0)[:given]
    with pytest.raises(DomainError):
        l1_space.norm(v)
    with pytest.raises(DomainError):
        l1_space.norm_arr(np.array([v] * 4))
    with pytest.raises(DomainError):
        l1_space.norm_arr(np.array(v))
    # a 2-sum of two planes has dimension 4
    wide = two_sum(l1_space, l1_space)
    with pytest.raises(DomainError):
        wide.norm_arr(np.ones((2, 4 + given - 2)))
    # the right dimension still gives the norm
    assert l1_space.norm((3.0, 4.0)) == \
        l1_space.norm_arr(np.array([(3.0, 4.0)]))[0] > 5.0
    assert wide.norm_arr(np.ones((2, 4))).tolist() == \
        [wide.norm((1.0,) * 4)] * 2
