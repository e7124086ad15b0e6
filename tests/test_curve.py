"""Curve function tests: closed forms against independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normlogic.errors import DomainError
from normlogic.geometry import (concavity_gate, g_eval, gamma_dd, gamma_eval,
                                l0_norm, smallest_concave_m)
from normlogic.geometry.curve import (graph_x_by_table, graph_x_for_angle,
                                      graph_x_for_angle_arr, graph_x_for_slope)
from normlogic.geometry.vec import Vec2


def test_g_at_zero():
    assert g_eval(0.0, 1) == 0.0
    assert g_eval(0.0, 7) == 0.0


@pytest.mark.parametrize("m", [1, 2, 5])
def test_g_at_one(m):
    assert g_eval(1.0, m) == pytest.approx(3.0 + math.sin(1.0) / m, abs=1e-15)


@pytest.mark.parametrize("m", [1, 3])
def test_g_at_pi(m):
    # sin(pi) vanishes
    assert g_eval(math.pi, m) == pytest.approx(2 * math.pi + math.pi ** 2,
                                               abs=1e-14)


def test_gamma_near_minus_one_tends_to_zero():
    assert gamma_eval(-1 + 1e-9, 1) < 1e-8


def test_gamma_at_minus_half():
    # s = 1 there
    for m in (1, 4):
        g1 = 3.0 + math.sin(1.0) / m
        assert gamma_eval(-0.5, m) == pytest.approx(g1 / (1 + g1), abs=1e-15)


def test_gamma_near_zero_tends_to_one():
    assert abs(gamma_eval(-1e-6, 1) - 1.0) < 1e-3


def test_gamma_domain_errors():
    for x in (-1.0, 0.0, 0.5, -2.0):
        with pytest.raises(DomainError):
            gamma_eval(x, 1)
        with pytest.raises(DomainError):
            gamma_dd(x, 1)


def _fd_second(f, x, h=1e-5):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


@pytest.mark.parametrize("x", [-0.9, -0.5, -0.1])
def test_gamma_dd_matches_finite_differences(x):
    m = 1
    closed = gamma_dd(x, m)
    fd = _fd_second(lambda t: gamma_eval(t, m), x)
    assert closed < 0.0
    assert abs(closed - fd) <= 1e-4 * abs(closed)


def test_concavity_gate_dense_grid():
    m = smallest_concave_m()
    assert concavity_gate(m, grid_points=10_000)
    xs = np.linspace(-0.999, -0.001, 10_000)
    vals = np.array([gamma_dd(float(x), m) for x in xs[::100]])
    assert np.all(vals < 0.0)


def test_l0_norm_on_curve_is_one():
    m = 1
    for x0 in (-0.8, -0.5, -0.2):
        p = Vec2(x0, gamma_eval(x0, m))
        assert l0_norm(p, m) == pytest.approx(1.0, abs=1e-12)
        assert l0_norm(p.scale(2.0), m) == pytest.approx(2.0, abs=1e-12)
        # antipode, in the SE quadrant
        assert l0_norm(-p, m) == pytest.approx(1.0, abs=1e-12)


def test_l0_norm_slope_match_oracle():
    # independent bisection on gamma(x) + x = 0 for v = (-1, 1)
    m = 1
    lo, hi = -1.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gamma_eval(mid, m) + mid < 0.0:
            lo = mid
        else:
            hi = mid
    x0 = 0.5 * (lo + hi)
    expected = -1.0 / x0
    assert l0_norm(Vec2(-1.0, 1.0), m) == pytest.approx(expected, rel=1e-12)
    assert expected > 1.0  # the diagonal is longer than 1 in the base norm


def test_l0_norm_domain_errors():
    for v in (Vec2(0.0, 0.0), Vec2(1.0, 1.0), Vec2(-1.0, -1.0),
              Vec2(1.0, 0.0), Vec2(0.0, 1.0)):
        with pytest.raises(DomainError):
            l0_norm(v, 1)


def test_graph_x_for_slope_monotone():
    m = 1
    xs = [graph_x_for_slope(s, m) for s in (-0.1, -1.0, -10.0)]
    assert xs[0] < xs[1] < xs[2]  # steeper slope -> closer to 0


def _fixed_80_step_bisection(below):
    """Oracle: the fixed 80-halving loop on (-1, 0) that the early-stopping
    solver replaced; below(x) is True on the -1 side of the root."""
    lo, hi = -1.0, 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid <= -1.0 or mid >= 0.0:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_FIRST_ANGLE = math.nextafter(math.pi / 2, math.pi)
_LAST_ANGLE = math.nextafter(math.pi, 0.0)


@settings(max_examples=400, deadline=None)
@given(theta=st.floats(min_value=math.pi / 2, max_value=math.pi,
                       exclude_min=True, exclude_max=True),
       m=st.integers(min_value=1, max_value=5))
@example(theta=_FIRST_ANGLE, m=1)
@example(theta=_LAST_ANGLE, m=1)
def test_graph_x_for_angle_bit_identical_to_fixed_loop(theta, m):
    c, s = math.cos(theta), math.sin(theta)
    expected = _fixed_80_step_bisection(
        lambda x: gamma_eval(x, m) * c - x * s > 0.0)
    assert graph_x_for_angle(theta, m) == expected


@settings(max_examples=400, deadline=None)
@given(slope=st.floats(min_value=-1e12, max_value=-1e-12),
       m=st.integers(min_value=1, max_value=5))
@example(slope=-1e12, m=1)
@example(slope=-1e-12, m=1)
def test_graph_x_for_slope_bit_identical_to_fixed_loop(slope, m):
    expected = _fixed_80_step_bisection(
        lambda x: gamma_eval(x, m) - slope * x < 0.0)
    assert graph_x_for_slope(slope, m) == expected


def _mp_graph_x_for_angle(theta, m):
    """Oracle: 50-digit bisection for the root of
    gamma(x) cos(theta) - x sin(theta) on (-1, 0), theta taken exactly."""
    with mpmath.workdps(50):
        t = mpmath.mpf(theta)
        c, s = mpmath.cos(t), mpmath.sin(t)
        lo, hi = mpmath.mpf(-1), mpmath.mpf(0)
        while hi - lo > abs(hi) * mpmath.mpf(10) ** -30:
            mid = (lo + hi) / 2
            sv = (mid + 1) / (-mid)
            g = 2 * sv + sv * sv + mpmath.sin(sv) / m
            if g / (1 + g) * c - mid * s > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def _accuracy_angles():
    half = math.pi / 2
    offsets = np.logspace(-15.0, -1.0, 60)
    inner = np.linspace(half, math.pi, 82)[1:-1]
    thetas = np.concatenate(([_FIRST_ANGLE, _LAST_ANGLE], half + offsets,
                             math.pi - offsets, inner))
    assert np.all((thetas > half) & (thetas < math.pi))
    return thetas


def _by_table_each(thetas, m):
    return [graph_x_by_table(float(t), m) for t in thetas]


# The array cases keep their ids ("1", "3", "5"); the scalar kernel's cases
# run the same angles against the same oracle.
@pytest.mark.parametrize(
    "kernel, m",
    [(graph_x_for_angle_arr, m) for m in (1, 3, 5)]
    + [(_by_table_each, m) for m in (1, 3, 5)],
    ids=["1", "3", "5", "scalar-1", "scalar-3", "scalar-5"])
def test_graph_x_for_angle_arr_within_4_ulp_of_mpmath(kernel, m):
    thetas = _accuracy_angles()
    assert len(thetas) >= 200
    xs = kernel(thetas, m)
    for theta, x in zip(thetas, xs):
        exact = _mp_graph_x_for_angle(float(theta), m)
        ulp = float(np.spacing(abs(float(exact))))
        err = abs(mpmath.mpf(float(x)) - exact)
        assert err <= 4 * ulp, (theta, float(x), float(exact))
