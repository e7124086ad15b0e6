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
from normlogic.geometry.curve import graph_x_for_angle, graph_x_for_angle_arr
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
    assert concavity_gate(m)
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


@settings(max_examples=300, deadline=None)
@given(slope=st.floats(min_value=-1e12, max_value=-1e-12),
       scale=st.floats(min_value=1e-3, max_value=1e3),
       south_east=st.booleans(),
       m=st.integers(min_value=1, max_value=5))
@example(slope=-1.0, scale=1.0, south_east=False, m=1)
@example(slope=-1e12, scale=1.0, south_east=False, m=1)
@example(slope=-1e-12, scale=1.0, south_east=True, m=1)
def test_l0_norm_slope_match_oracle(slope, scale, south_east, m):
    # independent bisection on gamma(x) - slope*x = 0, the graph point on
    # the ray through v = scale * (-1, -slope) or its SE antipode
    lo, hi = -1.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gamma_eval(mid, m) - slope * mid < 0.0:
            lo = mid
        else:
            hi = mid
    x0 = 0.5 * (lo + hi)
    expected = scale / -x0
    v = Vec2(-scale, -slope * scale)
    if south_east:
        v = -v
    assert l0_norm(v, m) == pytest.approx(expected, rel=1e-12)


def test_l0_norm_domain_errors():
    for v in (Vec2(0.0, 0.0), Vec2(1.0, 1.0), Vec2(-1.0, -1.0),
              Vec2(1.0, 0.0), Vec2(0.0, 1.0)):
        with pytest.raises(DomainError):
            l0_norm(v, 1)


_FIRST_ANGLE = math.nextafter(math.pi / 2, math.pi)
_LAST_ANGLE = math.nextafter(math.pi, 0.0)


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


def _scalar_each(thetas, m):
    return [graph_x_for_angle(float(t), m) for t in thetas]


# The array cases keep their ids ("1", "3", "5"); the scalar cases run the
# same angles, theta = nextafter(pi/2, pi) among them, against the same
# oracle.
@pytest.mark.parametrize(
    "kernel, m",
    [(graph_x_for_angle_arr, m) for m in (1, 3, 5)]
    + [(_scalar_each, m) for m in (1, 3, 5)],
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


# -- brent_root on synthetic brackets ---------------------------------------------

def _noisy_line(root, seed):
    """A line through root whose value within 1e-12 of it is off by a
    seeded amount of up to its change over 8 ulps of t, so that the side a
    probe lands on near the root is not a function of t."""
    rng = np.random.default_rng(seed)
    noise = 8.0 * math.ulp(root) * 1e-3

    def f(t):
        y = (t - root) * 1e-3
        if abs(t - root) < 1e-12:
            y += float(rng.uniform(-1.0, 1.0)) * noise
        return y
    return f


def _plateau(t):
    # exactly 0 on [0.4, 0.7]
    return min(t - 0.4, 0.0) + max(t - 0.7, 0.0)


_BRENT_CASES = {
    "sin": (math.sin, lambda y: y > 0.0, 3.0, 3.3),
    "step": (lambda t: -1.0 if t < 0.3 else 1.0, lambda y: y < 0.0, 0.0, 1.0),
    "flat then steep": (lambda t: t ** 9 - 1e-3, lambda y: y < 0.0, 0.0, 2.0),
    "flat at the root": (lambda t: (t - 0.2) ** 9, lambda y: y < 0.0,
                         -1.0, 1.0),
    "zero plateau": (_plateau, lambda y: y < 0.0, 0.0, 1.0),
    "reversed": (math.cos, lambda y: y < 0.0, 2.0, 1.0),
    "noisy": (_noisy_line(1.234567, 3), lambda y: y < 0.0, 1.0, 1.5),
    "noisy, other seed": (_noisy_line(1.234567, 4), lambda y: y < 0.0,
                          1.0, 1.5),
    "band edge": (lambda t: abs(math.cos(t)) - 1e-9, lambda g: g > 0.0,
                  1.0, math.pi / 2),
}


@pytest.mark.parametrize("case", list(_BRENT_CASES))
def test_brent_root_brackets_the_crossing(case):
    from normlogic.geometry.curve import _BRENT_ULPS, bisect_root, brent_root
    f, lo_side, lo, hi = _BRENT_CASES[case]
    seen = {}

    def probe(t):
        # the value a probe saw: a noisy f gives another on a second call
        seen.setdefault(t, f(t))
        return seen[t]

    probes = []
    a, b = brent_root(lambda t: probes.append(t) or probe(t), lo_side, lo, hi)
    stop = _BRENT_ULPS * math.ulp(max(abs(lo), abs(hi)))
    if a == b:
        assert seen[a] == 0.0
    else:
        assert lo_side(seen[a]) and not lo_side(seen[b])
        assert abs(a - b) <= stop
        assert min(lo, hi) < min(a, b) and max(a, b) < max(lo, hi)
    # the documented worst case, 2n + 4 with n halvings to the stopping
    # width, and n is at most the halvings of bisection, which goes to 1 ulp
    n = math.ceil(math.log2(abs(hi - lo) / stop))
    halvings = []
    bisect_root(lambda t: halvings.append(t) or lo_side(probe(t)), lo, hi)
    assert len(probes) <= 2 * n + 4 and n <= len(halvings)


def test_brent_root_smooth_crossing_takes_few_probes():
    from normlogic.geometry.curve import brent_root
    probes = []
    brent_root(lambda t: probes.append(t) or math.sin(t), lambda y: y > 0.0,
               3.0, 3.3)
    assert len(probes) <= 10


def test_brent_root_end_on_the_far_side_is_the_crossing():
    # a caller's sides come from another evaluation of the residual; an end
    # whose probe disagrees by rounding is taken as the crossing
    from normlogic.geometry.curve import brent_root
    assert brent_root(lambda t: t - 1.0, lambda y: y < 0.0, 1.0, 2.0) \
        == (1.0, 1.0)
    assert brent_root(lambda t: t - 1.0, lambda y: y < 0.0, 0.0, 0.5) \
        == (0.5, 0.5)
