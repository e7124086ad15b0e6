"""The boundary curve of the auxiliary plane and its base norm.

The north-west quadrant of the auxiliary unit circle is the graph of

    gamma(x) = g(s) / (1 + g(s)),   s = (x + 1) / (-x),   x in (-1, 0),

with g(s) = 2s + s^2 + sin(s)/M for a positive integer M.  gamma increases
from 0 to 1 across (-1, 0) and is strictly concave whenever M passes the
concavity gate, which makes every interior point of the graph a unit-circle
point of a well-defined norm.  That norm (here: the base norm) is only ever
needed for vectors in the open north-west and south-east quadrants, where the
graph and its antipode determine it completely.

Scalar entry points use plain floats; the ``*_arr`` variants accept numpy
arrays for the dense verification grids.  The radial function inverts the
graph by angle with one kernel: a per-M angle table, built once and kept as
an array and as a list of floats, and two Newton steps whose body is shared
by floats (graph_x_by_table) and arrays (graph_x_for_angle_arr).  It lands
within 4 ulp of the exact root, and it serves rho, rho_arr, the plane's
norm and norm_arr, and unit_point.  Bisection (graph_x_for_angle,
graph_x_for_slope) remains only for the construction, whose parameters, and
so params.json, are pinned bit for bit to its results.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..errors import DomainError

#: Bisection iteration cap; enough to exhaust double precision on (-1, 0).
_BISECT_ITERS = 80


def bisect_root(below: Callable[[float], bool], lo: float,
                hi: float) -> Tuple[float, float]:
    """Halve the bracket [lo, hi] around the root of a monotone predicate.

    below(t) is True on lo's side of the root; lo may exceed hi.  At most
    _BISECT_ITERS halvings, stopping early once no float lies strictly
    between lo and hi: the rounded midpoint then equals an endpoint, so the
    remaining halvings could not change the midpoint.  Returns the final
    bracket (lo, hi).
    """
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def g_eval(s: float, m: int) -> float:
    """g(s) = 2s + s^2 + sin(s)/M."""
    return 2.0 * s + s * s + math.sin(s) / m


def gamma_eval(x: float, m: int) -> float:
    """gamma(x) for x in the open interval (-1, 0)."""
    if not -1.0 < x < 0.0:
        raise DomainError(f"gamma is defined on (-1, 0); got {x}")
    s = (x + 1.0) / (-x)
    gs = g_eval(s, m)
    return gs / (1.0 + gs)


def gamma_dd(x: float, m: int) -> float:
    """Second derivative of gamma, in closed form.

    With h(x) = g(s(x)) and gamma = h/(1+h):

        gamma'' = (h''(1+h) - 2 h'^2) / (1+h)^3,
        h'  = g'(s) s',   h'' = g''(s) s'^2 + g'(s) s'',
        s'  = 1/x^2,      s'' = -2/x^3.
    """
    if not -1.0 < x < 0.0:
        raise DomainError(f"gamma'' is defined on (-1, 0); got {x}")
    return float(gamma_dd_arr(x, m))


def gamma_arr(x: np.ndarray, m: int) -> np.ndarray:
    s = (x + 1.0) / (-x)
    gs = 2.0 * s + s * s + np.sin(s) / m
    return gs / (1.0 + gs)


def gamma_dd_arr(x: np.ndarray, m: int) -> np.ndarray:
    s = (x + 1.0) / (-x)
    sp = 1.0 / (x * x)
    spp = -2.0 / (x * x * x)
    gs = 2.0 * s + s * s + np.sin(s) / m
    gp = 2.0 + 2.0 * s + np.cos(s) / m
    gpp = 2.0 - np.sin(s) / m
    hp = gp * sp
    hpp = gpp * sp * sp + gp * spp
    return (hpp * (1.0 + gs) - 2.0 * hp * hp) / (1.0 + gs) ** 3


def concavity_gate(m: int, grid_points: int = 10_000,
                   lo: float = -0.999, hi: float = -0.001) -> bool:
    """True iff gamma'' < 0 at every point of a dense grid of (-1, 0)."""
    xs = np.linspace(lo, hi, grid_points)
    return bool(np.all(gamma_dd_arr(xs, m) < 0.0))


def smallest_concave_m(limit: int = 64) -> int:
    """Smallest positive integer M passing the concavity gate."""
    for m in range(1, limit + 1):
        if concavity_gate(m):
            return m
    raise DomainError(f"no M <= {limit} passes the concavity gate")


def graph_x_for_slope(slope: float, m: int) -> float:
    """The unique x in (-1, 0) with gamma(x)/x equal to the given slope.

    gamma(x)/x decreases strictly from 0- to -inf across (-1, 0) because the
    boundary angle is monotone along a concave graph star-shaped about 0, so
    bisection applies.  slope must be negative.
    """
    if not slope < 0.0:
        raise DomainError(f"slope must be negative; got {slope}")
    # f = gamma(x) - slope*x: negative below the solution.
    lo, hi = bisect_root(lambda x: gamma_eval(x, m) - slope * x < 0.0,
                         -1.0, 0.0)
    return 0.5 * (lo + hi)


def l0_norm(v, m: int) -> float:
    """Base norm of a vector in the open NW or SE quadrant.

    Computed as v.x / x0 where x0 solves the ray/graph slope match; vectors in
    the SE quadrant go through their NW antipode.
    """
    x, y = (v.x, v.y) if hasattr(v, "x") else (float(v[0]), float(v[1]))
    if x == 0.0 or y == 0.0 or x * y > 0.0:
        raise DomainError(
            f"base norm needs the open NW or SE quadrant; got ({x}, {y})")
    if x > 0.0:  # antipodal symmetry
        x, y = -x, -y
    x0 = graph_x_for_slope(y / x, m)
    return x / x0


def graph_x_for_angle(theta: float, m: int) -> float:
    """The x in (-1, 0) whose graph point (x, gamma(x)) sits at angle theta.

    theta must lie in the open interval (pi/2, pi); the angle of the graph
    point decreases strictly in x.  This is the bisection the construction
    uses, and its result is pinned bit for bit so that params.json does not
    change.  Its 80-halving cap leaves an absolute error of about 2e-25,
    which is more than an ulp once |x| < 1e-9 and reaches 1.4e-9 relative
    at the smallest |x| (theta = nextafter(pi/2, pi)).  The radial function
    uses graph_x_by_table instead.
    """
    if not math.pi / 2 < theta < math.pi:
        raise DomainError(f"angle outside (pi/2, pi): {theta}")
    c, s = math.cos(theta), math.sin(theta)
    # cross((cos t, sin t), (x, gamma x)) > 0 iff the graph point's angle
    # exceeds theta, which happens below the solution.
    lo, hi = bisect_root(lambda x: gamma_eval(x, m) * c - x * s > 0.0,
                         -1.0, 0.0)
    return 0.5 * (lo + hi)


#: Intervals of the angle-to-x table, uniform in angle over [pi/2, pi].
_TABLE_SIZE = 1024
#: Samples of the forward s-grid the table is resampled from.
_FORWARD_SIZE = 8192
_TABLE_STEP = (math.pi / 2.0) / _TABLE_SIZE
#: Start points are clipped into the open interval (-1, 0); the upper end
#: keeps s = (x+1)/(-x) small enough that s*s stays finite.
_X_START_LO = math.nextafter(-1.0, 0.0)
_X_START_HI = -1e-100
_ANGLE_TABLES: Dict[int, Tuple[np.ndarray, List[float]]] = {}


def _angle_table(m: int) -> Tuple[np.ndarray, List[float]]:
    """x at the angles pi/2 + i*_TABLE_STEP, i = 0.._TABLE_SIZE (built once
    per M), as an array for the vectorized look-up and as a list of floats
    for the scalar one.

    Forward evaluation needs no root finder: x = -1/(1+s) on log-spaced s,
    which is dense near both ends of (-1, 0), gives the graph point's angle
    atan2(gamma(x), x); the angle falls as s grows, from pi at s = 0 (x = -1)
    to pi/2 as s -> inf (x -> 0).
    """
    tables = _ANGLE_TABLES.get(m)
    if tables is None:
        s = np.logspace(-9.0, 9.0, _FORWARD_SIZE)
        x = -1.0 / (1.0 + s)
        theta = np.arctan2(gamma_arr(x, m), x)
        xp = np.concatenate(([math.pi / 2.0], theta[::-1], [math.pi]))
        fp = np.concatenate(([0.0], x[::-1], [-1.0]))
        nodes = math.pi / 2.0 + _TABLE_STEP * np.arange(_TABLE_SIZE + 1)
        table = np.interp(nodes, xp, fp)
        tables = (table, table.tolist())
        _ANGLE_TABLES[m] = tables
    return tables


def _newton_on_graph(x, theta, m: int, lib):
    """Two Newton steps from x toward the graph point at angle theta.

    f(x) = gamma(x) cos(theta) - x sin(theta) and
    f'(x) = gamma'(x) cos(theta) - sin(theta).  lib supplies sin and cos:
    the math module for floats, numpy for arrays, so both paths run the same
    arithmetic.
    """
    c = lib.cos(theta)
    sn = lib.sin(theta)
    for _ in range(2):
        s = (x + 1.0) / (-x)
        gs = 2.0 * s + s * s + lib.sin(s) / m
        gp = 2.0 + 2.0 * s + lib.cos(s) / m
        one_g = 1.0 + gs
        # gamma' = g'(s) s'(x) / (1 + g)^2 with s'(x) = 1/x^2
        dgamma = gp / (x * x * one_g * one_g)
        x = x - (gs / one_g * c - x * sn) / (dgamma * c - sn)
    return x


def graph_x_by_table(theta: float, m: int) -> float:
    """Scalar graph point inversion by the kernel of graph_x_for_angle_arr.

    The same table look-up and Newton steps on Python floats, so the result
    is within 4 ulp of the exact root, and it equals the vectorized one
    wherever numpy's sin and cos round as the math module's do.  theta must
    lie in the open interval (pi/2, pi).
    """
    if not math.pi / 2 < theta < math.pi:
        raise DomainError(f"angle outside (pi/2, pi): {theta}")
    table = _angle_table(m)[1]
    u = (theta - math.pi / 2.0) / _TABLE_STEP
    i = min(int(u), _TABLE_SIZE - 1)
    x0 = table[i]
    x = min(max(x0 + (u - i) * (table[i + 1] - x0), _X_START_LO), _X_START_HI)
    return _newton_on_graph(x, theta, m, math)


def graph_x_for_angle_arr(theta: np.ndarray, m: int) -> np.ndarray:
    """Vectorized graph point inversion (theta strictly inside (pi/2, pi)).

    Not the bisection of graph_x_for_angle: a linear look-up in the per-M
    angle table, then two Newton steps (_newton_on_graph).  The result is
    within 4 ulp of the exact root.
    """
    theta = np.asarray(theta, dtype=float)
    table = _angle_table(m)[0]
    u = (theta - math.pi / 2.0) / _TABLE_STEP
    i = np.clip(u.astype(np.intp), 0, _TABLE_SIZE - 1)
    x0 = table[i]
    x = np.clip(x0 + (u - i) * (table[i + 1] - x0), _X_START_LO, _X_START_HI)
    return _newton_on_graph(x, theta, m, np)
