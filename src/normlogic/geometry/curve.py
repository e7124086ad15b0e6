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
arrays for the dense verification grids.  Each formula has one body,
parametrised by ``lib`` (FLOATS for floats, ARRAYS for numpy arrays), so
both paths run the same arithmetic.  The graph is inverted by angle with one
kernel: a per-M angle table, built once and kept as an array and as a list
of floats, and two Newton steps.  It lands within 4 ulp of the exact root,
and everything that needs a graph point uses it: the radial function
rho_graph (and through it rho, the plane's norms and unit_point), the base
norm l0_norm, and the construction of the markers and the vertex w3.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..errors import DomainError

#: Halving cap of bisect_root: 2^-80 of a unit bracket is below an ulp of
#: any root of magnitude 1e-8 or more.
_BISECT_ITERS = 80


def bisect_root(below: Callable[[float], bool], lo: float,
                hi: float) -> Tuple[float, float]:
    """Halve the bracket [lo, hi] around the root of a monotone predicate.

    below(t) is True on lo's side of the root; lo may exceed hi.  At most
    _BISECT_ITERS halvings, stopping early once no float lies strictly
    between lo and hi: the rounded midpoint then equals an endpoint, so the
    remaining halvings could not change the midpoint.  Returns the final
    bracket (lo, hi).

    The construction's two root searches use it, once per construction:
    their results fix the published parameters and so the params hash, and
    another probe sequence could move them by an ulp.  Refinements that run
    per call use brent_root, which needs far fewer probes.
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


#: Stopping width of brent_root, in ulps of the larger end of its starting
#: bracket.
_BRENT_ULPS = 4


def brent_root(f: Callable[[float], float], lo_side: Callable[[float], bool],
               lo: float, hi: float) -> Tuple[float, float]:
    """Narrow the bracket [lo, hi] around a crossing of the residual f by
    Brent's method (Brent 1973, Algorithms for Minimization without
    Derivatives, ch. 4): inverse quadratic interpolation and secant steps,
    with bisection where they would not shrink the bracket fast enough.

    lo_side(f(t)) is True on lo's side of the crossing, and the caller
    asserts that lo lies on it and hi does not; lo may exceed hi.  Which
    end a probe replaces is decided by lo_side alone; the values of f only
    steer the steps.  Returns (a, b), with a on lo's side and b not, at
    most _BRENT_ULPS ulps of max(|lo|, |hi|) apart.  A probe whose residual
    is exactly 0 is the crossing: it returns (t, t) at once.  So does an
    end whose probe lands on the other side from the one asserted: the
    crossing is then within rounding of that end.

    Worst case: with n the number of halvings that take |hi - lo| to the
    stopping width, the steps after the first n probes inside the bracket
    are all bisections, so it makes at most 2n + 4 probes, the two ends
    included: about twice the count of bisect_root, which halves down to
    one ulp.  A smooth crossing takes about a dozen.
    """
    fa, fb = f(lo), f(hi)
    if fa == 0.0 or not lo_side(fa):
        return lo, lo
    if fb == 0.0 or lo_side(fb):
        return hi, hi
    stop = _BRENT_ULPS * math.ulp(max(abs(lo), abs(hi)))
    tol = 0.5 * stop
    width = abs(hi - lo)
    budget = math.ceil(math.log2(width / stop)) if width > stop else 0
    # b is the latest probe, c the end across the crossing from it, a the
    # probe before b; after a swap b is the end with the smaller residual
    a, b, c = lo, hi, lo
    fc, side_b, side_c = fa, False, True
    d = e = b - a
    probes = 0
    while True:
        if side_b == side_c:
            c, fc, side_c = a, fa, not side_b
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
            side_b, side_c = side_c, side_b
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return (b, c) if side_b else (c, b)
        if probes < budget and abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            # p/q has m's sign, so the step goes towards c
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        probes += 1
        if fb == 0.0:
            return b, b
        side_b = lo_side(fb)


#: Intervals of the angle-to-x table, uniform in angle over [pi/2, pi].
_TABLE_SIZE = 1024
#: Samples of the forward s-grid the table is resampled from.
_FORWARD_SIZE = 8192
_TABLE_STEP = (math.pi / 2.0) / _TABLE_SIZE
#: Table entries are clipped into the open interval (-1, 0), and so is every
#: start point interpolated between two of them; the upper end keeps
#: s = (x+1)/(-x) small enough that s*s stays finite.
_X_START_LO = math.nextafter(-1.0, 0.0)
_X_START_HI = -1e-100
_ANGLE_TABLES: Dict[int, Tuple[np.ndarray, List[float]]] = {}

#: What the shared bodies call, for Python floats and for numpy arrays.
#: index maps a table coordinate u >= 0 to its interval (a float u stays
#: below _TABLE_SIZE for every angle below pi), and form picks the matching
#: form of the angle table: the list of floats or the array.
FLOATS = SimpleNamespace(sin=math.sin, cos=math.cos, index=int, form=1)
ARRAYS = SimpleNamespace(
    sin=np.sin, cos=np.cos,
    index=lambda u: np.clip(u.astype(np.intp), 0, _TABLE_SIZE - 1), form=0)


def _g(s, m: int, lib):
    return 2.0 * s + s * s + lib.sin(s) / m


def _gamma(x, m: int, lib):
    s = (x + 1.0) / (-x)
    gs = _g(s, m, lib)
    return gs / (1.0 + gs)


def _gamma_dd(x, m: int, lib):
    s = (x + 1.0) / (-x)
    sp = 1.0 / (x * x)
    spp = -2.0 / (x * x * x)
    gs = _g(s, m, lib)
    gp = 2.0 + 2.0 * s + lib.cos(s) / m
    gpp = 2.0 - lib.sin(s) / m
    hp = gp * sp
    hpp = gpp * sp * sp + gp * spp
    return (hpp * (1.0 + gs) - 2.0 * hp * hp) / (1.0 + gs) ** 3


def _check_open(x: float, what: str) -> None:
    if not -1.0 < x < 0.0:
        raise DomainError(f"{what} is defined on (-1, 0); got {x}")


def g_eval(s: float, m: int) -> float:
    """g(s) = 2s + s^2 + sin(s)/M."""
    return _g(s, m, FLOATS)


def gamma_eval(x: float, m: int) -> float:
    """gamma(x) for x in the open interval (-1, 0)."""
    _check_open(x, "gamma")
    return _gamma(x, m, FLOATS)


def gamma_arr(x: np.ndarray, m: int) -> np.ndarray:
    return _gamma(x, m, ARRAYS)


def gamma_dd(x: float, m: int) -> float:
    """Second derivative of gamma, in closed form.

    With h(x) = g(s(x)) and gamma = h/(1+h):

        gamma'' = (h''(1+h) - 2 h'^2) / (1+h)^3,
        h'  = g'(s) s',   h'' = g''(s) s'^2 + g'(s) s'',
        s'  = 1/x^2,      s'' = -2/x^3.
    """
    _check_open(x, "gamma''")
    return _gamma_dd(x, m, FLOATS)


def gamma_dd_arr(x: np.ndarray, m: int) -> np.ndarray:
    return _gamma_dd(x, m, ARRAYS)


#: The concavity gate's grid of (-1, 0), and the largest M tried against it.
_GATE_LO, _GATE_HI, _GATE_POINTS = -0.999, -0.001, 10_000
_M_LIMIT = 64


def concavity_gate(m: int) -> bool:
    """True iff gamma'' < 0 at every point of a dense grid of (-1, 0)."""
    xs = np.linspace(_GATE_LO, _GATE_HI, _GATE_POINTS)
    return bool(np.all(gamma_dd_arr(xs, m) < 0.0))


def smallest_concave_m() -> int:
    """Smallest positive integer M passing the concavity gate."""
    for m in range(1, _M_LIMIT + 1):
        if concavity_gate(m):
            return m
    raise DomainError(f"no M <= {_M_LIMIT} passes the concavity gate")


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
        table = np.clip(np.interp(nodes, xp, fp), _X_START_LO, _X_START_HI)
        tables = (table, table.tolist())
        _ANGLE_TABLES[m] = tables
    return tables


def _graph_x(theta, m: int, lib):
    """The curve-inversion kernel: a linear look-up in the per-M angle
    table, then two Newton steps on

        f(x) = gamma(x) cos(theta) - x sin(theta),
        f'(x) = gamma'(x) cos(theta) - sin(theta).
    """
    table = _angle_table(m)[lib.form]
    u = (theta - math.pi / 2.0) / _TABLE_STEP
    i = lib.index(u)
    x0 = table[i]
    x = x0 + (u - i) * (table[i + 1] - x0)
    c = lib.cos(theta)
    sn = lib.sin(theta)
    for _ in range(2):
        s = (x + 1.0) / (-x)
        gs = _g(s, m, lib)
        gp = 2.0 + 2.0 * s + lib.cos(s) / m
        one_g = 1.0 + gs
        # gamma' = g'(s) s'(x) / (1 + g)^2 with s'(x) = 1/x^2
        dgamma = gp / (x * x * one_g * one_g)
        x = x - (gs / one_g * c - x * sn) / (dgamma * c - sn)
    return x


def graph_x_for_angle(theta: float, m: int) -> float:
    """The x in (-1, 0) whose graph point (x, gamma(x)) sits at angle theta.

    theta must lie in the open interval (pi/2, pi); the angle of the graph
    point decreases strictly in x.  The result is within 4 ulp of the exact
    root, and it equals graph_x_for_angle_arr's wherever numpy's sin and cos
    round as the math module's do.
    """
    if not math.pi / 2 < theta < math.pi:
        raise DomainError(f"angle outside (pi/2, pi): {theta}")
    return _graph_x(theta, m, FLOATS)


def graph_x_for_angle_arr(theta: np.ndarray, m: int) -> np.ndarray:
    """Vectorized graph_x_for_angle (theta strictly inside (pi/2, pi))."""
    return _graph_x(np.asarray(theta, dtype=float), m, ARRAYS)


def rho_graph(theta: float, m: int) -> float:
    """Distance from 0 to the graph in direction theta in [pi/2, pi].

    The closed ends are the graph's limit points (0, 1) and (-1, 0), both
    at distance 1.
    """
    if theta <= math.pi / 2.0 or theta >= math.pi:
        return 1.0
    x = _graph_x(theta, m, FLOATS)
    return math.hypot(x, _gamma(x, m, FLOATS))


def rho_graph_arr(theta: np.ndarray, m: int) -> np.ndarray:
    """Vectorized rho_graph."""
    out = np.ones_like(theta)
    inner = (theta > math.pi / 2.0) & (theta < math.pi)
    if inner.any():
        x = _graph_x(theta[inner], m, ARRAYS)
        out[inner] = np.hypot(x, _gamma(x, m, ARRAYS))
    return out


def l0_norm(v, m: int) -> float:
    """Base norm of a vector in the open NW or SE quadrant.

    The euclidean length over the graph's radius in v's direction; vectors
    in the SE quadrant go through their NW antipode.
    """
    x, y = map(float, v)
    if x == 0.0 or y == 0.0 or x * y > 0.0:
        raise DomainError(
            f"base norm needs the open NW or SE quadrant; got ({x}, {y})")
    if x > 0.0:  # antipodal symmetry
        x, y = -x, -y
    return math.hypot(x, y) / rho_graph(math.atan2(y, x), m)
