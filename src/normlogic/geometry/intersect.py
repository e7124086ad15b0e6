"""Intersection of two norm-circles of a plane space.

Any two circles of the same normed plane are homothetic images of each other,
so their intersection is constrained to one of four shapes: empty, equal, one
connected component, or two connected components, the components being points
or closed segments.  The classifier scans the first circle's parametrization,
detects zero crossings and tolerance-band plateaus of the distance residual
h = N(p + r*u - q) - s, and refines them with Brent's method (brent_root in
curve.py), about a dozen residual probes per crossing.

Both refinements keep the reported points within the 1e-9 geometric bound.
A band edge is the in-band end of its final bracket, so its own probe has
|h| <= tol.  A zero is the midpoint of a bracket a few ulps of the angle
wide whose ends lie on either side of h = 0, or a probe where h is exactly
0; h changes by far less than 1e-9 across a few ulps of the angle.

The scan reads two things from h at each grid sample: whether it is in band
(|h| <= tol) and its sign (h > 0).  It settles most samples without a norm.
The grid is cut into cells of _CELL consecutive samples, and each cell has a
radius R, the largest N(u_i - u_a) from one of its unit points u_i to the
cell's start u_a.  The triangle inequality |N(x) - N(y)| <= N(x - y) gives

    |h_i - h_a| <= N(r*u_i - r*u_a) = r * N(u_i - u_a) <= r * R,

so wherever |h_a| > tol + r*R + eps, every sample of the cell is out of band
and has h_a's sign.  The bound holds in any norm, so euclidean and plane
spaces take the same path.  h is evaluated at the cell starts, and once more
at every sample of the cells that miss the certificate; the masks equal
those of a dense scan bit for bit, because norm_arr computes each row alone
and a row's value does not depend on the other rows of the call.

eps is the rounding allowance: it bounds how far the computed h_i - h_a
may pass the exact bound.  Assume the computed norm is within a relative
2^-44 of the norm (the curve inversion lands within 4 ulp of its root, and
hypot, atan2 and the division add a few ulps more), and let mu = 2^-53 be
the unit roundoff.  Then, step by step:

- forming p + r*u_i - q rounds each coordinate by at most
  3mu(|p.x| + r|u_i.x| + |q.x|); by the triangle inequality the norm of
  that error is at most 3mu * max(N(e1), N(e2)) * (|p|_1 + |q|_1 +
  2r * max|u|), once at u_i and once at u_a;
- the computed radius rounds each coordinate of u_i - u_a by at most
  2mu * max|u|, and its norm by 2^-44 of R;
- the two computed norms err by 2^-44 of N_i + N_a <= 2(|h_a| + s) + r*R,
  and subtracting s rounds by mu(|h_i| + |h_a|);
- the threshold tol + r*R + eps rounds by a few mu of its value.

With coord = max(N(e1), N(e2)) * max(1, 2 * max|u|), measured once per
grid, the sum stays below 2^-42 times |h_a| + tol + s + r*R +
coord * (|p|_1 + |q|_1 + r); eps is 2^-40 times that sum, four times the
bound.  At tol = 1e-9 and unit radii it is about 1e-12, far below r*R
(about 0.05 r for 32 samples of a 4,096-sample grid), so it costs no
certified cell.

The scan grid (the angles, the unit-circle point at each, the cell radii
and coord) depends only on the space and the number of samples, so it is
built once per (space, grid_n) and kept, read-only, in a small
least-recently-used cache.  The in-band runs are found with array
operations: a run starts at an in-band sample whose predecessor is out of
band and ends at one whose successor is.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import List, Tuple, Union

import numpy as np

from ..errors import DomainError, GridTooCoarse
from .curve import brent_root
from .spaces import EuclideanSpace, PlaneSpace
from .vec import Vec2, as_vec2

_TWO_PI = 2.0 * math.pi
#: Samples per certification cell (see the module docstring).
_CELL = 32
#: The certificate's rounding allowance, relative to the magnitudes of a
#: call (see the module docstring).
_ROUNDING = 2.0 ** -40


class Classification(Enum):
    DISJOINT = "Disjoint"
    EQUAL = "Equal"
    ONE_COMPONENT = "OneComponent"
    TWO_COMPONENTS = "TwoComponents"


@dataclass(frozen=True)
class IsolatedPoint:
    p: Vec2


@dataclass(frozen=True)
class ClosedSegment:
    a: Vec2
    b: Vec2


Component = Union[IsolatedPoint, ClosedSegment]


@dataclass(frozen=True)
class IntersectionReport:
    components: Tuple[Component, ...]
    classification: Classification


def intersect_circles(space, p, r: float, q, s: float,
                      grid_n: int = 4096, tol: float = 1e-9
                      ) -> IntersectionReport:
    """Classify S(p, r) against S(q, s) in a two-dimensional space.

    Points of the first circle are p + r*u(t) with u(t) the unit-circle point
    at angle t; the residual h(t) is their distance-to-q minus s.  Isolated
    sign changes become points, runs of at least three in-band samples become
    segments.  Shorter in-band runs without a sign change raise GridTooCoarse,
    as does any outcome outside the four admissible shapes.
    """
    if not (isinstance(space, (PlaneSpace, EuclideanSpace))
            and space.dimension == 2):
        raise DomainError("circle intersection needs a two-dimensional space")
    # Vec2 rejects non-finite centres; a NaN radius fails both comparisons
    p, q = as_vec2(p), as_vec2(q)
    if not (0.0 < r < math.inf and 0.0 < s < math.inf):
        raise DomainError("radii must be positive and finite")
    if not tol >= 0.0:
        raise DomainError("tol must be a number >= 0")
    if isinstance(grid_n, bool) or not isinstance(grid_n, numbers.Integral) \
            or grid_n < 1:
        raise DomainError("grid_n must be an integer >= 1")
    grid_n = int(grid_n)

    grid = _scan_grid(space, grid_n)
    ts = grid[0]
    step = _TWO_PI / grid_n
    in_band, sign = _scan(space, grid, p, r, q, s, tol)
    if bool(in_band.all()):
        return IntersectionReport((), Classification.EQUAL)

    def h_at(t: float) -> float:
        u = space.unit_point(t)
        return space.norm(Vec2(p.x + r * u.x - q.x, p.y + r * u.y - q.y)) - s

    def point_at(t: float) -> Vec2:
        u = space.unit_point(t)
        return Vec2(p.x + r * u.x, p.y + r * u.y)

    # an out-of-band sample has |h| > tol >= 0, so its sign is h > 0 or
    # h < 0, and sign tells which
    components: List[Tuple[float, Component]] = []
    for start, length in _circular_runs(in_band):
        before = (start - 1) % grid_n
        after = (start + length) % grid_n
        if length >= 3:
            t_a = _refine_band_edge(h_at, ts[before], step, tol)
            t_b = _refine_band_edge(h_at, ts[before] + step * (length + 1),
                                    -step, tol)
            seg = ClosedSegment(point_at(t_a), point_at(t_b))
            components.append((ts[start], seg))
        elif sign[before] != sign[after]:
            t_star = _refine_zero(h_at, ts[before],
                                  ts[before] + step * (length + 1),
                                  not sign[before])
            components.append((t_star % _TWO_PI,
                               IsolatedPoint(point_at(t_star))))
        else:
            raise GridTooCoarse(
                f"band entered and left within {length} cell(s) near "
                f"t={ts[start]:.6f}; raise grid_n or tol")

    # transversal crossings with no in-band sample: every in-band sample
    # belongs to a run above, so a sign flip between two out-of-band
    # samples is a crossing of its own
    out = ~in_band
    crossing = (sign != np.roll(sign, -1)) & out & np.roll(out, -1)
    for i in np.flatnonzero(crossing):
        t_star = _refine_zero(h_at, ts[i], ts[i] + step, not sign[i])
        components.append((t_star % _TWO_PI, IsolatedPoint(point_at(t_star))))

    components.sort(key=lambda c: c[0])
    comps = tuple(c for _, c in components)
    if len(comps) == 0:
        cls = Classification.DISJOINT
    elif len(comps) == 1:
        cls = Classification.ONE_COMPONENT
    elif len(comps) == 2:
        cls = Classification.TWO_COMPONENTS
    else:
        raise GridTooCoarse(
            f"{len(comps)} components detected; only <= 2 are geometrically "
            "possible, so the scan resolution is insufficient")
    return IntersectionReport(comps, cls)


def _scan(space, grid, p: Vec2, r: float, q: Vec2, s: float,
          tol: float) -> Tuple[np.ndarray, np.ndarray]:
    """(in_band, sign): whether |h| <= tol, and whether h > 0, at every
    grid sample, equal to a dense scan's |h| <= tol and h > 0.

    h is evaluated at the cell starts.  A cell whose start clears the
    certificate (module docstring) takes its start's sign and is out of
    band throughout; the samples of every other cell are evaluated in one
    more norm_arr call.
    """
    _, ux, uy = grid[:3]
    n = len(ux)
    h0 = _residual(space, ux[::_CELL], uy[::_CELL], p, r, q, s)
    certified = np.abs(h0) > tol + _margin(grid, h0, p, r, q, s, tol)
    sign = np.repeat(h0 > 0.0, _CELL)[:n]
    in_band = np.zeros(n, dtype=bool)
    rest = np.flatnonzero(np.repeat(~certified, _CELL)[:n])
    h = _residual(space, ux[rest], uy[rest], p, r, q, s)
    in_band[rest] = np.abs(h) <= tol
    sign[rest] = h > 0.0
    return in_band, sign


def _margin(grid, h0: np.ndarray, p: Vec2, r: float, q: Vec2, s: float,
            tol: float) -> np.ndarray:
    """r*R + eps per cell: how far h may move from its value h0 at the
    cell's start, with eps the rounding allowance of the module docstring."""
    radius, coord = grid[3:]
    slack = r * radius
    return slack + _ROUNDING * (np.abs(h0) + tol + s + slack + coord * (
        abs(p.x) + abs(p.y) + abs(q.x) + abs(q.y) + r))


def _residual(space, ux: np.ndarray, uy: np.ndarray, p: Vec2, r: float,
              q: Vec2, s: float) -> np.ndarray:
    """h = N(p + r*u - q) - s at the unit points (ux, uy), row by row as a
    dense scan of all samples computes it."""
    return space.norm_arr(np.column_stack([p.x + r * ux - q.x,
                                           p.y + r * uy - q.y])) - s


@lru_cache(maxsize=4)
def _scan_grid(space, grid_n: int) -> Tuple[np.ndarray, np.ndarray,
                                            np.ndarray, np.ndarray, float]:
    """The scan grid of a space, (ts, ux, uy, radius, coord), read-only.

    ts are the scan angles and (ux, uy) the unit-circle point at each.
    radius[k] is the largest N(u_i - u_start) over the samples i of cell k,
    one float per _CELL samples, measured with one norm_arr call.  coord,
    max(N(e1), N(e2)) * max(1, 2 * max|ux|, 2 * max|uy|), scales the
    allowance for the rounding of coordinates (module docstring).

    Four grids are kept.  A grid holds 3 + 1/_CELL floats per sample, so
    one of 600,000 samples keeps 14.6 MB.  Building it costs one rho_arr
    call and one norm_arr call over its samples, and the temporaries of
    the two calls, one after the other, take up to 90 MB more.
    """
    ts = np.linspace(0.0, _TWO_PI, grid_n, endpoint=False)
    if isinstance(space, PlaneSpace):
        rho = space.boundary.rho_arr(ts)
    else:
        rho = np.ones_like(ts)
    ux, uy = rho * np.cos(ts), rho * np.sin(ts)
    spread = space.norm_arr(np.column_stack([
        ux - np.repeat(ux[::_CELL], _CELL)[:grid_n],
        uy - np.repeat(uy[::_CELL], _CELL)[:grid_n]]))
    radius = np.maximum.reduceat(spread, np.arange(0, grid_n, _CELL))
    axes = space.norm_arr(np.array([[1.0, 0.0], [0.0, 1.0]]))
    coord = float(axes.max()) * max(1.0, 2.0 * float(np.abs(ux).max()),
                                    2.0 * float(np.abs(uy).max()))
    for a in (ts, ux, uy, radius):
        a.setflags(write=False)
    return ts, ux, uy, radius, coord


def _circular_runs(mask: np.ndarray) -> List[Tuple[int, int]]:
    """Maximal runs of True in a circular boolean array, as (start, length),
    in the order a walk around the circle from its first False entry meets
    them."""
    n = len(mask)
    if mask.all():
        return [(0, n)]
    starts = np.flatnonzero(mask & ~np.roll(mask, 1))
    lasts = np.flatnonzero(mask & ~np.roll(mask, -1))
    if mask[0]:
        # the run through entry 0 is met last: its last entry is the
        # first in lasts, and its start the first in starts unless the
        # run wraps round the end
        lasts = np.roll(lasts, -1)
        if not mask[-1]:
            starts = np.roll(starts, -1)
    lengths = (lasts - starts) % n + 1
    return list(zip(starts.tolist(), lengths.tolist()))


def _refine_zero(h_at, t_lo: float, t_hi: float, neg_lo: bool) -> float:
    """A zero of h on [t_lo, t_hi], where h < 0 at t_lo iff neg_lo: the
    midpoint of brent_root's final bracket, a few ulps wide, or the probe
    where h is exactly 0."""
    t_lo, t_hi = brent_root(h_at, lambda h: (h < 0.0) == neg_lo, t_lo, t_hi)
    return 0.5 * (t_lo + t_hi)


def _refine_band_edge(h_at, t_out: float, step: float, tol: float) -> float:
    """|h| = tol between an out-of-band sample and its in-band neighbour
    at t_out + step (step may be negative), found by brent_root on
    |h| - tol; returns the in-band end of the final bracket, so |h| <= tol
    there by its own probe.  (Should the in-band sample's own probe read
    out of band, by rounding within an ulp of tol, that sample is
    returned, as bisection would return it.)"""
    _, t_in = brent_root(lambda t: abs(h_at(t)) - tol, lambda g: g > 0.0,
                         t_out, t_out + step)
    return t_in
