"""Intersection of two norm-circles of a plane space.

Any two circles of the same normed plane are homothetic images of each other,
so their intersection is constrained to one of four shapes: empty, equal, one
connected component, or two connected components, the components being points
or closed segments.  The classifier scans the first circle's parametrization,
detects zero crossings and tolerance-band plateaus of the distance residual,
and refines them by bisection.

The scan grid (the angles and the unit-circle point at each) depends only on
the space and the number of samples, so it is built once per (space, grid_n)
and kept, read-only, in a small least-recently-used cache; a call computes
only the residual over it.  The in-band runs are found with array
operations: a run starts at an in-band sample whose predecessor is out of
band and ends at one whose successor is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import List, Tuple, Union

import numpy as np

from ..errors import DomainError, GridTooCoarse
from .curve import bisect_root
from .spaces import EuclideanSpace, PlaneSpace
from .vec import Vec2, as_vec2

_TWO_PI = 2.0 * math.pi


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
    if r <= 0.0 or s <= 0.0:
        raise DomainError("radii must be positive")
    p, q = as_vec2(p), as_vec2(q)

    ts, ux, uy = _scan_grid(space, grid_n)
    step = _TWO_PI / grid_n
    dx = p.x + r * ux - q.x
    dy = p.y + r * uy - q.y
    h = space.norm_arr(np.column_stack([dx, dy])) - s

    in_band = np.abs(h) <= tol
    if bool(in_band.all()):
        return IntersectionReport((), Classification.EQUAL)

    def h_at(t: float) -> float:
        u = space.unit_point(t)
        return space.norm(Vec2(p.x + r * u.x - q.x, p.y + r * u.y - q.y)) - s

    def point_at(t: float) -> Vec2:
        u = space.unit_point(t)
        return Vec2(p.x + r * u.x, p.y + r * u.y)

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
        elif h[before] * h[after] < 0.0:
            t_star = _refine_zero(h_at, ts[before],
                                  ts[before] + step * (length + 1), h[before])
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
    sign = h > 0.0
    crossing = (sign != np.roll(sign, -1)) & out & np.roll(out, -1)
    for i in np.flatnonzero(crossing):
        t_star = _refine_zero(h_at, ts[i], ts[i] + step, h[i])
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


@lru_cache(maxsize=4)
def _scan_grid(space, grid_n: int) -> Tuple[np.ndarray, np.ndarray,
                                            np.ndarray]:
    """The scan angles and the unit-circle point at each, (ts, ux, uy), as
    read-only arrays.  A few grids are kept: one of 600,000 samples takes
    about 14 MB."""
    ts = np.linspace(0.0, _TWO_PI, grid_n, endpoint=False)
    if isinstance(space, PlaneSpace):
        rho = space.boundary.rho_arr(ts)
    else:
        rho = np.ones_like(ts)
    grid = (ts, rho * np.cos(ts), rho * np.sin(ts))
    for a in grid:
        a.setflags(write=False)
    return grid


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


def _refine_zero(h_at, t_lo: float, t_hi: float, h_lo: float) -> float:
    """Bisect a sign change of h on [t_lo, t_hi]."""
    neg_lo = h_lo < 0.0
    t_lo, t_hi = bisect_root(lambda t: (h_at(t) < 0.0) == neg_lo, t_lo, t_hi)
    return 0.5 * (t_lo + t_hi)


def _refine_band_edge(h_at, t_out: float, step: float, tol: float) -> float:
    """Bisect |h| = tol between an out-of-band sample and its in-band
    neighbour at t_out + step (step may be negative); returns the in-band
    end of the final bracket."""
    _, t_in = bisect_root(lambda t: abs(h_at(t)) > tol, t_out, t_out + step)
    return t_in
