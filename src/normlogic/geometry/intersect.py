"""Intersection of two norm-circles of a plane space.

Any two circles of the same normed plane are homothetic images of each other,
so their intersection is constrained to one of four shapes: empty, equal, one
connected component, or two connected components, the components being points
or closed segments.  The classifier scans the first circle's parametrization,
detects zero crossings and tolerance-band plateaus of the distance residual,
and refines them by bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
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

    ts = np.linspace(0.0, _TWO_PI, grid_n, endpoint=False)
    step = _TWO_PI / grid_n
    if isinstance(space, PlaneSpace):
        rho = space.boundary.rho_arr(ts)
    else:
        rho = np.ones_like(ts)
    ux = rho * np.cos(ts)
    uy = rho * np.sin(ts)
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

    runs = _circular_runs(in_band)
    components: List[Tuple[float, Component]] = []
    claimed = np.zeros(grid_n, dtype=bool)

    for start, length in runs:
        idxs = [(start + j) % grid_n for j in range(length)]
        before = (start - 1) % grid_n
        after = (start + length) % grid_n
        if length >= 3:
            t_a = _refine_band_edge(h_at, ts[before], step, tol)
            t_b = _refine_band_edge(h_at, ts[before] + step * (length + 1),
                                    -step, tol)
            seg = ClosedSegment(point_at(t_a), point_at(t_b))
            components.append((ts[idxs[0]], seg))
        else:
            if h[before] * h[after] < 0.0:
                t_star = _refine_zero(h_at, ts[before],
                                      ts[before] + step * (length + 1),
                                      h[before])
                components.append((t_star % _TWO_PI,
                                   IsolatedPoint(point_at(t_star))))
            else:
                raise GridTooCoarse(
                    f"band entered and left within {length} cell(s) near "
                    f"t={ts[idxs[0]]:.6f}; raise grid_n or tol")
        for j in idxs:
            claimed[j] = True

    # transversal crossings with no in-band sample
    sign = h > 0.0
    flips = np.nonzero(sign != np.roll(sign, -1))[0]
    for i in flips:
        j = (i + 1) % grid_n
        if claimed[i] or claimed[j] or in_band[i] or in_band[j]:
            continue
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


def _circular_runs(mask: np.ndarray) -> List[Tuple[int, int]]:
    """Maximal runs of True in a circular boolean array: (start, length)."""
    n = len(mask)
    if mask.all():
        return [(0, n)]
    runs = []
    i = 0
    # rotate so position 0 is False
    offset = int(np.argmin(mask))
    rolled = np.roll(mask, -offset)
    while i < n:
        if rolled[i]:
            j = i
            while j < n and rolled[j]:
                j += 1
            runs.append(((i + offset) % n, j - i))
            i = j
        else:
            i += 1
    return runs


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
