"""Piecewise unit-circle descriptions and their radial functions.

A boundary is an ordered run of pieces covering the angle range [0, pi],
and it is always antipodal: a norm's unit circle is symmetric about 0, so
the pieces' image under v -> -v is the other half.  The radial function
rho(theta) = rho(theta + pi) gives the distance from the origin to the curve
in direction theta; the norm of a vector v is then |v|_e / rho(angle v).

rho and its vectorized twin rho_arr read one table, built once per boundary:
for each piece, the angles it claims, the range it clamps them to, and its
radius as a function of the angle, for a float and for an array.  The first
entry that claims an angle decides it, in both.
A BoundarySpec is checked when made: DomainError unless the table claims
every angle of [0, pi], the pieces join, and the curve passes a support-line
test for convexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Tuple, Union

import numpy as np

from ..errors import DomainError
from .curve import ARRAYS, FLOATS, rho_graph, rho_graph_arr
from .vec import Vec2

_TWO_PI = 2.0 * math.pi
_CONVEX_GRID = 4096  # angles on the support-line test's grid
_CONVEX_TOL = 1e-9   # how far right one of its turns may go
_SLACK = 1e-15       # how far outside its angle range a piece reaches


@dataclass(frozen=True)
class PointPiece:
    """Zero-width closure marker, e.g. the graph endpoint (-1, 0)."""
    at: Vec2


@dataclass(frozen=True)
class GammaGraphPiece:
    """The concave graph over (-1, 0); occupies angles (pi/2, pi)."""
    m: int


@dataclass(frozen=True)
class ArcPiece:
    """Arc of the euclidean unit circle between two angles (ccw)."""
    from_angle: float
    to_angle: float


@dataclass(frozen=True)
class SegmentPiece:
    """Closed straight segment between two boundary points (ccw order)."""
    a: Vec2
    b: Vec2


Piece = Union[PointPiece, GammaGraphPiece, ArcPiece, SegmentPiece]


@dataclass(frozen=True)
class BoundarySpec:
    """Ordered pieces tracing a convex, origin-star-shaped curve."""
    pieces: Tuple[Piece, ...]

    def __post_init__(self):
        # rho's first-match table, one entry per piece; not a field, so
        # equality and hashing still see only the pieces
        table = tuple(_entry(piece) for piece in self.pieces)
        unclaimed = 0.0  # the least angle no earlier entry claims
        prev_pt = None
        for piece, (first, last, lo, hi, kernel, _) in zip(self.pieces, table):
            if first > unclaimed:
                raise DomainError(f"angular gap before {piece!r}: no piece "
                                  f"claims {unclaimed} to {first}")
            # a piece's ends are its radius at the ends of its range
            start_pt = Vec2.from_polar(kernel(lo), lo)
            if prev_pt is not None and (start_pt - prev_pt).hypot() > 1e-9:
                raise DomainError(f"discontinuous join at {piece!r}")
            unclaimed = max(unclaimed, math.nextafter(last, math.inf))
            prev_pt = Vec2.from_polar(kernel(hi), hi)
        if unclaimed <= math.pi:
            raise DomainError(f"pieces stop at angle {unclaimed}, need pi")
        object.__setattr__(self, "_table", table)
        self._check_convex()

    # -- radial function ---------------------------------------------------

    def rho(self, theta: float) -> float:
        """Distance from 0 to the boundary in direction theta."""
        t = theta % math.pi
        for first, last, lo, hi, kernel, _ in self._table:
            if first <= t <= last:
                # the clamp min(max(t, lo), hi), without two calls
                return kernel(lo if t < lo else hi if t > hi else t)
        raise DomainError(f"no piece covers angle {t}")

    def rho_arr(self, theta: np.ndarray) -> np.ndarray:
        """Vectorized rho: each angle is claimed and clamped by the same
        table entry as in rho, and the loop stops once all are claimed."""
        t = np.mod(theta, math.pi)
        out = np.empty(t.shape)
        todo = np.ones(t.shape, dtype=bool)
        for first, last, lo, hi, _, kernel in self._table:
            mask = todo & (t >= first) & (t <= last)
            if mask.any():
                out[mask] = kernel(np.clip(t[mask], lo, hi))
                todo &= ~mask
                if not todo.any():
                    return out
        if todo.any():
            raise DomainError(f"no piece covers angle {t[todo][0]}")
        return out

    def unit_point(self, theta: float) -> Vec2:
        """The boundary point in direction theta (norm exactly 1)."""
        return Vec2.from_polar(self.rho(theta), theta)

    def segments(self) -> List[SegmentPiece]:
        return [p for p in self.pieces if isinstance(p, SegmentPiece)]

    def _check_convex(self) -> None:
        """rho stays positive, and consecutive points of a dense angle grid
        always turn left (ccw tracing): a support-line test."""
        thetas = np.linspace(0.0, _TWO_PI, _CONVEX_GRID, endpoint=False)
        rhos = self.rho_arr(thetas)
        if not np.all(rhos > 0.0):
            raise DomainError("radial function not positive")
        xs = rhos * np.cos(thetas)
        ys = rhos * np.sin(thetas)
        ex = np.roll(xs, -1) - xs
        ey = np.roll(ys, -1) - ys
        cross = ex * np.roll(ey, -1) - ey * np.roll(ex, -1)
        if not np.all(cross > -_CONVEX_TOL):
            raise DomainError("support-line test failed: boundary not convex")


def _entry(piece: Piece) -> Tuple[float, float, float, float,
                                  Callable, Callable]:
    """rho's table entry for a piece: the least and the greatest angle it
    claims, its angle range [lo, hi], to which a claimed angle is clamped,
    and rho on the piece as a function of the clamped angle, for a float
    and for an array (a constant serves both; numpy broadcasts it).

    A point piece claims the floats t with abs(t - lo) < _SLACK; t - lo
    rounds monotonically in t, so they form one run, found by stepping from
    lo -/+ _SLACK.  Any other piece claims [lo - _SLACK, hi + _SLACK].
    """
    if isinstance(piece, PointPiece):
        lo = piece.at.angle() % _TWO_PI
        kernel = partial(_constant, piece.at.hypot())
        return (_step_into(lo - _SLACK, lo, -math.inf),
                _step_into(lo + _SLACK, lo, math.inf), lo, lo, kernel, kernel)
    if isinstance(piece, GammaGraphPiece):
        lo, hi = math.pi / 2.0, math.pi
        kernel = partial(rho_graph, m=piece.m)
        kernel_arr = partial(rho_graph_arr, m=piece.m)
    elif isinstance(piece, ArcPiece):
        lo, hi = piece.from_angle, piece.to_angle
        kernel = kernel_arr = partial(_constant, 1.0)
    elif isinstance(piece, SegmentPiece):
        if piece.a.cross(piece.b) == 0.0:
            # rho would be 0 on it, and the ray along it parallel to it
            raise DomainError(f"segment on a line through 0: {piece!r}")
        lo, hi = piece.a.angle() % _TWO_PI, piece.b.angle() % _TWO_PI
        line = _line(piece)
        kernel = partial(_chord, line, lib=FLOATS)
        kernel_arr = partial(_chord, line, lib=ARRAYS)
    else:
        raise TypeError(f"unknown piece {piece!r}")
    return (lo - _SLACK, hi + _SLACK, lo, hi, kernel, kernel_arr)


def _step_into(t: float, lo: float, outward: float) -> float:
    """The end toward `outward` (-inf or inf) of the run of floats within
    _SLACK of lo, stepped to from t, a float next to that end."""
    while abs(t - lo) < _SLACK:
        t = math.nextafter(t, outward)
    while not abs(t - lo) < _SLACK:
        t = math.nextafter(t, -outward)
    return t


def _constant(value: float, t: float) -> float:
    return value


def _line(piece: SegmentPiece) -> Tuple[float, float, float]:
    """(nx, ny, c) with nx x + ny y = c the line through the segment."""
    a, b = piece.a, piece.b
    nx, ny = b.y - a.y, a.x - b.x
    return nx, ny, nx * a.x + ny * a.y


def _chord(line: Tuple[float, float, float], t, lib):
    """Distance along the ray at angle t to a segment's line; BoundarySpec
    rejects segments whose line passes through 0, so a ray in the segment's
    angle range is never parallel to it."""
    nx, ny, c = line
    return c / (nx * lib.cos(t) + ny * lib.sin(t))
