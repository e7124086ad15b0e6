"""Piecewise unit-circle descriptions and their radial functions.

A boundary is an ordered run of pieces covering the angle range [0, pi],
and it is always antipodal: a norm's unit circle is symmetric about 0, so
the pieces' image under v -> -v is the other half.  The radial function
rho(theta) = rho(theta + pi) gives the distance from the origin to the curve
in direction theta; the norm of a vector v is then |v|_e / rho(angle v).
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
_CONVEX_GRID = 4096  # angles on validate_convex's grid
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


def _piece_range(piece: Piece) -> Tuple[float, float]:
    if isinstance(piece, PointPiece):
        t = piece.at.angle() % _TWO_PI
        return (t, t)
    if isinstance(piece, GammaGraphPiece):
        return (math.pi / 2.0, math.pi)
    if isinstance(piece, ArcPiece):
        return (piece.from_angle, piece.to_angle)
    if isinstance(piece, SegmentPiece):
        return (piece.a.angle() % _TWO_PI, piece.b.angle() % _TWO_PI)
    raise TypeError(f"unknown piece {piece!r}")


def _piece_endpoints(piece: Piece) -> Tuple[Vec2, Vec2]:
    if isinstance(piece, PointPiece):
        return (piece.at, piece.at)
    if isinstance(piece, GammaGraphPiece):
        return (Vec2(0.0, 1.0), Vec2(-1.0, 0.0))
    if isinstance(piece, ArcPiece):
        return (Vec2.from_polar(1.0, piece.from_angle),
                Vec2.from_polar(1.0, piece.to_angle))
    return (piece.a, piece.b)


@dataclass(frozen=True)
class BoundarySpec:
    """Ordered pieces tracing a convex, origin-star-shaped curve."""
    pieces: Tuple[Piece, ...]

    def __post_init__(self):
        ranges = tuple(_piece_range(piece) for piece in self.pieces)
        prev_end = 0.0
        prev_pt = None
        for piece, (lo, hi) in zip(self.pieces, ranges):
            if lo - prev_end > 1e-9:
                raise DomainError(
                    f"angular gap before {piece!r}: {prev_end} -> {lo}")
            if isinstance(piece, SegmentPiece) and \
                    piece.a.cross(piece.b) == 0.0:
                # rho would be 0 on it, and the ray along it parallel to it
                raise DomainError(f"segment on a line through 0: {piece!r}")
            start_pt, end_pt = _piece_endpoints(piece)
            if prev_pt is not None and (start_pt - prev_pt).hypot() > 1e-9:
                raise DomainError(f"discontinuous join at {piece!r}")
            prev_end, prev_pt = hi, end_pt
        if math.pi - prev_end > 1e-9:
            raise DomainError(f"pieces stop at angle {prev_end}, need pi")
        # angle range of each piece, and rho's first-match table; not
        # fields, so equality and hashing still see only the pieces
        object.__setattr__(self, "_ranges", ranges)
        object.__setattr__(self, "_table", tuple(
            _entry(piece, lo, hi)
            for piece, (lo, hi) in zip(self.pieces, ranges)))

    # -- radial function ---------------------------------------------------

    def rho(self, theta: float) -> float:
        """Distance from 0 to the boundary in direction theta."""
        t = theta % math.pi
        for first, last, lo, hi, kernel in self._table:
            if first <= t <= last:
                # the clamp min(max(t, lo), hi), without two calls
                return kernel(lo if t < lo else hi if t > hi else t)
        raise DomainError(f"no piece covers angle {t}")

    def rho_arr(self, theta: np.ndarray) -> np.ndarray:
        """Vectorized radial function."""
        t = np.mod(theta, math.pi)
        out = np.full(t.shape, np.nan)
        todo = np.ones(t.shape, dtype=bool)
        for piece, (lo, hi) in zip(self.pieces, self._ranges):
            if isinstance(piece, PointPiece):
                continue
            mask = todo & (t >= lo - _SLACK) & (t <= hi + _SLACK)
            if not mask.any():
                continue
            tt = np.clip(t[mask], lo, hi)
            out[mask] = _rho_on_arr(piece, tt)
            todo &= ~mask
        if todo.any():
            raise DomainError("angles not covered by any piece")
        return out

    def unit_point(self, theta: float) -> Vec2:
        """The boundary point in direction theta (norm exactly 1)."""
        return Vec2.from_polar(self.rho(theta), theta)

    def segments(self) -> List[SegmentPiece]:
        return [p for p in self.pieces if isinstance(p, SegmentPiece)]

    def validate_convex(self) -> None:
        """Support-line test on a dense angle grid.

        Consecutive boundary points must always turn the same way (left, for
        ccw tracing) and rho must stay positive.
        """
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


def _entry(piece: Piece, lo: float, hi: float
           ) -> Tuple[float, float, float, float, Callable[[float], float]]:
    """rho's table entry for a piece with angle range [lo, hi]: the least
    and the greatest angle it claims, the range an angle is clamped to, and
    rho on the piece as a function of the clamped angle.

    A point piece claims the floats t with abs(t - lo) < _SLACK; t - lo
    rounds monotonically in t, so they form one run, found by stepping from
    lo -/+ _SLACK.  Any other piece claims [lo - _SLACK, hi + _SLACK].
    """
    if isinstance(piece, PointPiece):
        first = _step_into(lo - _SLACK, lo, -math.inf)
        last = _step_into(lo + _SLACK, lo, math.inf)
        return (first, last, lo, hi, partial(_constant, piece.at.hypot()))
    if isinstance(piece, ArcPiece):
        kernel = partial(_constant, 1.0)
    elif isinstance(piece, SegmentPiece):
        kernel = partial(_chord, _line(piece), lib=FLOATS)
    else:
        kernel = partial(rho_graph, m=piece.m)
    return (lo - _SLACK, hi + _SLACK, lo, hi, kernel)


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


def _rho_on_arr(piece: Piece, t: np.ndarray) -> np.ndarray:
    if isinstance(piece, ArcPiece):
        return np.ones_like(t)
    if isinstance(piece, SegmentPiece):
        return _chord(_line(piece), t, ARRAYS)
    if isinstance(piece, GammaGraphPiece):
        return rho_graph_arr(t, piece.m)
    raise TypeError(f"unknown piece {piece!r}")


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
