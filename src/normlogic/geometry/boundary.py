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
from typing import List, Tuple, Union

import numpy as np

from ..errors import DomainError
from .curve import ARRAYS, FLOATS, rho_graph, rho_graph_arr
from .vec import Vec2

_TWO_PI = 2.0 * math.pi
_CONVEX_GRID = 4096  # angles on validate_convex's grid
_CONVEX_TOL = 1e-9   # how far right one of its turns may go


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
        # angle range of each piece, read by every rho call; not a field, so
        # equality and hashing still see only the pieces
        object.__setattr__(self, "_ranges", ranges)

    # -- radial function ---------------------------------------------------

    def rho(self, theta: float) -> float:
        """Distance from 0 to the boundary in direction theta."""
        t = theta % math.pi
        for piece, (lo, hi) in zip(self.pieces, self._ranges):
            if isinstance(piece, PointPiece):
                if abs(t - lo) < 1e-15:
                    return piece.at.hypot()
                continue
            if lo - 1e-15 <= t <= hi + 1e-15:
                return _rho_on(piece, min(max(t, lo), hi))
        raise DomainError(f"no piece covers angle {t}")

    def rho_arr(self, theta: np.ndarray) -> np.ndarray:
        """Vectorized radial function."""
        t = np.mod(theta, math.pi)
        out = np.full(t.shape, np.nan)
        todo = np.ones(t.shape, dtype=bool)
        for piece, (lo, hi) in zip(self.pieces, self._ranges):
            if isinstance(piece, PointPiece):
                continue
            mask = todo & (t >= lo - 1e-15) & (t <= hi + 1e-15)
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


def _rho_on(piece: Piece, t: float) -> float:
    if isinstance(piece, ArcPiece):
        return 1.0
    if isinstance(piece, SegmentPiece):
        return _chord(piece, t, FLOATS)
    if isinstance(piece, GammaGraphPiece):
        return rho_graph(t, piece.m)
    raise TypeError(f"unknown piece {piece!r}")


def _rho_on_arr(piece: Piece, t: np.ndarray) -> np.ndarray:
    if isinstance(piece, ArcPiece):
        return np.ones_like(t)
    if isinstance(piece, SegmentPiece):
        return _chord(piece, t, ARRAYS)
    if isinstance(piece, GammaGraphPiece):
        return rho_graph_arr(t, piece.m)
    raise TypeError(f"unknown piece {piece!r}")


def _chord(piece: SegmentPiece, t, lib):
    """Distance along the ray at angle t to the line through the segment;
    BoundarySpec rejects segments whose line passes through 0, so a ray in
    the segment's angle range is never parallel to it."""
    a, b = piece.a, piece.b
    nx, ny = b.y - a.y, a.x - b.x
    c = nx * a.x + ny * a.y
    return c / (nx * lib.cos(t) + ny * lib.sin(t))
