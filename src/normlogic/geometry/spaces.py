"""Normed spaces: boundary-defined planes, euclidean spaces, and 2-sums.

Every space is immutable and every operation a pure function, so values are
safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from ..errors import DomainError, ZeroVector
from .boundary import BoundarySpec
from .vec import Vec2, as_vec2, seg_point_distance


@dataclass(frozen=True)
class PlaneSpace:
    """Two-dimensional space whose unit circle is a BoundarySpec."""
    boundary: BoundarySpec

    @property
    def dimension(self) -> int:
        return 2

    def norm(self, v) -> float:
        try:
            x, y = v
        except ValueError:
            raise DomainError(f"{v!r} is not a vector of dimension 2") \
                from None
        h = math.hypot(x, y)
        if h == 0.0:
            return 0.0
        return h / self.boundary.rho(math.atan2(y, x))

    def norm_arr(self, vs: np.ndarray) -> np.ndarray:
        """Norms of an (N, 2) array of vectors."""
        _check_rows(vs, 2)
        h = np.hypot(vs[:, 0], vs[:, 1])
        theta = np.arctan2(vs[:, 1], vs[:, 0])
        out = np.zeros(len(vs))
        # NaN rows go on to rho_arr, which raises on them as rho does
        nz = h != 0.0
        if nz.any():
            out[nz] = h[nz] / self.boundary.rho_arr(theta[nz])
        return out

    def unit_point(self, theta: float) -> Vec2:
        return self.boundary.unit_point(theta)


@dataclass(frozen=True)
class EuclideanSpace:
    dim: int

    @property
    def dimension(self) -> int:
        return self.dim

    def norm(self, v) -> float:
        return math.sqrt(math.fsum(c * c for c in _coords(v, self.dim)))

    def norm_arr(self, vs: np.ndarray) -> np.ndarray:
        """Norms of an (N, dim) array of vectors."""
        _check_rows(vs, self.dim)
        return np.sqrt(np.sum(vs * vs, axis=1))

    def unit_point(self, theta: float) -> Vec2:
        if self.dim != 2:
            raise DomainError("unit_point needs dimension 2")
        return Vec2.from_polar(1.0, theta)


@dataclass(frozen=True)
class TwoSumSpace:
    """2-sum: ||(u, v)|| = sqrt(||u||_left^2 + ||v||_right^2)."""
    left: "NormedSpace"
    right: "NormedSpace"

    @property
    def dimension(self) -> int:
        return self.left.dimension + self.right.dimension

    def split(self, v: Sequence[float]) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        v = _coords(v, self.dimension)
        k = self.left.dimension
        return v[:k], v[k:]

    def norm(self, v) -> float:
        u, w = self.split(v)
        return math.hypot(self.left.norm(u), self.right.norm(w))

    def norm_arr(self, vs: np.ndarray) -> np.ndarray:
        """Norms of an (N, dimension) array of vectors."""
        _check_rows(vs, self.dimension)
        k = self.left.dimension
        return np.hypot(self.left.norm_arr(vs[:, :k]),
                        self.right.norm_arr(vs[:, k:]))


NormedSpace = Union[PlaneSpace, EuclideanSpace, TwoSumSpace]


def two_sum(left: NormedSpace, right: NormedSpace) -> TwoSumSpace:
    return TwoSumSpace(left, right)


def norm(space: NormedSpace, v) -> float:
    """Norm of v in the given space (dimension must match)."""
    return space.norm(v)


def _coords(v, dim: int) -> Tuple[float, ...]:
    t = tuple(map(float, v))
    if len(t) != dim:
        raise DomainError(f"vector of dimension {len(t)}, space needs {dim}")
    return t


def _check_rows(vs: np.ndarray, dim: int) -> None:
    if vs.ndim != 2 or vs.shape[1] != dim:
        raise DomainError(f"array of shape {vs.shape}, space needs "
                          f"(N, {dim})")


def _add(v, w):
    if isinstance(v, Vec2) and isinstance(w, Vec2):
        return v + w
    return tuple(a + b for a, b in zip(v, w))


def _scale(k: float, v):
    if isinstance(v, Vec2):
        return v.scale(k)
    return tuple(k * a for a in v)


def aux_a(space: NormedSpace, v, w):
    """The comparison point a(v, w): a proper convex combination of v and
    (||v||/||w||) w whose norm equals ||v|| ||v+w|| / (||v|| + ||w||)."""
    nv, nw = space.norm(v), space.norm(w)
    if nv == 0.0 or nw == 0.0:
        raise ZeroVector("aux_a needs nonzero arguments")
    c = 1.0 / (nv + nw)
    return _add(_scale(nv * c, v), _scale(nw * c * (nv / nw), w))


def same_direction(space: NormedSpace, v, w, tol: float) -> bool:
    """Additive same-direction test: ||v + w|| = ||v|| + ||w|| within tol."""
    return abs(space.norm(_add(v, w)) - space.norm(v) - space.norm(w)) <= tol


_ROTUND_TOL = 1e-9  # distance at which a point is on a segment


def is_rotund(space: NormedSpace, v) -> bool:
    """Whether v/||v|| is not an endpoint of a proper segment of the unit circle.

    Euclidean spaces are strictly convex.  On a plane, the answer is exact
    and read from the boundary's segment pieces alone: the normalized point
    is rotund iff it avoids every closed segment and, the boundary being
    antipodal, every segment's antipode.  That holds because the unit
    circle has a flat stretch only where it has a segment piece: arcs are
    euclidean, point pieces have zero width, and the graph is strictly
    concave for every M that passes ``concavity_gate``, which the
    construction refuses any other M for.  A boundary without segments
    has no flat stretch, so every point of it is rotund.
    """
    if isinstance(space, EuclideanSpace):
        if space.norm(v) == 0.0:
            raise ZeroVector("rotundity is about nonzero points")
        return True
    if not isinstance(space, PlaneSpace):
        raise DomainError("rotundity test implemented for plane spaces")
    n = space.norm(v)
    if n == 0.0:
        raise ZeroVector("rotundity is about nonzero points")
    p = as_vec2(v).scale(1.0 / n)
    for s in space.boundary.segments():
        if seg_point_distance(p, s.a, s.b) <= _ROTUND_TOL or \
                seg_point_distance(p, -s.a, -s.b) <= _ROTUND_TOL:
            return False
    return True
