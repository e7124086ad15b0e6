"""Plane vectors and the distance from a point to a segment."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..errors import DomainError


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError(f"non-finite coordinates ({self.x}, {self.y})")

    def __iter__(self):
        """The coordinates x, y: a Vec2 reads as any sequence of floats."""
        return iter((self.x, self.y))

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def scale(self, k: float) -> "Vec2":
        return Vec2(k * self.x, k * self.y)

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        return self.x * other.y - self.y * other.x

    def hypot(self) -> float:
        return math.hypot(self.x, self.y)

    def angle(self) -> float:
        return math.atan2(self.y, self.x)

    def as_tuple(self) -> Tuple[float, float]:
        return (self.x, self.y)

    @staticmethod
    def from_polar(radius: float, theta: float) -> "Vec2":
        return Vec2(radius * math.cos(theta), radius * math.sin(theta))


E1 = Vec2(1.0, 0.0)
E2 = Vec2(0.0, 1.0)


def as_vec2(v) -> Vec2:
    x, y = v
    return Vec2(float(x), float(y))


def seg_point_distance(p: Vec2, a: Vec2, b: Vec2) -> float:
    """Euclidean distance from p to the closed segment [a, b]."""
    ab = b - a
    denom = ab.dot(ab)
    if denom == 0.0:
        return (p - a).hypot()
    t = (p - a).dot(ab) / denom
    t = min(1.0, max(0.0, t))
    return (p - (a + ab.scale(t))).hypot()
