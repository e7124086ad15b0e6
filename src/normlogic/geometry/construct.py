"""Construction of the main plane: parameters and unit-circle assembly.

The recipe: pick the smallest M passing the concavity gate (or a configured
M), pick the first rational q from the candidate list for which the two
boundary markers w1 (near e1) and w2 (near e2) end up base-norm distance
d > 3/4 apart, then scan rational radii r just above d/3 until the base-norm
circles of radii r about w1 and 2r about w2 meet at a point w3 strictly
north-east of the segment [w1, w2] and strictly inside the euclidean unit
disc.  The unit circle of the constructed norm is then: the euclidean arc
from e1 to w1, the segments [w1, w3] and [w3, w2], the euclidean arc from w2
to e2, and the concave graph across the north-west quadrant closing at -e1.
Those pieces cover the angles [0, pi]; like every boundary, the unit circle
is antipodal, so their image under v -> -v is the other half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from ..config import Config
from ..errors import ConstructionFailed
from .boundary import (ArcPiece, BoundarySpec, GammaGraphPiece, PointPiece,
                       SegmentPiece)
from .curve import (bisect_root, concavity_gate, gamma_eval, graph_x_for_angle,
                    l0_norm, smallest_concave_m)
from .spaces import PlaneSpace
from .vec import E1, E2, Vec2

#: Radii tried on the grid above d/3 before the construction gives up.
_MAX_R_STEPS = 1024
#: How far check_params lets a marker's euclidean length and the segment
#: lengths r and 2r miss: the geometric tolerance.
_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class L1Params:
    """Everything needed to rebuild the constructed plane bit for bit."""
    m: int
    q: Fraction
    r: Fraction
    d: float
    w1: Vec2
    w2: Vec2
    w3: Vec2


def base_unit_point(theta: float, m: int) -> Vec2:
    """Unit vector of the base norm at angle theta in (pi/2, pi)."""
    x = graph_x_for_angle(theta, m)
    return Vec2(x, gamma_eval(x, m))


def _marker(axis: Vec2, near: float, q: float, m: int) -> Vec2:
    """Euclidean unit vector w = (cos t, sin t) with ||axis - w||_base = q,
    for the axis e1 at angle near = 0 or e2 at near = pi/2.  t is bracketed
    outward from near (halving the first step until the base distance is at
    most q, then stepping on until it reaches q) and bisected."""
    def f(t: float) -> float:
        return l0_norm(axis - Vec2(math.cos(t), math.sin(t)), m) - q

    step = 0.01 if near == 0.0 else -0.01
    inner = near + step
    while f(inner) > 0.0:
        inner = near + 0.5 * (inner - near)
        if abs(inner - near) < 1e-12:
            raise ConstructionFailed(f"marker near {axis}: no bracket")
    outer = inner
    while f(outer) < 0.0:
        outer += step
        if not 0.0 < outer < math.pi / 2:
            raise ConstructionFailed(
                f"marker near {axis}: base distance never reaches q={q}")
    inner, outer = bisect_root(lambda t: f(t) < 0.0, inner, outer)
    t = 0.5 * (inner + outer)
    return Vec2(math.cos(t), math.sin(t))


def _circle_meet(w1: Vec2, w2: Vec2, r: float, m: int) -> list:
    """All points w3 = w1 + r*u(theta) with ||w3 - w2||_base = 2r, u on the
    base unit circle's NW branch."""
    def residual(theta: float) -> Optional[float]:
        p = w1 + base_unit_point(theta, m).scale(r)
        dxy = p - w2
        if dxy.x * dxy.y >= 0.0:
            return None
        return l0_norm(dxy, m) - 2.0 * r

    n = 720
    lo_th = math.pi / 2 + 1e-9
    hi_th = math.pi - 1e-9
    prev_val = None
    prev_th = None
    hits = []
    for i in range(n + 1):
        th = lo_th + (hi_th - lo_th) * i / n
        val = residual(th)
        if val is None:
            prev_val = None
            continue
        if prev_val is not None and prev_val * val < 0.0:
            neg = prev_val < 0.0

            def on_prev_side(t: float) -> bool:
                # both bracket ends are in the domain; leaving it in between
                # would leave no sign to bisect on
                fm = residual(t)
                if fm is None:
                    raise ConstructionFailed(
                        f"w3: residual undefined inside its bracket at {t}")
                return (fm < 0.0) == neg

            a, b = bisect_root(on_prev_side, prev_th, th)
            hits.append(w1 + base_unit_point(0.5 * (a + b), m).scale(r))
        prev_val, prev_th = val, th
    return hits


def _north_east_of(p: Vec2, a: Vec2, b: Vec2) -> bool:
    """Strictly on the far side of line a-b from the origin."""
    side = (b - a).cross(p - a)
    origin_side = (b - a).cross(-a)
    return side * origin_side < 0.0


def assemble_boundary(params: L1Params) -> BoundarySpec:
    """Unit-circle pieces for the constructed plane, in ccw angle order."""
    t1 = params.w1.angle()
    t2 = params.w2.angle()
    return BoundarySpec(pieces=(
        ArcPiece(0.0, t1),
        SegmentPiece(params.w1, params.w3),
        SegmentPiece(params.w3, params.w2),
        ArcPiece(t2, math.pi / 2),
        GammaGraphPiece(params.m),
        PointPiece(Vec2(-1.0, 0.0)),
    ))


def check_params(params: L1Params, space: PlaneSpace) -> None:
    """Raise ConstructionFailed on the first violated parameter invariant."""
    p = params
    if not 0 < p.q < Fraction(1, 4):
        raise ConstructionFailed(f"q bound violated: q={p.q}")
    if not p.d > 0.75:
        raise ConstructionFailed(f"d > 3/4 violated: d={p.d}")
    if not (p.r > p.d / 3.0 and p.d / 3.0 >= 0.25):
        raise ConstructionFailed(f"r > d/3 >= 1/4 violated: r={p.r}, d={p.d}")
    for w in (p.w1, p.w2):
        if abs(w.hypot() - 1.0) > _CHECK_TOL:
            raise ConstructionFailed(f"marker not on euclidean circle: {w}")
        if not (w.x > 0 and w.y > 0):
            raise ConstructionFailed(f"marker outside open NE quadrant: {w}")
    if not p.w3.hypot() < 1.0:
        raise ConstructionFailed(f"w3 outside open unit disc: {p.w3}")
    if not _north_east_of(p.w3, p.w1, p.w2):
        raise ConstructionFailed(f"w3 not north-east of [w1, w2]: {p.w3}")
    if abs(space.norm(p.w1 - p.w3) - float(p.r)) > _CHECK_TOL:
        raise ConstructionFailed("segment [w1, w3] length differs from r")
    if abs(space.norm(p.w3 - p.w2) - 2.0 * float(p.r)) > _CHECK_TOL:
        raise ConstructionFailed("segment [w3, w2] length differs from 2r")


def construct_l1(config: Optional[Config] = None
                 ) -> Tuple[L1Params, PlaneSpace]:
    """Run the full construction for config's M, q candidates and radius
    step (Config() when None); deterministic for a fixed config."""
    cfg = config or Config()
    m = cfg.m if cfg.m is not None else smallest_concave_m()
    if not concavity_gate(m):
        raise ConstructionFailed(f"M={m} fails the concavity gate")

    chosen = None
    for q in cfg.q_candidates:
        if not 0 < q < Fraction(1, 4):
            continue
        w1 = _marker(E1, 0.0, float(q), m)
        w2 = _marker(E2, math.pi / 2, float(q), m)
        d = l0_norm(w1 - w2, m)
        if d > 0.75:
            chosen = (q, w1, w2, d)
            break
    if chosen is None:
        raise ConstructionFailed(
            "no candidate q gives both 0 < q < 1/4 and d > 3/4")
    q, w1, w2, d = chosen

    step = cfg.r_grid_step
    k0 = math.floor((d / 3.0) / float(step))
    for k in range(1, _MAX_R_STEPS + 1):
        r = (k0 + k) * step
        for w3 in _circle_meet(w1, w2, float(r), m):
            if w3.hypot() < 1.0 and _north_east_of(w3, w1, w2):
                params = L1Params(m=m, q=q, r=r, d=d, w1=w1, w2=w2, w3=w3)
                boundary = assemble_boundary(params)
                boundary.validate_convex()
                space = PlaneSpace(boundary)
                check_params(params, space)
                return params, space
    raise ConstructionFailed(
        f"no rational r on the step-{step} grid above d/3 yields a valid w3")
