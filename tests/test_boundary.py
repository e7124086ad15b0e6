"""Boundary validation and radial-function regularity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlogic.config import Config
from normlogic.errors import DomainError
from normlogic.geometry import PlaneSpace, Vec2, construct_l1
from normlogic.geometry.boundary import (ArcPiece, BoundarySpec, PointPiece,
                                         SegmentPiece)
from normlogic.geometry.curve import rho_graph


def test_angular_gap_rejected():
    with pytest.raises(DomainError, match="gap"):
        BoundarySpec((ArcPiece(0.0, 1.0), ArcPiece(2.0, math.pi)))


def test_discontinuous_join_rejected():
    a = ArcPiece(0.0, 1.0)
    # segment starts at the right angle but the wrong radius
    seg = SegmentPiece(Vec2.from_polar(0.5, 1.0), Vec2.from_polar(0.5, 2.0))
    with pytest.raises(DomainError, match="discontinuous"):
        BoundarySpec((a, seg, ArcPiece(2.0, math.pi)))


def test_segment_through_origin_rejected():
    # its rho would be 0, and the ray at angle 0 runs along it
    with pytest.raises(DomainError, match="through 0"):
        BoundarySpec((SegmentPiece(Vec2(1.0, 0.0), Vec2(-1.0, 0.0)),))


def test_incomplete_coverage_rejected():
    with pytest.raises(DomainError, match="stop"):
        BoundarySpec((ArcPiece(0.0, 1.0),))


def test_rho_positive_and_lipschitz(l1_space):
    """Radial continuity on a dense grid, against an a-priori bound.

    For a convex body with the origin inside, |rho'| <= R sqrt(R^2 - r0^2)/r0
    where R is the max radius and r0 the inradius about the origin; the
    inradius of the inscribed grid polygon lower-bounds r0.
    """
    n = 100_000
    thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    rho = l1_space.boundary.rho_arr(thetas)
    assert np.all(rho > 0.0)
    xs = rho * np.cos(thetas)
    ys = rho * np.sin(thetas)
    # distance from origin to each chord of the inscribed polygon
    x2, y2 = np.roll(xs, -1), np.roll(ys, -1)
    cross = np.abs(xs * y2 - ys * x2)
    chord = np.hypot(x2 - xs, y2 - ys)
    r0 = float(np.min(cross / chord))
    r_max = float(rho.max())
    lip = r_max * math.sqrt(max(r_max ** 2 - r0 ** 2, 0.0)) / r0
    dtheta = 2.0 * math.pi / n
    jumps = np.abs(np.diff(rho))
    assert float(jumps.max()) <= lip * dtheta * 1.01 + 1e-12


def test_rho_matches_unit_point(l1_space):
    for theta in (0.0, 0.3, 1.0, math.pi / 2, 2.5, math.pi, 4.0):
        p = l1_space.unit_point(theta)
        assert l1_space.norm(p) == pytest.approx(1.0, abs=1e-12)


def test_antipodal_symmetry(l1_space):
    rho = l1_space.boundary.rho
    for theta in (0.1, 0.7, 2.0, 3.0):
        assert rho(theta) == pytest.approx(rho(theta + math.pi), abs=1e-12)


def test_point_piece_zero_width(l1_space):
    kinds = [type(p).__name__ for p in l1_space.boundary.pieces]
    assert kinds == ["ArcPiece", "SegmentPiece", "SegmentPiece", "ArcPiece",
                     "GammaGraphPiece", "PointPiece"]
    point = l1_space.boundary.pieces[-1]
    assert isinstance(point, PointPiece)
    assert point.at == Vec2(-1.0, 0.0)


def test_norms_safe_under_threads(l1_space):
    from concurrent.futures import ThreadPoolExecutor
    import random
    rng = random.Random(0)
    vecs = [Vec2(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(64)]
    expected = [l1_space.norm(v) for v in vecs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(l1_space.norm, vecs))
    assert results == expected


def _ranges(boundary):
    """Each piece's angle range [lo, hi], as rho's table holds it."""
    return [(lo, hi) for _, _, lo, hi, _, _ in boundary._table]


def _seam_angles(space):
    """The ends of every piece's angle range (0, w1, w3, w2, pi/2, pi) and
    their antipodes."""
    ends = sorted({t for lo, hi in _ranges(space.boundary) for t in (lo, hi)})
    return ends + [t + math.pi for t in ends]


@st.composite
def _angle(draw, space):
    ranges = _ranges(space.boundary)
    kind = draw(st.sampled_from(["piece", "seam", "any"]))
    if kind == "piece":
        lo, hi = draw(st.sampled_from(ranges))
        t = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
        return t + draw(st.sampled_from([0.0, math.pi]))
    if kind == "seam":
        t = draw(st.sampled_from(_seam_angles(space)))
        for _ in range(draw(st.integers(0, 4))):
            t = math.nextafter(t, draw(st.sampled_from([-math.inf,
                                                        math.inf])))
        return t + draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-7, -1e-7]))
    return draw(st.floats(-2.0 * math.pi, 4.0 * math.pi))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rho_arr_matches_rho_within_4_ulp(l1_space, data):
    thetas = data.draw(st.lists(_angle(l1_space), min_size=1, max_size=32))
    boundary = l1_space.boundary
    rho = boundary.rho_arr(np.array(thetas))
    for t, r in zip(thetas, rho):
        expected = boundary.rho(t)
        assert abs(r - expected) <= 4 * np.spacing(expected), t


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_norm_arr_matches_norm_within_1e_15(l1_space, data):
    n = data.draw(st.integers(1, 32))
    thetas = data.draw(st.lists(_angle(l1_space), min_size=n, max_size=n))
    radii = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    vs = np.array([[r * math.cos(t), r * math.sin(t)]
                   for t, r in zip(thetas, radii)])
    norms = l1_space.norm_arr(vs)
    for v, got in zip(vs, norms):
        expected = l1_space.norm(Vec2(*v))
        assert abs(got - expected) <= 1e-15 * expected, v


# -- rho against the piece loop ----------------------------------------------
#
# The reference below is rho as it was before the first-match table: each
# piece in order, its angle range, slack and clamp worked out on the spot,
# and each piece's radius computed from its fields.  The table must give the
# same float, or raise the same error, at every angle.


def _loop_rho(boundary, theta):
    t = theta % math.pi
    for piece in boundary.pieces:
        if isinstance(piece, PointPiece):
            if abs(t - piece.at.angle() % (2.0 * math.pi)) < 1e-15:
                return piece.at.hypot()
            continue
        if isinstance(piece, ArcPiece):
            lo, hi = piece.from_angle, piece.to_angle
        elif isinstance(piece, SegmentPiece):
            lo = piece.a.angle() % (2.0 * math.pi)
            hi = piece.b.angle() % (2.0 * math.pi)
        else:
            lo, hi = math.pi / 2.0, math.pi
        if lo - 1e-15 <= t <= hi + 1e-15:
            t = min(max(t, lo), hi)
            if isinstance(piece, ArcPiece):
                return 1.0
            if isinstance(piece, SegmentPiece):
                a, b = piece.a, piece.b
                nx, ny = b.y - a.y, a.x - b.x
                c = nx * a.x + ny * a.y
                return c / (nx * math.cos(t) + ny * math.sin(t))
            return rho_graph(t, piece.m)
    raise DomainError(f"no piece covers angle {t}")


def _ulps(t, n):
    """t and the n floats on each side of it."""
    out = [t]
    for direction in (-math.inf, math.inf):
        u = t
        for _ in range(n):
            u = math.nextafter(u, direction)
            out.append(u)
    return out


def _join_angles(boundary):
    """Every piece end, pi/2 and pi, each give or take 1 to 4 ulp, and the
    same shifted by -2pi, pi and 2pi."""
    ends = {t for lo, hi in _ranges(boundary) for t in (lo, hi)}
    ends |= {math.pi / 2.0, math.pi}
    near = [u for t in sorted(ends) for u in _ulps(t, 4)]
    return near + [u + k for u in near
                   for k in (-2.0 * math.pi, math.pi, 2.0 * math.pi)]


def _rho_outcome(rho, theta):
    try:
        return rho(theta)
    except DomainError as e:
        return str(e)


def _assert_rho_is_the_loop(boundary, thetas):
    for theta in thetas:
        got = _rho_outcome(boundary.rho, theta)
        want = _rho_outcome(lambda t: _loop_rho(boundary, t), theta)
        assert got == want, theta


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_rho_table_matches_piece_loop(m):
    _, space = construct_l1(Config(m=m))
    boundary = space.boundary
    rng = np.random.default_rng(m)
    seeded = rng.uniform(-4.0 * math.pi, 6.0 * math.pi, 10_000).tolist()
    _assert_rho_is_the_loop(boundary, seeded + _join_angles(boundary))


def test_rho_table_matches_piece_loop_on_point_pieces():
    # point pieces that come first at their angle, and radii that differ
    # from their neighbours' by less than the join tolerance, so that the
    # loop's exact test abs(t - lo) < 1e-15 decides the value; the gap of
    # 1e-12 before the second one is uncovered, and both raise there
    r = 1.0 + 5e-10
    boundary = BoundarySpec((
        PointPiece(Vec2(r, 0.0)),
        ArcPiece(0.0, 1.0 - 1e-12),
        PointPiece(Vec2.from_polar(r, 1.0)),
        ArcPiece(1.0, math.pi)))
    ends = [0.0, 1.0 - 1e-12, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, math.pi]
    thetas = [u for t in ends for u in _ulps(t, 12)]
    thetas += [t + math.pi for t in thetas]
    _assert_rho_is_the_loop(boundary, thetas)
    assert boundary.rho(0.0) == r and boundary.rho(1.0) == \
        Vec2.from_polar(r, 1.0).hypot()
    # the array twins decide each angle as the scalar ones do: the same
    # radius, or the same error
    space = PlaneSpace(boundary)
    for theta in thetas:
        got = _rho_outcome(lambda t: boundary.rho_arr(np.array([t]))[0],
                           theta)
        assert got == _rho_outcome(boundary.rho, theta), theta
        # norm_arr takes v's angle from np.arctan2, which can round an ulp
        # away from math.atan2's in norm, and here rho jumps by 5e-10 within
        # 1e-15 of an angle; so norm_arr is held to rho at its own angle,
        # and to norm wherever the two angles agree
        v = Vec2.from_polar(2.0, theta)
        vs = np.array([[v.x, v.y]])
        angle = float(np.arctan2(vs[:, 1], vs[:, 0])[0])
        got = _rho_outcome(lambda u: space.norm_arr(u)[0], vs)
        _assert_same_norm(got, _rho_outcome(
            lambda t: v.hypot() / boundary.rho(t), angle), theta)
        if angle == math.atan2(v.y, v.x):
            _assert_same_norm(got, _rho_outcome(space.norm, v), theta)


def _assert_same_norm(got, want, theta):
    """The same error message, or norms within 1e-15 of each other."""
    if isinstance(want, str):
        assert got == want, theta
    else:
        assert abs(got - want) <= 1e-15 * want, theta
