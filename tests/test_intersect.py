"""Circle-intersection classifier against closed-form and crafted cases."""

import math

import numpy as np
import pytest

from normlogic.errors import DomainError
from normlogic.geometry import (Classification, ClosedSegment, EuclideanSpace,
                                IsolatedPoint, Vec2, intersect_circles)

E = EuclideanSpace(2)


def test_euclidean_two_point_closed_form():
    rep = intersect_circles(E, Vec2(0, 0), 1.0, Vec2(1, 0), 1.0)
    assert rep.classification is Classification.TWO_COMPONENTS
    pts = sorted([c.p for c in rep.components], key=lambda v: v.y)
    half = 0.5
    root3_half = math.sqrt(3.0) / 2.0
    assert pts[0].x == pytest.approx(half, abs=1e-9)
    assert pts[0].y == pytest.approx(-root3_half, abs=1e-9)
    assert pts[1].x == pytest.approx(half, abs=1e-9)
    assert pts[1].y == pytest.approx(root3_half, abs=1e-9)


def test_equal_circles():
    rep = intersect_circles(E, Vec2(0.2, -0.1), 1.5, Vec2(0.2, -0.1), 1.5)
    assert rep.classification is Classification.EQUAL
    assert rep.components == ()


def test_disjoint_far_apart():
    rep = intersect_circles(E, Vec2(0, 0), 1.0, Vec2(4, 0), 1.0)
    assert rep.classification is Classification.DISJOINT


def test_disjoint_nested():
    rep = intersect_circles(E, Vec2(0, 0), 2.0, Vec2(0.1, 0), 0.5)
    assert rep.classification is Classification.DISJOINT


def test_reported_points_lie_on_both_circles(l1):
    params, space = l1
    rep = intersect_circles(space, params.w1, float(params.q),
                            Vec2(0, 0), 1.0, tol=1e-9)
    assert rep.classification is Classification.TWO_COMPONENTS
    for c in rep.components:
        assert isinstance(c, IsolatedPoint)
        assert abs(space.norm(c.p - params.w1) - float(params.q)) <= 1e-9
        assert abs(space.norm(c.p) - 1.0) <= 1e-9


def test_two_point_lemma_instance(l1):
    # S(w1, q) crosses the unit circle in exactly e1 and a point of [w1, w3]
    params, space = l1
    rep = intersect_circles(space, params.w1, float(params.q), Vec2(0, 0), 1.0)
    assert rep.classification is Classification.TWO_COMPONENTS
    pts = [c.p for c in rep.components]
    near_e1 = min(pts, key=lambda v: (v - Vec2(1, 0)).hypot())
    other = max(pts, key=lambda v: (v - Vec2(1, 0)).hypot())
    assert (near_e1 - Vec2(1, 0)).hypot() <= 1e-9
    # the other point sits on the segment [w1, w3]
    from normlogic.geometry.vec import seg_point_distance
    assert seg_point_distance(other, params.w1, params.w3) <= 1e-9


def test_segment_slide_two_segments(l1):
    params, space = l1
    shift = (params.w3 - params.w1).scale(0.2)
    rep = intersect_circles(space, Vec2(0, 0), 1.0, shift, 1.0, grid_n=8192)
    assert rep.classification is Classification.TWO_COMPONENTS
    assert all(isinstance(c, ClosedSegment) for c in rep.components)
    for c in rep.components:
        # both endpoints on both circles
        for pt in (c.a, c.b):
            assert abs(space.norm(pt) - 1.0) <= 1e-8
            assert abs(space.norm(pt - shift) - 1.0) <= 1e-8


def test_scale_about_vertex_one_component(l1):
    # homothety fixing w3 with ratio slightly above 1 pins the intersection
    # to the two segments meeting at w3: a single bent component
    params, space = l1
    lam = 1.2
    center = params.w3.scale(1.0 - lam)
    rep = intersect_circles(space, Vec2(0, 0), 1.0, center, lam, grid_n=16384)
    assert rep.classification is Classification.ONE_COMPONENT
    (comp,) = rep.components
    assert isinstance(comp, ClosedSegment)
    # w3 lies between the endpoints of the reported component
    from normlogic.geometry.vec import seg_point_distance
    d_a = (comp.a - params.w3).hypot()
    d_b = (comp.b - params.w3).hypot()
    assert d_a > 1e-3 and d_b > 1e-3
    assert seg_point_distance(params.w3, comp.a, params.w3) <= 1e-9


def test_invalid_radius():
    with pytest.raises(DomainError):
        intersect_circles(E, Vec2(0, 0), -1.0, Vec2(1, 0), 1.0)


def test_grid_too_coarse_on_unresolved_tangency():
    # internally tangent circles touch at (1, 0); the residual is a
    # one-sided parabola whose tolerance band is narrower than a coarse
    # grid cell, so the single in-band sample is ambiguous
    from normlogic.errors import GridTooCoarse
    with pytest.raises(GridTooCoarse):
        intersect_circles(E, Vec2(0, 0), 1.0, Vec2(0.5, 0), 0.5,
                          grid_n=512, tol=1e-9)


def test_tangency_resolved_with_fine_grid():
    # with enough samples the band around the touch point spans >= 3 cells
    # and comes back as a tiny component at (1, 0)
    rep = intersect_circles(E, Vec2(0, 0), 1.0, Vec2(0.5, 0), 0.5,
                            grid_n=400_000, tol=1e-9)
    assert rep.classification is Classification.ONE_COMPONENT
    (comp,) = rep.components
    a, b = (comp.a, comp.b) if isinstance(comp, ClosedSegment) else \
        (comp.p, comp.p)
    assert (a - Vec2(1, 0)).hypot() <= 1e-4
    assert (b - Vec2(1, 0)).hypot() <= 1e-4


def _python_runs(mask):
    """Maximal runs of True in a circular list, as (start, length), by a
    walk around the circle from its first False entry."""
    n = len(mask)
    if all(mask):
        return [(0, n)]
    first = mask.index(False)
    runs = []
    for k in range(1, n + 1):
        i = (first + k) % n
        if mask[i] and not mask[i - 1]:
            runs.append([i, 0])
        if mask[i]:
            runs[-1][1] += 1
    return [tuple(run) for run in runs]


def _masks():
    """200 circular masks: the edge cases, then random ones, half of which
    start and end in a run, so that one run wraps around."""
    rng = np.random.default_rng(8)
    masks = [[True] * 7, [False] * 7, [True], [False],
             [True, False, True], [True, True, False, False, True]]
    while len(masks) < 200:
        n = int(rng.integers(1, 60))
        mask = (rng.random(n) < rng.uniform(0.1, 0.9)).tolist()
        if len(masks) % 2 and n > 2:
            mask[0] = mask[-1] = True
        masks.append(mask)
    assert sum(m[0] and m[-1] and not all(m) for m in masks) >= 90
    return masks


def test_oracle_run_finder_matches_python_walk():
    from normlogic.verify import _in_band_runs
    for mask in _masks():
        assert _in_band_runs(np.array(mask)) == _python_runs(mask), mask


def test_classifier_run_finder_matches_python_walk():
    from normlogic.geometry.intersect import _circular_runs
    for mask in _masks():
        assert _circular_runs(np.array(mask)) == _python_runs(mask), mask


def test_cold_and_warm_grid_give_equal_reports(l1):
    from normlogic.geometry.intersect import _scan_grid
    params, space = l1
    shift = (params.w3 - params.w1).scale(0.2)
    for args in [(space, params.w1, float(params.q), Vec2(0, 0), 1.0),
                 (space, Vec2(0, 0), 1.0, shift, 1.0),
                 (E, Vec2(0, 0), 1.0, Vec2(1, 0), 1.0)]:
        _scan_grid.cache_clear()
        cold = intersect_circles(*args, grid_n=8192)
        assert _scan_grid.cache_info().misses == 1
        warm = intersect_circles(*args, grid_n=8192)
        assert _scan_grid.cache_info().hits == 1
        assert cold == warm


def test_cached_grid_is_read_only(l1):
    from normlogic.geometry.intersect import _scan_grid
    _, space = l1
    for sp in (E, space):
        for a in _scan_grid(sp, 64):
            with pytest.raises(ValueError):
                a[0] = 0.0


def test_euclidean_and_plane_grids_kept_apart(l1):
    from normlogic.geometry.intersect import _scan_grid
    _, space = l1
    _scan_grid.cache_clear()
    e_ts, e_ux, e_uy = _scan_grid(E, 1024)
    p_ts, p_ux, p_uy = _scan_grid(space, 1024)
    assert _scan_grid.cache_info().misses == 2
    assert np.array_equal(e_ts, p_ts)
    assert np.array_equal(e_ux, np.cos(e_ts))
    rho = space.boundary.rho_arr(p_ts)
    assert np.array_equal(p_ux, rho * np.cos(p_ts))
    assert np.array_equal(p_uy, rho * np.sin(p_ts))
    # the plane's unit circle is not the euclidean one off the axes
    assert not np.array_equal(e_ux, p_ux)
    assert _scan_grid(E, 1024)[1] is e_ux
