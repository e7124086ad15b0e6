"""Circle-intersection classifier against closed-form and crafted cases."""

import math

import numpy as np
import pytest

from normlogic.errors import DomainError, GridTooCoarse
from normlogic.geometry import (Classification, ClosedSegment, EuclideanSpace,
                                IsolatedPoint, Vec2, intersect_circles)
from normlogic.geometry.curve import bisect_root

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
        for a in _scan_grid(sp, 64)[:4]:
            with pytest.raises(ValueError):
                a[0] = 0.0


def test_euclidean_and_plane_grids_kept_apart(l1):
    from normlogic.geometry.intersect import _scan_grid
    _, space = l1
    _scan_grid.cache_clear()
    e_ts, e_ux, e_uy = _scan_grid(E, 1024)[:3]
    p_ts, p_ux, p_uy = _scan_grid(space, 1024)[:3]
    assert _scan_grid.cache_info().misses == 2
    assert np.array_equal(e_ts, p_ts)
    assert np.array_equal(e_ux, np.cos(e_ts))
    rho = space.boundary.rho_arr(p_ts)
    assert np.array_equal(p_ux, rho * np.cos(p_ts))
    assert np.array_equal(p_uy, rho * np.sin(p_ts))
    # the plane's unit circle is not the euclidean one off the axes
    assert not np.array_equal(e_ux, p_ux)
    assert _scan_grid(E, 1024)[1] is e_ux


# -- argument checks ------------------------------------------------------------

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("p, r, q, s", [
    ((NAN, 0.0), 1.0, (1.0, 0.0), 1.0),
    ((0.0, 0.0), 1.0, (1.0, INF), 1.0),
], ids=["nan-centre", "infinite-centre"])
def test_non_finite_centre_rejected(p, r, q, s):
    with pytest.raises(DomainError):
        intersect_circles(E, p, r, q, s)


@pytest.mark.parametrize("r, s", [(NAN, 1.0), (1.0, NAN), (INF, 1.0)],
                         ids=["nan-r", "nan-s", "infinite-r"])
def test_non_finite_radius_rejected(r, s):
    # a NaN radius is not <= 0.0; it used to be classified Disjoint
    with pytest.raises(DomainError):
        intersect_circles(E, Vec2(0, 0), r, Vec2(1, 0), s)


@pytest.mark.parametrize("tol", [NAN, -1e-9], ids=["nan", "negative"])
def test_bad_tol_rejected(tol):
    with pytest.raises(DomainError):
        intersect_circles(E, Vec2(0, 0), 1.0, Vec2(1, 0), 1.0, tol=tol)


@pytest.mark.parametrize("grid_n", [0, -8, 64.0, True, "64"],
                         ids=["zero", "negative", "float", "bool", "str"])
def test_bad_grid_n_rejected(grid_n):
    with pytest.raises(DomainError):
        intersect_circles(E, Vec2(0, 0), 1.0, Vec2(1, 0), 1.0, grid_n=grid_n)


def test_numpy_integer_grid_n_accepted():
    rep = intersect_circles(E, Vec2(0, 0), 1.0, Vec2(1, 0), 1.0,
                            grid_n=np.int64(4096))
    assert rep.classification is Classification.TWO_COMPONENTS


# -- the certified scan against a dense one -------------------------------------

def _dense_scan(space, grid, p, r, q, s, tol):
    """The scan the certified one replaces: h at every grid sample."""
    ts, ux, uy = grid[:3]
    h = space.norm_arr(np.column_stack([p.x + r * ux - q.x,
                                        p.y + r * uy - q.y])) - s
    return np.abs(h) <= tol, h > 0.0


def _outcome(space, p, r, q, s, grid_n, tol):
    """The report of a call, or the message of its GridTooCoarse."""
    try:
        return intersect_circles(space, p, r, q, s, grid_n=grid_n, tol=tol)
    except GridTooCoarse as e:
        return f"GridTooCoarse: {e}"


def _assert_scans_agree(space, p, r, q, s, grid_n, tol=1e-9, report=True):
    from normlogic.geometry import intersect
    grid = intersect._scan_grid(space, grid_n)
    in_band, sign = intersect._scan(space, grid, p, r, q, s, tol)
    dense_in_band, dense_sign = _dense_scan(space, grid, p, r, q, s, tol)
    assert np.array_equal(in_band, dense_in_band)
    assert np.array_equal(sign, dense_sign)
    if report:
        certified = _outcome(space, p, r, q, s, grid_n, tol)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intersect, "_scan", _dense_scan)
            dense = _outcome(space, p, r, q, s, grid_n, tol)
        assert certified == dense


#: grid sizes off the cell size: below one cell, one off a multiple of it,
#: and a short last cell
_ODD_GRIDS = (1, 2, 7, 31, 33, 100, 1000, 4097, 8191)


def _random_pairs(plane):
    """600 seeded pairs, (space, p, r, q, s, grid_n), alternating between
    the euclidean plane and the constructed one."""
    rng = np.random.default_rng(21)
    for k in range(600):
        space = (E, plane)[k % 2]
        p = Vec2(*rng.uniform(-1.0, 1.0, 2))
        q = Vec2(*rng.uniform(-2.0, 2.0, 2))
        r, s = rng.uniform(0.2, 2.5, 2)
        yield space, p, r, q, s, _ODD_GRIDS[k % len(_ODD_GRIDS)]


def test_certified_scan_matches_dense_on_random_pairs(l1):
    for k, pair in enumerate(_random_pairs(l1[1])):
        _assert_scans_agree(*pair, report=k < 120)


def _crafted_pairs(params, plane):
    """Tangencies, long segments, concentric and equal circles, bands
    touched mid-cell and at the certificate's edge, as (space, p, r, q, s,
    grid_n)."""
    from normlogic.geometry import intersect
    shift = (params.w3 - params.w1).scale(0.2)
    lam = 1.2
    cases = [
        # tangent circles, internally (unresolved, then resolved) and
        # externally, and the rotund tangency of the plane
        (E, Vec2(0, 0), 1.0, Vec2(0.5, 0), 0.5, 512),
        (E, Vec2(0, 0), 1.0, Vec2(0.5, 0), 0.5, 4096),
        (E, Vec2(0, 0), 1.0, Vec2(2, 0), 1.0, 4096),
        (plane, Vec2(0, 0), 1.0, Vec2(0.5, 0), 1.5, 8192),
        # segment components spanning many cells
        (plane, Vec2(0, 0), 1.0, shift, 1.0, 8192),
        (plane, Vec2(0, 0), 1.0, params.w3.scale(1 - lam), lam, 8192),
        # concentric and equal circles
        (E, Vec2(0.3, 0.2), 1.0, Vec2(0.3, 0.2), 2.0, 4096),
        (plane, Vec2(0, 0), 1.5, Vec2(0, 0), 1.0, 1000),
        (E, Vec2(0.3, 0.2), 1.5, Vec2(0.3, 0.2), 1.5, 4097),
        (plane, Vec2(0, 0), 1.0, Vec2(0, 0), 1.0, 8192),
    ]
    # a band touched mid-cell: a circle internally tangent to S(0, 1) at
    # the unit point of a sample in the middle of a cell, in band or just
    # clear of it, and a circle through that point
    for space, grid_n, i in [(E, 4096, 16 + 32 * 40), (E, 1000, 16),
                             (plane, 8192, 16 + 32 * 170)]:
        ts, ux, uy = intersect._scan_grid(space, grid_n)[:3]
        u = Vec2(float(ux[i]), float(uy[i]))
        for gap in (0.0, 3e-9):
            cases.append((space, Vec2(0, 0), 1.0, u.scale(0.5),
                          0.5 - gap, grid_n))
        cases.append((space, Vec2(0, 0), 1.0, u.scale(1.5), 0.6, grid_n))
    # the certificate's edge: q lies on the line through a cell's start
    # and its last sample, beyond the last sample, so h falls by the whole
    # chord, r*R, across the cell, and the last sample is tol/2 above 0
    ts, ux, uy = intersect._scan_grid(E, 4096)[:3]
    a, i = 32 * 7, 32 * 7 + 31
    d = Vec2(ux[i] - ux[a], uy[i] - uy[a])
    q = Vec2(ux[i], uy[i]) + d.scale(0.5 / d.hypot())
    cases.append((E, Vec2(0, 0), 1.0, q, 0.5 - 0.5e-9, 4096))
    return cases


def test_certified_scan_matches_dense_on_crafted_pairs(l1):
    for pair in _crafted_pairs(*l1):
        _assert_scans_agree(*pair)


def test_certified_scan_evaluates_a_fraction_of_the_grid(l1, monkeypatch):
    # the point of the certificate: most cells are settled by their start
    from normlogic.geometry import intersect
    params, plane = l1
    rows = []
    residual = intersect._residual

    def counting(space, ux, uy, *rest):
        rows.append(len(ux))
        return residual(space, ux, uy, *rest)

    monkeypatch.setattr(intersect, "_residual", counting)
    for space, p, r, q, s in [(E, Vec2(0, 0), 1.0, Vec2(1, 0), 1.0),
                              (plane, params.w1, float(params.q),
                               Vec2(0, 0), 1.0)]:
        rows.clear()
        intersect_circles(space, p, r, q, s, grid_n=8192)
        assert sum(rows) < 0.2 * 8192


def test_norm_arr_rows_do_not_depend_on_the_call(l1):
    # the certified scan evaluates a subset of the rows a dense scan does,
    # and its masks equal the dense ones only if each row's norm does not
    # depend on the other rows of the call
    from normlogic.geometry import intersect
    _, plane = l1
    rng = np.random.default_rng(5)
    for space in (E, plane):
        ts, ux, uy = intersect._scan_grid(space, 8191)[:3]
        vs = np.column_stack([0.3 + 1.7 * ux - 0.9, -0.2 + 1.7 * uy + 0.4])
        vs = np.vstack([vs, rng.uniform(-3.0, 3.0, (4096, 2))])
        full = space.norm_arr(vs)
        subsets = [np.flatnonzero(rng.random(len(vs)) < share)
                   for share in (0.01, 0.1, 0.5, 0.9)]
        subsets += [np.arange(1, len(vs), 32), np.arange(3, 40),
                    np.array([len(vs) - 1])]
        for rows in subsets:
            assert np.array_equal(space.norm_arr(vs[rows]), full[rows])


# -- the cached cell radius, controlled -----------------------------------------

def _spread_within_margin(space, grid_n, scale):
    """Whether, with q = p + r*u(cell start) for each cell in turn, the
    largest |h_i - h_start| over the cell equals r times the cell's radius
    (scaled by `scale`) within the rounding allowance: the cell's sample
    farthest from its start then sets the spread, which must neither pass
    the certificate's margin nor fall short of it by more than eps."""
    from normlogic.geometry import intersect
    grid = intersect._scan_grid(space, grid_n)
    ts, ux, uy, radius, coord = grid
    grid = (ts, ux, uy, radius * scale, coord)
    p, r, s, tol = Vec2(0.3, -0.7), 1.7, 0.9, 1e-9
    cell = intersect._CELL
    for k, a in enumerate(range(0, grid_n, cell)):
        q = Vec2(p.x + r * ux[a], p.y + r * uy[a])
        h = space.norm_arr(np.column_stack([
            p.x + r * ux[a:a + cell] - q.x,
            p.y + r * uy[a:a + cell] - q.y])) - s
        spread = float(np.max(np.abs(h - h[0])))
        margin = float(intersect._margin(grid, h[:1], p, r, q, s, tol)[k])
        eps = margin - r * float(grid[3][k])
        if not r * grid[3][k] - eps <= spread <= margin:
            return False
    return True


@pytest.mark.parametrize("scale, holds", [(1.0, True), (0.5, False),
                                          (2.0, False)])
def test_cell_radius_sets_the_residual_spread(l1, scale, holds):
    # a radius scaled by 0.5 understates the spread, and the certificate
    # built on it would claim in-band samples out of band; one scaled by 2
    # is sound but loose, and must fail too
    _, plane = l1
    for space, grid_n in [(E, 4096), (E, 1000), (plane, 8192),
                          (plane, 1000)]:
        assert _spread_within_margin(space, grid_n, scale) is holds


# -- the refinements against bisection ------------------------------------------

def _bisect_zero(h_at, t_lo, t_hi, neg_lo):
    """The zero refinement by bisection, as brent_root's reference."""
    t_lo, t_hi = bisect_root(lambda t: (h_at(t) < 0.0) == neg_lo, t_lo, t_hi)
    return 0.5 * (t_lo + t_hi)


def _bisect_band_edge(h_at, t_out, step, tol):
    """The band-edge refinement by bisection, as brent_root's reference."""
    _, t_in = bisect_root(lambda t: abs(h_at(t)) > tol, t_out, t_out + step)
    return t_in


def _refined(pair, zero, band_edge):
    """(outcome, zeros, edges, probes) of one call with the given
    refinements: its report or GridTooCoarse message, the angle of each
    zero, |h| - tol at each band edge, and the h_at probes of each
    refinement."""
    from normlogic.geometry import intersect
    zeros, edges, probes = [], [], []

    def counting(h_at):
        probes.append(0)

        def probe(t):
            probes[-1] += 1
            return h_at(t)
        return probe

    def record_zero(h_at, *args):
        t = zero(counting(h_at), *args)
        zeros.append(t)
        return t

    def record_edge(h_at, t_out, step, tol):
        t = band_edge(counting(h_at), t_out, step, tol)
        edges.append(abs(h_at(t)) - tol)
        return t

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intersect, "_refine_zero", record_zero)
        mp.setattr(intersect, "_refine_band_edge", record_edge)
        return _outcome(*pair, tol=1e-9), zeros, edges, probes


def _segment_pairs(params, plane):
    """Slides along the two segments of the unit circle and homotheties
    about their common vertex w3: pairs whose components are segments."""
    pairs = []
    for c in (0.1, 0.3):
        for a, b in ((params.w1, params.w3), (params.w3, params.w2)):
            pairs.append((plane, Vec2(0, 0), 1.0, (b - a).scale(c), 1.0,
                          8192))
    for lam in (0.6, 0.8, 1.2, 1.4):
        pairs.append((plane, Vec2(0, 0), 1.0, params.w3.scale(1 - lam), lam,
                      8192))
    return pairs


def _refinement_pairs(params, plane):
    return list(_random_pairs(plane)) + _crafted_pairs(params, plane) \
        + _segment_pairs(params, plane)


def _shape(outcome):
    if isinstance(outcome, str):
        return outcome
    return outcome.classification, [type(c) for c in outcome.components]


def test_refinements_match_bisection(l1):
    from normlogic.geometry import intersect
    zeros = edges = 0
    for pair in _refinement_pairs(*l1):
        got, got_zeros, got_edges, _ = _refined(
            pair, intersect._refine_zero, intersect._refine_band_edge)
        ref, ref_zeros, _, _ = _refined(pair, _bisect_zero,
                                        _bisect_band_edge)
        assert _shape(got) == _shape(ref)
        assert len(got_zeros) == len(ref_zeros)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(got_zeros, ref_zeros))
        assert all(g <= 0.0 for g in got_edges)
        zeros += len(got_zeros)
        edges += len(got_edges)
    # both refinements ran, many times
    assert zeros > 500 and edges > 20


def test_refinements_take_few_probes(l1):
    # bisection takes about 46 probes per refinement on these pairs; a
    # mean of 20 leaves room for hard crossings but not for a fallback
    from normlogic.geometry import intersect
    params, plane = l1
    pairs = [pair for pair in _refinement_pairs(params, plane)
             if pair[0] is plane]
    for zero, band_edge, holds in [
            (intersect._refine_zero, intersect._refine_band_edge, True),
            (_bisect_zero, _bisect_band_edge, False)]:
        probes = [n for pair in pairs
                  for n in _refined(pair, zero, band_edge)[3]]
        assert len(probes) > 200
        assert (sum(probes) / len(probes) <= 20) is holds
