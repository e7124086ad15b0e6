"""Rotundity: the exact segment test, on planes with and without segments."""

import math
import random

import pytest

from normlogic.errors import ZeroVector
from normlogic.geometry import EuclideanSpace, PlaneSpace, Vec2, is_rotund
from normlogic.geometry.boundary import (ArcPiece, BoundarySpec,
                                        GammaGraphPiece, PointPiece)


def test_axis_points_rotund(l1_space):
    assert is_rotund(l1_space, Vec2(-1.0, 0.0))
    assert is_rotund(l1_space, Vec2(0.0, 1.0))
    assert is_rotund(l1_space, Vec2(1.0, 0.0))


def test_nw_quadrant_rotund(l1_space):
    rng = random.Random(21)
    for _ in range(300):
        theta = rng.uniform(math.pi / 2 + 1e-6, math.pi - 1e-6)
        v = l1_space.unit_point(theta)
        assert is_rotund(l1_space, v)
        assert is_rotund(l1_space, v.scale(2.7))  # rotundity is radial


def test_segment_points_not_rotund(l1):
    params, space = l1
    for (a, b) in ((params.w1, params.w3), (params.w3, params.w2)):
        for lam in (0.25, 0.5, 0.75):
            p = a.scale(lam) + b.scale(1 - lam)
            assert not is_rotund(space, p)
            assert not is_rotund(space, -p)
    for w in (params.w1, params.w2, params.w3):
        assert not is_rotund(space, w)
        assert not is_rotund(space, -w)


def test_zero_vector_rejected(l1_space):
    with pytest.raises(ZeroVector):
        is_rotund(l1_space, Vec2(0.0, 0.0))


def test_euclidean_everywhere_rotund():
    space = EuclideanSpace(2)
    assert is_rotund(space, Vec2(3.0, -4.0))


def test_sampling_fallback_on_segmentless_plane():
    # euclidean circle expressed as a plain boundary: no segment, no flats
    circle = PlaneSpace(BoundarySpec((ArcPiece(0.0, math.pi),)))
    assert is_rotund(circle, Vec2(0.6, 0.8))


def test_arc_graph_point_plane_rotund_on_the_graph(l1_params):
    # the constructed plane without its segments: every piece left is
    # curved or a point, so no point of it sits on a flat stretch
    m = l1_params.m
    space = PlaneSpace(BoundarySpec((ArcPiece(0.0, math.pi / 2),
                                     GammaGraphPiece(m),
                                     PointPiece(Vec2(-1.0, 0.0)))))
    for i in range(1, 400):
        v = space.unit_point(math.pi / 2 + i * (math.pi / 2) / 400)
        assert is_rotund(space, v)
        assert is_rotund(space, v.scale(-0.3))
