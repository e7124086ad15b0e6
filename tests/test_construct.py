"""Construction invariants and parameter serialization."""

import functools
from fractions import Fraction

import mpmath
import pytest

from normlogic.config import Config
from normlogic.errors import ConstructionFailed, DomainError
from normlogic.geometry import (Vec2, assemble_boundary, check_params,
                                construct_l1, params_from_json, params_hash,
                                params_to_json, summarize)


def test_default_construction_invariants(l1):
    params, space = l1
    # raises on any violated invariant
    check_params(params, space)
    assert 0 < params.q < Fraction(1, 4)
    assert params.d > 0.75
    assert params.r > params.d / 3 >= 0.25
    assert params.w3.hypot() < 1.0


def _mp_base_norm(v, m):
    """Oracle: the base norm of a vector in the open NW or SE quadrant, by a
    50-digit bisection for the slope-match root gamma(x) = (y/x) x on
    (-1, 0); it shares no code with the construction."""
    with mpmath.workdps(50):
        x, y = mpmath.mpf(v.x), mpmath.mpf(v.y)
        if x > 0:
            x, y = -x, -y
        slope = y / x
        lo, hi = mpmath.mpf(-1), mpmath.mpf(0)
        while hi - lo > abs(hi) * mpmath.mpf(10) ** -30:
            mid = (lo + hi) / 2
            sv = (mid + 1) / (-mid)
            g = 2 * sv + sv * sv + mpmath.sin(sv) / m
            if g / (1 + g) - slope * mid < 0:
                lo = mid
            else:
                hi = mid
        return float(x / ((lo + hi) / 2))


@functools.lru_cache(maxsize=None)
def _constructed(m):
    return construct_l1(config=Config(m=m))[0]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_d_is_the_base_distance(m):
    p = _constructed(m)
    assert _mp_base_norm(p.w1 - p.w2, m) == pytest.approx(p.d, abs=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_marker_base_distances_equal_q(m):
    p = _constructed(m)
    q = float(p.q)
    for v in (Vec2(1.0, 0.0) - p.w1, Vec2(0.0, 1.0) - p.w2):
        assert _mp_base_norm(v, m) == pytest.approx(q, abs=1e-10)
    # the vertex w3 sits base distance r from w1 and 2r from w2
    r = float(p.r)
    for v, want in ((p.w1 - p.w3, r), (p.w3 - p.w2, 2.0 * r)):
        assert abs(_mp_base_norm(v, m) - want) <= 1e-9


def test_q_candidates_outside_bound_are_skipped():
    # 1/2 violates q < 1/4 and must be passed over for the next candidate
    params, _ = construct_l1(
        config=Config(q_candidates=[Fraction(1, 2), Fraction(1, 8)]))
    assert params.q == Fraction(1, 8)


def test_all_candidates_invalid_reports_constraint():
    with pytest.raises(ConstructionFailed, match="q"):
        construct_l1(
            config=Config(q_candidates=[Fraction(1, 2), Fraction(3, 4)]))


def test_unit_vectors_on_circle(l1):
    params, space = l1
    assert space.norm(Vec2(0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)
    assert space.norm(Vec2(-1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert space.norm(Vec2(1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert space.norm(params.w3) == pytest.approx(1.0, abs=1e-12)


def test_segment_lengths(l1):
    params, space = l1
    r = float(params.r)
    assert abs(space.norm(params.w1 - params.w3) - r) <= 1e-9
    assert abs(space.norm(params.w3 - params.w2) - 2 * r) <= 1e-9


def test_determinism(l1_params):
    params2, _ = construct_l1()
    assert params2 == l1_params


def test_default_params_hash_pinned(l1):
    # construct_l1() must reproduce params.json bit for bit; any change to
    # the construction's floats changes this hash
    params, space = l1
    assert params_hash(params_to_json(params)) == \
        "3201cc646605046c"


@pytest.mark.parametrize("m, digest", [
    (1, "3201cc646605046c"), (2, "c4164e8a4131154d"),
    (3, "90da3e9616d38167"), (4, "6f2cb10aacf783b8"),
    (5, "8ff8c36ac775cb77"), (6, "f3b0ceaef039e1a4"),
    (7, "8199d46985519c7d"), (8, "8835cc330e4228f2"),
])
def test_params_hash_pinned_per_m(m, digest):
    # the construction for each configured M reproduces its params.json bit
    # for bit, markers near e1 and e2 included
    params, space = construct_l1(config=Config(m=m))
    assert params_hash(params_to_json(params)) == digest


def test_json_rejects_non_antipodal_boundary(l1):
    params, space = l1
    text = params_to_json(params)
    assert '"antipodal": true' in text
    with pytest.raises(DomainError, match="antipodal"):
        params_from_json(text.replace('"antipodal": true',
                                      '"antipodal": false'))


@pytest.mark.parametrize("where", ["params", "piece"])
@pytest.mark.parametrize("m", ["1.5", "true", '"1"', "0"])
def test_json_rejects_m_that_is_no_positive_integer(l1, where, m):
    # int() would have read 1.5 and true as 1: M=1's curve under another
    # M's markers; a piece's M must be, as JSON, the 1 the parameters give
    params, space = l1
    text = params_to_json(params)
    old = {"params": '"M": 1,', "piece": '"M": 1\n'}[where]
    assert params.m == 1 and text.count(old) == 1
    reason = {"params": "need an integer M of at least 1",
              "piece": "pieces differ from the ones M, w1, w2 and w3 give"}
    with pytest.raises(DomainError, match=reason[where]):
        params_from_json(text.replace(old, old.replace("1", m, 1)))


def test_json_rejects_m_that_differs_from_the_curve(l1):
    # the markers of M=2 over the curve of M=1 would load without a word;
    # under M=2's base norm, the markers sit at another distance than q
    params, space = l1
    text = params_to_json(params)
    assert params.m == 1 and text.count('"M": 1,') == 1
    with pytest.raises(ConstructionFailed,
                       match="base distance from e1 to w1 differs from q"):
        params_from_json(text.replace('"M": 1,', '"M": 2,'))


def test_json_round_trip(l1):
    params, space = l1
    text = params_to_json(params)
    params2, space2 = params_from_json(text)
    assert params2 == params
    assert space2.boundary == space.boundary
    assert params_to_json(params2) == text


@pytest.mark.parametrize("m", range(2, 9))
def test_json_round_trip_per_m(m):
    # M = 1 is test_json_round_trip's
    params = _constructed(m)
    text = params_to_json(params)
    params2, space2 = params_from_json(text)
    assert params2 == params
    assert space2.boundary == assemble_boundary(params)
    assert params_to_json(params2) == text


def test_summary_mentions_all_parameters(l1_params):
    text = summarize(l1_params)
    for key in ("M", "q", "r", "d", "w1", "w2", "w3"):
        assert key in text
