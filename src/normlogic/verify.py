"""Verification suites: every documented invariant, runnable and reportable.

Each suite produces a deterministic report for a given seed; reports
serialize to versioned JSON (wall time stays out of the JSON so reruns are
byte-identical) and render as a pass/fail table.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import __version__
from .config import Config
from .errors import GridTooCoarse
from .geometry import (Classification, EuclideanSpace, IsolatedPoint, Vec2,
                       intersect_circles, is_rotund, params_hash,
                       params_to_json, same_direction, two_sum)
from .geometry.curve import gamma_arr, gamma_dd_arr
from .logic import (HoldsOnSamples, Sampler, VVar, eval_bounded, eval_qf,
                    mk_pMult, mk_pSIN, mk_pW, pair_var)
from .logic.evaluate import strip_universal_prefix
from .logic.sentences import MARKERS
from .reduction import (bind_pair, bounded_nat_sat, canonical_assignment,
                        compile_formula, lift_witness, macro_env, parse_arith,
                        sine_certificates)

#: Discrimination tolerance for the multiplication gadget.  The gadget's
#: additivity defect at an offset of 1e-3 shrinks quadratically with the
#: operand sizes and bottoms out near 1e-9 on the test grid, so the general
#: logical tolerance of 1e-6 cannot see it; norms are good to ~1e-12, which
#: makes 1e-10 a safe line.
MULT_GADGET_TOL = 1e-10


@dataclass(frozen=True)
class CaseResult:
    id: str
    status: str  # pass | fail | skip
    measured: Dict[str, float] = field(default_factory=dict)
    tolerances: Dict[str, float] = field(default_factory=dict)


@dataclass
class SuiteReport:
    suite: str
    cases: List[CaseResult]
    seed: int
    params_hash: str
    version: str = __version__
    wall_time_s: float = 0.0

    @property
    def all_pass(self) -> bool:
        return all(c.status != "fail" for c in self.cases)

    def counts(self) -> Tuple[int, int, int]:
        p = sum(1 for c in self.cases if c.status == "pass")
        f = sum(1 for c in self.cases if c.status == "fail")
        s = sum(1 for c in self.cases if c.status == "skip")
        return p, f, s


def report_to_json(report: SuiteReport) -> str:
    """Byte-reproducible JSON for (seed, params_hash, version); wall time is
    presentation-only and deliberately omitted."""
    doc = {
        "schema": 1,
        "suite": report.suite,
        "seed": report.seed,
        "params_hash": report.params_hash,
        "version": report.version,
        "cases": [
            {"id": c.id, "status": c.status, "measured": c.measured,
             "tolerances": c.tolerances}
            for c in report.cases
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def format_table(report: SuiteReport) -> str:
    lines = [f"suite {report.suite}  seed={report.seed} "
             f"params={report.params_hash} wall={report.wall_time_s:.2f}s"]
    for c in report.cases:
        detail = " ".join(f"{k}={v:.3g}" for k, v in c.measured.items())
        lines.append(f"  [{c.status:>4}] {c.id}" + (f"  {detail}" if detail
                                                    else ""))
    p, f, s = report.counts()
    lines.append(f"  {p} passed, {f} failed, {s} skipped")
    return "\n".join(lines)


def _case(cid: str, ok: bool, measured=None, tolerances=None) -> CaseResult:
    return CaseResult(cid, "pass" if ok else "fail", measured or {},
                      tolerances or {})


# -- suite: concavity -----------------------------------------------------------

def suite_concavity(ctx) -> List[CaseResult]:
    m = ctx.params.m
    xs = np.linspace(-0.999, -0.001, 10_000)
    vals = gamma_dd_arr(xs, m)
    worst = float(vals.max())
    cases = [_case("gamma_dd_negative_10k", worst < 0.0,
                   {"max_gamma_dd": worst, "M": m})]
    # Central differences resolve the curve only while the step stays well
    # inside one oscillation of the sine term: the substitution s(x) blows a
    # step h up to s^2 h, so the check needs s <= 45 (x <= -0.022).  The
    # remaining tail oscillates as -(2 + sin s) - 6 cos(s)/(1+s) + O(1/s^2),
    # which serves as the independent oracle there.
    h = 1e-5
    xs_fd = np.linspace(-0.999, -0.022, 10_000)
    v_fd = gamma_dd_arr(xs_fd, m)
    fd = (gamma_arr(xs_fd + h, m) - 2.0 * gamma_arr(xs_fd, m)
          + gamma_arr(xs_fd - h, m)) / (h * h)
    rel = float(np.max(np.abs(v_fd - fd) / np.abs(v_fd)))
    cases.append(_case("closed_form_vs_finite_differences", rel <= 1e-4,
                       {"max_rel_dev": rel}, {"rel_tol": 1e-4, "step": h}))
    xs_tail = np.linspace(-0.03, -0.001, 10_000)
    s = (xs_tail + 1.0) / (-xs_tail)
    asym = -(2.0 + np.sin(s) / m) - 6.0 * np.cos(s) / (m * (1.0 + s))
    dev = float(np.max(np.abs(gamma_dd_arr(xs_tail, m) - asym)
                       * (1.0 + s) ** 2))
    cases.append(_case("oscillatory_tail_asymptote", dev <= 20.0,
                       {"max_scaled_dev": dev}, {"bound": 20.0}))
    return cases


# -- suite: construction ----------------------------------------------------------

def suite_construction(ctx) -> List[CaseResult]:
    p, space = ctx.params, ctx.space
    tol = 1e-9
    r = float(p.r)
    checks = [
        ("q_bound", 0 < p.q < 0.25, {"q": float(p.q)}),
        ("d_above_three_quarters", p.d > 0.75, {"d": p.d}),
        ("r_above_d_third", r > p.d / 3 >= 0.25, {"r": r, "d_third": p.d / 3}),
        ("w3_inside_unit_disc", p.w3.hypot() < 1.0,
         {"w3_euclid": p.w3.hypot()}),
        ("segment_w1_w3_length",
         abs(space.norm(p.w1 - p.w3) - r) <= tol,
         {"len": space.norm(p.w1 - p.w3), "r": r}),
        ("segment_w3_w2_length",
         abs(space.norm(p.w3 - p.w2) - 2 * r) <= tol,
         {"len": space.norm(p.w3 - p.w2), "two_r": 2 * r}),
        ("markers_on_euclidean_circle",
         abs(p.w1.hypot() - 1) <= tol and abs(p.w2.hypot() - 1) <= tol,
         {"w1_euclid": p.w1.hypot(), "w2_euclid": p.w2.hypot()}),
    ]
    return [_case(cid, ok, meas, {"tol": tol}) for cid, ok, meas in checks]


# -- suite: rotundity --------------------------------------------------------------

def suite_rotundity(ctx) -> List[CaseResult]:
    p, space = ctx.params, ctx.space
    rng = random.Random(ctx.config.seed)
    bad_nw = 0
    for _ in range(1000):
        theta = rng.uniform(math.pi / 2 + 1e-9, math.pi - 1e-9)
        if not is_rotund(space, space.unit_point(theta)):
            bad_nw += 1
    cases = [_case("nw_quadrant_rotund_1000", bad_nw == 0,
                   {"violations": bad_nw})]
    axes_ok = is_rotund(space, Vec2(-1, 0)) and is_rotund(space, Vec2(0, 1))
    cases.append(_case("minus_e1_and_e2_rotund", axes_ok,
                       {"rotund": float(axes_ok)}))
    bad_seg = 0
    segs = ((p.w1, p.w3), (p.w3, p.w2))
    for i in range(100):
        a, b = segs[i % 2]
        lam = rng.uniform(1e-3, 1 - 1e-3)
        pt = a.scale(lam) + b.scale(1 - lam)
        if is_rotund(space, pt) or is_rotund(space, -pt):
            bad_seg += 1
    cases.append(_case("segment_interior_not_rotund_100", bad_seg == 0,
                       {"violations": bad_seg}))
    endpoint_hits = sum(is_rotund(space, w) for w in (p.w1, p.w2, p.w3))
    cases.append(_case("segment_endpoints_not_rotund", endpoint_hits == 0,
                       {"violations": float(endpoint_hits)}))
    return cases


# -- suite: psd --------------------------------------------------------------------

def _sample_rotund_direction(ctx, rng) -> float:
    """Angle of a safely rotund direction: away from the segment sector."""
    t1 = ctx.params.w1.angle()
    t2 = ctx.params.w2.angle()
    margin = 0.05
    while True:
        theta = rng.uniform(0.0, math.pi)
        if not (t1 - margin <= theta <= t2 + margin):
            return theta if rng.random() < 0.5 else theta + math.pi


def suite_psd(ctx) -> List[CaseResult]:
    """Additive same-direction agrees with ray membership at rotund anchors.

    Populations: exact on-ray pairs (must satisfy both sides) and clearly
    off-ray pairs, kept an angle >= 0.01 apart (must satisfy neither)."""
    space = ctx.space
    rng = random.Random(ctx.config.seed + 1)
    tol = 1e-6
    false_neg = false_pos = 0
    min_defect_off = math.inf
    for i in range(500):
        theta_w = _sample_rotund_direction(ctx, rng)
        w = space.unit_point(theta_w).scale(rng.uniform(0.2, 3.0))
        if i % 2 == 0:
            v = w.scale(rng.uniform(0.1, 4.0))
        else:
            delta = rng.uniform(0.01, math.pi - 0.02) * \
                (1 if rng.random() < 0.5 else -1)
            theta_v = theta_w + delta
            rho_v = space.boundary.rho(theta_v)
            v = Vec2.from_polar(rho_v * rng.uniform(0.2, 3.0), theta_v)
        psd = same_direction(space, v, w, tol)
        lam = space.norm(v) / space.norm(w)
        ray = (v - w.scale(lam)).hypot() <= tol
        if ray and not psd:
            false_neg += 1
        if not ray:
            defect = abs(space.norm(v + w) - space.norm(v) - space.norm(w))
            min_defect_off = min(min_defect_off, defect)
            if psd:
                false_pos += 1
    return [
        _case("on_ray_pairs_satisfy_psd", false_neg == 0,
              {"false_negatives": false_neg}, {"tol": tol}),
        _case("off_ray_pairs_fail_psd", false_pos == 0,
              {"false_positives": false_pos,
               "min_defect": min_defect_off}, {"tol": tol}),
    ]


# -- suite: mult-gadget ---------------------------------------------------------------

def suite_mult_gadget(ctx) -> List[CaseResult]:
    space, params = ctx.space, ctx.params
    s_p, t_p, u_p = pair_var("S"), pair_var("T"), pair_var("U")
    gadget = mk_pMult(s_p, t_p, u_p)
    tol = MULT_GADGET_TOL
    grid = [0.25 * i for i in range(13)]
    wrong_true = wrong_false = 0
    for s in grid:
        for t in grid:
            a = canonical_assignment(params)
            bind_pair(a, "S", s)
            bind_pair(a, "T", t)
            bind_pair(a, "U", s * t)
            if not eval_qf(space, gadget, a, tol):
                wrong_false += 1
            for off in (1e-3, -1e-3):
                bind_pair(a, "U", s * t + off)
                if eval_qf(space, gadget, a, tol):
                    wrong_true += 1
    return [
        _case("product_accepted_169", wrong_false == 0,
              {"rejections": wrong_false}, {"tol": tol}),
        _case("off_product_rejected_338", wrong_true == 0,
              {"acceptances": wrong_true}, {"tol": tol, "offset": 1e-3}),
    ]


# -- suite: sine ------------------------------------------------------------------------

def suite_sine(ctx) -> List[CaseResult]:
    space, params = ctx.space, ctx.params
    env = macro_env(params)
    m = params.m
    s_p, t_p = pair_var("S"), pair_var("T")
    u1_p, u2_p = pair_var("U1"), pair_var("U2")
    gadget = mk_pSIN(s_p, t_p, u1_p, u2_p, env)
    tol = 1e-6
    wrong_false = wrong_true = 0
    for i in range(50):
        s = (i + 0.5) * (2.0 * math.pi - 1e-6) / 50.0
        for off, want in ((0.0, True), (1e-3, False), (-1e-3, False)):
            t = math.sin(s) + off
            u1, u2 = sine_certificates(s, t, m)
            a = canonical_assignment(params)
            bind_pair(a, "S", s)
            bind_pair(a, "T", t)
            bind_pair(a, "U1", u1)
            bind_pair(a, "U2", u2)
            got = eval_qf(space, gadget, a, tol)
            if want and not got:
                wrong_false += 1
            if got and not want:
                wrong_true += 1
    return [
        _case("sine_accepted_50", wrong_false == 0,
              {"rejections": wrong_false}, {"tol": tol}),
        _case("off_sine_rejected_100", wrong_true == 0,
              {"acceptances": wrong_true}, {"tol": tol, "offset": 1e-3}),
    ]


# -- suite: pw ---------------------------------------------------------------------------

def suite_pw(ctx) -> List[CaseResult]:
    space, params = ctx.space, ctx.params
    env = macro_env(params)
    rng = random.Random(ctx.config.seed + 2)
    pw = mk_pW(VVar("e1"), VVar("e2"), VVar("w1"), VVar("w2"), VVar("w3"),
               env)
    tol = 1e-6
    canon = {k: v for k, v in canonical_assignment(params).items()
             if k in MARKERS}
    ok_canon = eval_qf(space, pw, canon, tol)
    negated = {k: (-v[0], -v[1]) for k, v in canon.items()}
    ok_neg = eval_qf(space, pw, negated, tol)
    accepted = 0
    for _ in range(100):
        perturbed = {}
        for key, (x, y) in canon.items():
            dx, dy = rng.uniform(-1, 1), rng.uniform(-1, 1)
            n = math.hypot(dx, dy)
            mag = rng.uniform(1e-3, 1e-2)
            perturbed[key] = (x + mag * dx / n, y + mag * dy / n)
        if eval_qf(space, pw, perturbed, tol):
            accepted += 1
    return [
        _case("canonical_tuple_accepted", ok_canon,
              {"holds": float(ok_canon)}, {"tol": tol}),
        _case("negated_tuple_accepted", ok_neg,
              {"holds": float(ok_neg)}, {"tol": tol}),
        _case("perturbations_rejected_100", accepted == 0,
              {"acceptances": accepted},
              {"tol": tol, "min_perturbation": 1e-3}),
    ]


# -- suite: intersection ------------------------------------------------------------------

def _in_band_runs(in_band: np.ndarray) -> List[Tuple[int, int]]:
    """Maximal runs of True in a circular mask, as (start, length), listed
    from the first False sample on around the circle; the oracle's own run
    finder, with no code in common with intersect_circles'."""
    n = len(in_band)
    if in_band.all():
        return [(0, n)]
    offset = int(np.argmin(in_band))
    # rotated so that it starts with a False sample: no run wraps around
    rolled = np.roll(in_band, -offset).astype(np.int8)
    edges = np.diff(rolled, prepend=np.int8(0), append=np.int8(0))
    starts = np.flatnonzero(edges == 1)
    lengths = np.flatnonzero(edges == -1) - starts
    return list(zip(((starts + offset) % n).tolist(), lengths.tolist()))


def _brute_components(space, p, r, q, s, samples: int, tol: float):
    """Independent dense-scan oracle: in-band runs and sign flips."""
    ts = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
    if hasattr(space, "boundary"):
        rho = space.boundary.rho_arr(ts)
    else:
        rho = np.ones_like(ts)
    px = p.x + r * rho * np.cos(ts) - q.x
    py = p.y + r * rho * np.sin(ts) - q.y
    h = space.norm_arr(np.column_stack([px, py])) - s
    in_band = np.abs(h) <= tol
    if bool(in_band.all()):
        return "equal", []
    comps = []

    def point(t):
        u = space.unit_point(t)
        return Vec2(p.x + r * u.x, p.y + r * u.y)

    for start, length in _in_band_runs(in_band):
        t_a = ts[start]
        t_b = ts[(start + length - 1) % samples]
        comps.append((point(t_a), point(t_b)))
    # the runs claim exactly the in-band samples, so a sign flip is a
    # crossing of its own when neither of its two samples is in band
    sign = h > 0
    clear = ~in_band & ~np.roll(in_band, -1)
    for i in np.flatnonzero((sign != np.roll(sign, -1)) & clear):
        mid = point(0.5 * (ts[i] + ts[i] + 2 * math.pi / samples))
        comps.append((mid, mid))
    return "components", comps


def _component_endpoints(c):
    if isinstance(c, IsolatedPoint):
        return (c.p, c.p)
    return (c.a, c.b)


def _match_components(report, oracle_comps, tol_pos: float) -> bool:
    if len(report.components) != len(oracle_comps):
        return False
    used = set()
    for comp in report.components:
        a, b = _component_endpoints(comp)
        hit = None
        for idx, (oa, ob) in enumerate(oracle_comps):
            if idx in used:
                continue
            direct = max((a - oa).hypot(), (b - ob).hypot())
            swapped = max((a - ob).hypot(), (b - oa).hypot())
            if min(direct, swapped) <= tol_pos:
                hit = idx
                break
        if hit is None:
            return False
        used.add(hit)
    return True


def suite_intersection(ctx) -> List[CaseResult]:
    params, space = ctx.params, ctx.space
    euclid = EuclideanSpace(2)
    w1, w2, w3 = params.w1, params.w2, params.w3
    q = float(params.q)
    r = float(params.r)
    zero = Vec2(0.0, 0.0)
    slide13 = (w3 - w1).scale(0.3)
    slide32 = (w2 - w3).scale(0.25)
    lam = 1.2
    shrink = 0.8
    tangent_lam = 1.5
    cases_spec = [
        # id, space, p, r, q, s, grid_n, expected classification
        ("euclid_cross_unit", euclid, zero, 1.0, Vec2(1, 0), 1.0, 4096,
         Classification.TWO_COMPONENTS),
        ("euclid_cross_diag", euclid, zero, 1.0, Vec2(0.5, 0.5), 1.0, 4096,
         Classification.TWO_COMPONENTS),
        ("euclid_cross_mixed_radii", euclid, zero, 2.0, Vec2(2, 0), 1.0,
         4096, Classification.TWO_COMPONENTS),
        ("euclid_cross_small", euclid, zero, 1.0, Vec2(1.2, 0), 0.3, 4096,
         Classification.TWO_COMPONENTS),
        ("euclid_disjoint_far", euclid, zero, 1.0, Vec2(4, 0), 1.0, 4096,
         Classification.DISJOINT),
        ("euclid_disjoint_outside", euclid, zero, 1.0, Vec2(2.5, 0), 1.0,
         4096, Classification.DISJOINT),
        ("euclid_disjoint_nested", euclid, zero, 2.0, Vec2(0.1, 0), 0.5,
         4096, Classification.DISJOINT),
        ("euclid_equal", euclid, Vec2(0.3, -0.2), 1.5, Vec2(0.3, -0.2), 1.5,
         4096, Classification.EQUAL),
        ("plane_equal", space, zero, 1.0, zero, 1.0, 4096,
         Classification.EQUAL),
        ("plane_two_point_w1", space, w1, q, zero, 1.0, 8192,
         Classification.TWO_COMPONENTS),
        ("plane_two_point_w2", space, w2, q, zero, 1.0, 8192,
         Classification.TWO_COMPONENTS),
        ("plane_two_point_markers", space, w1, r, w2, 2 * r, 8192,
         Classification.TWO_COMPONENTS),
        ("plane_slide_w1w3", space, zero, 1.0, slide13, 1.0, 8192,
         Classification.TWO_COMPONENTS),
        ("plane_slide_w3w2", space, zero, 1.0, slide32, 1.0, 8192,
         Classification.TWO_COMPONENTS),
        ("plane_scale_about_w3", space, zero, 1.0, w3.scale(1 - lam), lam,
         8192, Classification.ONE_COMPONENT),
        ("plane_shrink_about_w3", space, zero, 1.0, w3.scale(1 - shrink),
         shrink, 8192, Classification.ONE_COMPONENT),
        ("plane_tangent_rotund", space, zero, 1.0,
         Vec2(tangent_lam - 1.0, 0.0), tangent_lam, 600_000,
         Classification.ONE_COMPONENT),
        ("plane_disjoint_far", space, zero, 1.0, Vec2(3, 3), 1.0, 4096,
         Classification.DISJOINT),
        ("plane_disjoint_nested", space, zero, 2.0, w3.scale(0.05), 0.5,
         4096, Classification.DISJOINT),
        ("plane_translate_generic", space, zero, 1.0,
         Vec2(0.4, 0.1), 1.0, 8192, Classification.TWO_COMPONENTS),
    ]
    tol = 1e-9
    tol_pos = 1e-4
    out = []
    lemma_one_ids = {"plane_two_point_w1", "plane_two_point_w2",
                     "plane_two_point_markers"}
    for cid, sp, p, rr, qq, ss, grid_n, expected in cases_spec:
        try:
            rep = intersect_circles(sp, p, rr, qq, ss, grid_n=grid_n, tol=tol)
        except GridTooCoarse:
            out.append(_case(cid, False, {"grid_too_coarse": 1.0}))
            continue
        ok = rep.classification is expected
        measured = {"components": float(len(rep.components))}
        if rep.classification is not Classification.EQUAL:
            kind, oracle = _brute_components(sp, p, rr, qq, ss, 1_000_000,
                                             tol)
            ok = ok and kind == "components" and \
                _match_components(rep, oracle, tol_pos)
            measured["oracle_components"] = float(len(oracle))
        else:
            kind, _ = _brute_components(sp, p, rr, qq, ss, 1_000_000, tol)
            ok = ok and kind == "equal"
        if cid in lemma_one_ids:
            ok = ok and len(rep.components) == 2 and \
                all(isinstance(c, IsolatedPoint) for c in rep.components)
        out.append(_case(cid, ok, measured,
                         {"tol": tol, "endpoint_tol": tol_pos}))
    return out


# -- suite: two-sum ------------------------------------------------------------------------

def suite_two_sum(ctx) -> List[CaseResult]:
    params, space = ctx.params, ctx.space
    rng = random.Random(ctx.config.seed + 3)
    segs = ((params.w1, params.w3), (params.w3, params.w2))
    out = []
    for k in (1, 2):
        w = two_sum(space, EuclideanSpace(k))
        hypothesis_hits = 0
        conclusion_violations = 0
        contrapositive_violations = 0
        for i in range(1000):
            a, b = segs[i % 2]
            lam1, lam2 = rng.uniform(0, 1), rng.uniform(0, 1)
            u1 = a.scale(lam1) + b.scale(1 - lam1)
            u2 = a.scale(lam2) + b.scale(1 - lam2)
            if i % 4 == 3:
                u1, u2 = -u1, -u2
            mu = rng.uniform(0.0, 0.95)
            v = [rng.gauss(0, 1) for _ in range(k)]
            vn = math.sqrt(sum(c * c for c in v)) or 1.0
            v = [mu * c / vn for c in v]
            scale = math.sqrt(max(0.0, 1.0 - mu * mu))
            x1 = u1.scale(scale).as_tuple() + tuple(v)
            if i % 2 == 0:
                # same right part: hypothesis pair
                x2 = u2.scale(scale).as_tuple() + tuple(v)
            else:
                # perturbed right part: must fail the unit-midpoint test
                v2 = [c + rng.choice((-1, 1)) * rng.uniform(1e-3, 0.3)
                      for c in v]
                norm2 = math.hypot(space.norm(u2.scale(scale)),
                                   math.sqrt(sum(c * c for c in v2)))
                x2 = tuple(c / norm2 for c in u2.scale(scale).as_tuple()
                           + tuple(v2))
            mid = tuple(0.5 * (x + y) for x, y in zip(x1, x2))
            if w.norm(mid) >= 1.0 - 1e-9:
                hypothesis_hits += 1
                diff = max(abs(x1[2 + j] - x2[2 + j]) for j in range(k))
                if diff > 1e-6:
                    conclusion_violations += 1
            elif i % 2 == 0:
                # generated to satisfy the hypothesis; it must
                contrapositive_violations += 1
        out.append(_case(
            f"two_sum_euclid_{k}",
            conclusion_violations == 0 and contrapositive_violations == 0
            and hypothesis_hits >= 500,
            {"hypothesis_pairs": float(hypothesis_hits),
             "conclusion_violations": float(conclusion_violations),
             "generator_misses": float(contrapositive_violations)},
            {"right_tol": 1e-6, "midpoint_tol": 1e-9}))
    return out


# -- suite: reduction-e2e -----------------------------------------------------------------

E2E_SAT = ("x1 = 2", "x1*x1 = 4", "x1 + x2 = x2 + x1 and x1 = 1")
E2E_UNSAT = ("x1 + 1 = x1", "x1*x1 = 2", "x1 <= x2 and x2 + 1 <= x1")


def suite_reduction_e2e(ctx) -> List[CaseResult]:
    params, space = ctx.params, ctx.space
    budget = min(ctx.config.sample_budget, 100_000)
    out = []
    for text in E2E_SAT:
        q = parse_arith(text)
        compiled = compile_formula(q, 2, params)
        witness = bounded_nat_sat(q, 100)
        ok = compiled.shape_ok and witness is not None
        measured = {"m": float(compiled.m), "k": float(compiled.k)}
        if ok:
            assignment = lift_witness(q, witness, params, space,
                                      compiled=compiled)
            _, matrix = strip_universal_prefix(compiled.b)
            falsified = not eval_qf(space, matrix, assignment, 1e-6)
            ok = falsified
            measured["matrix_false"] = float(falsified)
        out.append(_case(f"sat[{text}]", ok, measured))
    for text in E2E_UNSAT:
        q = parse_arith(text)
        compiled = compile_formula(q, 2, params)
        no_witness = bounded_nat_sat(q, 100) is None
        sampler = Sampler(space, seed=ctx.config.seed + 4,
                          special_vectors=[params.w1, params.w2, params.w3])
        res = eval_bounded(space, compiled.b, sampler, budget, tol=1e-6)
        holds = isinstance(res, HoldsOnSamples)
        out.append(_case(
            f"unsat[{text}]", compiled.shape_ok and no_witness and holds,
            {"m": float(compiled.m), "k": float(compiled.k),
             "samples": float(getattr(res, "samples_tried", 0))}))
    return out


# -- runner ---------------------------------------------------------------------------------


@dataclass
class SuiteContext:
    config: Config
    params: object
    space: object


SUITES: Dict[str, Callable] = {
    "concavity": suite_concavity,
    "construction": suite_construction,
    "rotundity": suite_rotundity,
    "psd": suite_psd,
    "mult-gadget": suite_mult_gadget,
    "sine": suite_sine,
    "pw": suite_pw,
    "intersection": suite_intersection,
    "two-sum": suite_two_sum,
    "reduction-e2e": suite_reduction_e2e,
}


def run_suite(name: str, context: SuiteContext) -> SuiteReport:
    """Run one suite on a context built once for every suite of a run."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; have {sorted(SUITES)}")
    phash = params_hash(params_to_json(context.params))
    start = time.perf_counter()
    cases = SUITES[name](context)
    wall = time.perf_counter() - start
    return SuiteReport(suite=name, cases=cases, seed=context.config.seed,
                       params_hash=phash, wall_time_s=wall)
