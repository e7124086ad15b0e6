"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line; run with -s (or look at the summary) to
see them.  The suites in normlogic.verify implement the measurements; the
assertions here pin the counts, tolerances, and runtime caps.
"""

import time

import pytest

from normlogic.config import Config
from normlogic.verify import (MULT_GADGET_TOL, SuiteContext, run_suite)


@pytest.fixture(scope="module")
def context(l1):
    params, space = l1
    return SuiteContext(config=Config(), params=params, space=space, seed=0)


def _run(name, context, budget_s=None):
    start = time.perf_counter()
    report = run_suite(name, context)
    wall = time.perf_counter() - start
    ok = report.all_pass and (budget_s is None or wall <= budget_s)
    return report, wall, ok


def _announce(criterion, ok, wall, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({wall:.2f}s){detail}")


def test_criterion_1_concavity(context):
    report, wall, ok = _run("concavity", context, budget_s=1.0)
    by_id = {c.id: c for c in report.cases}
    assert by_id["closed_form_vs_finite_differences"].tolerances["rel_tol"] \
        == 1e-4
    _announce(1, ok, wall, "  concavity gate + derivative cross-check")
    assert ok, report


def test_criterion_2_construction(context):
    report, wall, ok = _run("construction", context, budget_s=5.0)
    assert all(c.tolerances.get("tol", 1e-9) == 1e-9 for c in report.cases)
    _announce(2, ok, wall, "  construction invariants at 1e-9")
    assert ok, report


def test_criterion_3_rotundity(context):
    report, wall, ok = _run("rotundity", context)
    _announce(3, ok, wall, "  rotund NW quadrant, flat segments excluded")
    assert ok, report


def test_criterion_4_psd(context):
    report, wall, ok = _run("psd", context)
    by_id = {c.id: c for c in report.cases}
    assert by_id["on_ray_pairs_satisfy_psd"].tolerances["tol"] == 1e-6
    assert by_id["on_ray_pairs_satisfy_psd"].measured["false_negatives"] == 0
    assert by_id["off_ray_pairs_fail_psd"].measured["false_positives"] == 0
    _announce(4, ok, wall, "  same-direction <=> ray membership, 500 pairs")
    assert ok, report


def test_criterion_5_mult_gadget(context):
    report, wall, ok = _run("mult-gadget", context)
    by_id = {c.id: c for c in report.cases}
    assert by_id["product_accepted_169"].tolerances["tol"] == MULT_GADGET_TOL
    assert by_id["off_product_rejected_338"].tolerances["offset"] == 1e-3
    _announce(5, ok, wall, "  13x13 grid accepts u=st, rejects u=st+-1e-3")
    assert ok, report


def test_criterion_6_sine(context):
    report, wall, ok = _run("sine", context)
    by_id = {c.id: c for c in report.cases}
    assert by_id["sine_accepted_50"].tolerances["tol"] == 1e-6
    _announce(6, ok, wall, "  50 sine values accepted, +-1e-3 rejected")
    assert ok, report


def test_criterion_7_pw(context):
    report, wall, ok = _run("pw", context)
    by_id = {c.id: c for c in report.cases}
    assert by_id["perturbations_rejected_100"].measured["acceptances"] == 0
    _announce(7, ok, wall, "  five-point tuple pinned up to sign")
    assert ok, report


def test_criterion_8_intersection(context):
    report, wall, ok = _run("intersection", context, budget_s=60.0)
    assert len(report.cases) == 20
    _announce(8, ok, wall, "  20 homothetic pairs vs dense-scan oracle")
    assert ok, report


def test_criterion_9_two_sum(context):
    report, wall, ok = _run("two-sum", context)
    for c in report.cases:
        assert c.tolerances["right_tol"] == 1e-6
        assert c.measured["hypothesis_pairs"] >= 500
    _announce(9, ok, wall, "  2-sum sphere segments parallel to the plane")
    assert ok, report


def test_criterion_10_reduction(context):
    report, wall, ok = _run("reduction-e2e", context, budget_s=120.0)
    assert len(report.cases) == 6
    _announce(10, ok, wall, "  3 sat lifted + 3 unsat sampled, shapes checked")
    assert ok, report
