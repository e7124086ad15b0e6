"""Witness lifting: falsification of the refutation sentence's matrix."""

from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from normlogic.errors import ToleranceBreach, WitnessInvalid
from normlogic.geometry import EuclideanSpace, PlaneSpace
from normlogic.logic import (And, Implies, Le, Lt, Not, SConst, VecEq, VVar,
                             eval_qf)
from normlogic.logic.evaluate import (Evaluation, _conjuncts,
                                      strip_universal_prefix)
from normlogic.logic.sentences import natural_slot
from normlogic.reduction import (bounded_nat_sat, compile_formula,
                                 lift_witness, parse_arith)
from normlogic.reduction.lift import (_canonical, _first_failing_atom,
                                      canonical_assignment)
from normlogic.verify import E2E_SAT


def _matrix(compiled):
    _, matrix = strip_universal_prefix(compiled.b)
    return matrix


def test_plain_equation(l1):
    params, space = l1
    q = parse_arith("x1 = 2")
    a = lift_witness(q, (2,), params, space)
    compiled = compile_formula(q, 2, params)
    assert not eval_qf(space, _matrix(compiled), a, 1e-6)
    assert eval_qf(space, _matrix(compiled).antecedent, a, 1e-6)


def test_square_equation_mult_block(l1):
    params, space = l1
    q = parse_arith("x1*x1 = 4")
    witness = bounded_nat_sat(q, 10)
    assert witness == (2,)
    compiled = compile_formula(q, 2, params)
    a = lift_witness(q, witness, params, space, compiled=compiled)
    matrix = _matrix(compiled)
    # the multiplication conjunct (third antecedent block) holds with the
    # product pair bound to 4
    blocks = matrix.antecedent.args
    assert eval_qf(space, blocks[2], a, 1e-6)
    assert a["Z1.2"] == (0.0, 4.0)
    assert not eval_qf(space, matrix, a, 1e-6)


def test_two_variable_formula(l1):
    params, space = l1
    q = parse_arith("x1 + x2 = x2 + x1 and x1 = 1")
    witness = bounded_nat_sat(q, 10)
    a = lift_witness(q, witness, params, space)
    compiled = compile_formula(q, 2, params)
    assert not eval_qf(space, _matrix(compiled), a, 1e-6)


def test_invalid_witness_rejected(l1):
    params, space = l1
    q = parse_arith("x1 = 2")
    with pytest.raises(WitnessInvalid):
        lift_witness(q, (3,), params, space)
    with pytest.raises(WitnessInvalid):
        lift_witness(q, (2, 5), params, space)  # wrong arity


def test_unsat_formula_has_no_witness(l1):
    params, space = l1
    q = parse_arith("x1 + 1 = x1")
    assert bounded_nat_sat(q, 100) is None
    with pytest.raises(WitnessInvalid):
        lift_witness(q, (0,), params, space)


def test_tolerance_breach_reports_atom(l1):
    params, space = l1
    q = parse_arith("x1 = 2")
    # an impossible tolerance surfaces the accumulated rounding as a breach
    with pytest.raises(ToleranceBreach, match="missed by"):
        lift_witness(q, (2,), params, space, tol=1e-18)


def test_failing_atom_is_one_that_fails(l1_space):
    ev = Evaluation(l1_space, {"v": (0.5, -0.25)})
    v, one, zero = VVar("v"), SConst(Fraction(1)), SConst(Fraction(0))
    tol = 1e-6
    cases = [
        # a held equality under Not is blamed negated, tol inside its edge
        (Not(VecEq(v, v)), Not(VecEq(v, v)), tol),
        # a tie misses a strict comparison by the tolerance, not by 0
        (Lt(one, one), Lt(one, one), tol),
        # Not over a conjunction that holds blames a conjunct that holds
        (Not(And((Le(zero, one),))), Not(Le(zero, one)), 1.0 + tol),
        # a true implication with a false antecedent blames the antecedent
        (Not(Implies(Lt(one, zero), Le(zero, one))), Lt(one, zero),
         1.0 + tol),
    ]
    for f, literal, residual in cases:
        assert not ev.holds(f, tol)
        got, missed = _first_failing_atom(ev, f, tol)
        assert got == literal and not ev.holds(got, tol)
        assert missed == pytest.approx(residual, rel=1e-9)


@dataclass(frozen=True)
class _CountingPlane(PlaneSpace):
    """A PlaneSpace that records the vector of every norm call."""
    asked: list = field(default_factory=list, compare=False)

    def norm(self, v):
        self.asked.append(tuple(v))
        return PlaneSpace.norm(self, v)


def test_lift_computes_each_norm_once(l1):
    params, space = l1
    q = parse_arith("x1*x1 = 4")
    compiled = compile_formula(q, 2, params)
    counting = _CountingPlane(space.boundary)
    # every _CountingPlane over this boundary is equal to this one, so one
    # that an earlier test lifted over may have decided the canonical
    # conjuncts already
    _canonical.cache_clear()
    a = lift_witness(q, (2,), params, counting, compiled=compiled)
    assert not eval_qf(space, _matrix(compiled), a, 1e-6)
    # B repeats its norms many times over; each vector is still asked once
    assert len(counting.asked) > 50
    assert len(counting.asked) == len(set(counting.asked))
    # and a later lift over the same space does not ask a vector again
    for text, witness in [("x1 = 2", (2,)), ("x1*x1 = 4", (2,))]:
        lift_witness(parse_arith(text), witness, params, counting)
    assert len(counting.asked) == len(set(counting.asked))


# -- the canonical conjuncts, decided once per (params, space) ----------------


def _breach(q, witness, params, space, tol):
    with pytest.raises(ToleranceBreach) as caught:
        lift_witness(q, witness, params, space, tol=tol)
    return str(caught.value)


def test_failing_canonical_conjunct_breaches_every_time(l1):
    params, plane = l1
    q = parse_arith("x1 = 2")
    tol = 1e-6
    euclid = EuclideanSpace(2)
    # the five-point conjunct reads only the markers and fails in the
    # euclidean plane; the uncached lift blames its first failing atom
    first = _conjuncts(_matrix(compile_formula(q, 2, params)))[0]
    ev = Evaluation(euclid, canonical_assignment(params))
    assert not ev.holds(first, tol)
    atom, residual = _first_failing_atom(ev, first, tol)
    want = f"antecedent atom missed by {residual:.3e}: {atom!r}"
    _canonical.cache_clear()
    assert _breach(q, (2,), params, euclid, tol) == want
    assert _breach(q, (2,), params, euclid, tol) == want
    lift_witness(q, (2,), params, plane, tol=tol)
    assert _breach(q, (2,), params, euclid, tol) == want
    assert _breach(q, (2,), params, EuclideanSpace(2), tol) == want


def test_lift_writes_no_canonical_name(l1):
    # the canonical conjuncts are decided once per (params, space) only
    # because no other name a lift binds is a canonical one
    params, space = l1
    canonical = canonical_assignment(params)
    written = set()
    for count in range(1, 13):
        for i in range(1, count + 1):
            for letter in "STX":
                pair, certificates, scalar = natural_slot(letter, i, count)
                written.add(scalar)
                written.update(f"{p}.{h}" for p in (pair, *certificates)
                               for h in (1, 2))
            written.update((f"Z{i}.1", f"Z{i}.2", f"z{i}"))
    assert not written & canonical.keys()
    # and a lift leaves the canonical values as it found them
    for text in E2E_SAT + ("x1*x2 = 6 and x3 + x1 = 5",):
        q = parse_arith(text)
        a = lift_witness(q, bounded_nat_sat(q, 10), params, space)
        assert list(a)[:len(canonical)] == list(canonical)
        assert {n: a[n] for n in canonical} == canonical
