"""The four benchmark stages: compile, search, lift and geometry.

A stage is built from the constructed plane and a seeded random stream (its
set-up), then runs jobs one at a time.  Each job times only the calls into
the package and checks their output against an answer known by
construction; the checks run untimed.  A stage built with ``full=True`` gets
its whole input family; otherwise it gets a smaller sample of the same
family, a probe sized so that every metric, p90s included, has enough
samples.  Each mix spans a range of job costs, so that a slow spell of the
machine moves a percentile smoothly instead of flipping it between two
values.

``tr`` is the run's tracer: ``Untraced`` in the timed runs, a ``Tracer``
with counting proxies in the traced run.
"""

from __future__ import annotations

import math
import random
import statistics
from time import perf_counter

import numpy as np

from normlogic.errors import GridTooCoarse, NormLogicError
from normlogic.geometry import Vec2, intersect_circles
from normlogic.logic import (And, Eq, Exists, Forall, HoldsOnSamples, Implies,
                             Le, Lt, Not, Or, SAdd, SNeg, SNorm, Sampler,
                             check_aia_shape, eval_bounded, eval_qf,
                             mk_A, mk_A_prime, mk_B, mk_B_prime, node_count,
                             parse_sentence, print_sentence,
                             strip_universal_prefix)
from normlogic.reduction import (compile_formula, flatten_multiplications,
                                 lift_witness, macro_env, parse_arith,
                                 render_additive, var_count)

import inputs
from tracing import CountingSampler, Tracer, counting_plane

TOL_LOGIC = 1e-6
TOL_GEOM = 1e-9
#: samples a p90 needs so that ten of them lie beyond it
P90_MIN = 100


def p50(xs):
    return statistics.median(xs)


def p90(xs):
    if len(xs) < P90_MIN:
        raise ValueError(f"a p90 needs {P90_MIN} samples, got {len(xs)}")
    return statistics.quantiles(xs, n=10)[8]


def spaces_for(ctx, tr):
    """The space a job hands to the package: the plane itself, or a
    counting proxy of it when the run is traced."""
    return counting_plane(ctx.space, tr) if isinstance(tr, Tracer) \
        else ctx.space


class Stage:
    name = ""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: jobs the stage runs as a probe: enough for every metric
        self.quota = 0
        self.start_pass()

    def start_pass(self) -> None:
        """Forget the samples of an earlier pass over the same jobs."""
        self.busy_s = 0.0   # time spent inside timed package calls

    def enough(self) -> bool:
        """Whether every metric of the stage has the samples it needs."""
        return True

    def run(self, job, cycle: int, tr) -> bool:
        self.attempted += 1
        try:
            ok = self.job(job, cycle, tr)
        except NormLogicError:
            ok = False
        if not ok:
            self.failed += 1
        return ok

    def timed(self, seconds: float) -> float:
        self.busy_s += seconds
        return seconds


# -- compile ----------------------------------------------------------------

def _norm_nodes(f, out: list) -> None:
    """Collect the SNorm nodes of a formula (norms never nest)."""
    if isinstance(f, SNorm):
        out.append(f)
    elif isinstance(f, (Eq, Le, Lt, SAdd)):
        _norm_nodes(f.left, out)
        _norm_nodes(f.right, out)
    elif isinstance(f, (Not, SNeg)):
        _norm_nodes(f.arg, out)
    elif isinstance(f, (And, Or)):
        for g in f.args:
            _norm_nodes(g, out)
    elif isinstance(f, Implies):
        _norm_nodes(f.antecedent, out)
        _norm_nodes(f.consequent, out)
    elif isinstance(f, (Forall, Exists)):
        _norm_nodes(f.body, out)


class CompileStage(Stage):
    """Formula text -> compile_formula -> printed sentences -> parsed B."""
    name = "compile"

    def __init__(self, ctx, rng: random.Random, full: bool):
        super().__init__()
        self.params = ctx.params
        if full:
            # two formulas per (m, k), so that a seed's draw of shapes
            # moves the percentiles little
            formulas = [inputs.planted(rng, m, k) for m in range(4)
                        for k in range(1, 6) for _ in range(2)]
            formulas += inputs.E2E
            jobs = [(f, 2) for f in formulas]
            # d = 3 for the m = 0 row: its costs fall among the larger d = 2
            # ones, so the upper percentiles sit in a dense run of jobs
            jobs += [(f, 3) for f in formulas[:10]]
        else:
            # two formulas per (m, k) with m + k <= 4: many distinct costs,
            # so that no percentile falls in a gap between two jobs, up to
            # ASTs of 20k nodes
            formulas = list(inputs.E2E)
            formulas += [inputs.planted(rng, m, k) for m in range(4)
                         for k in range(1, 5 - m) for _ in range(2)]
            jobs = [(f, 2) for f in formulas]
        rng.shuffle(jobs)
        self.jobs = jobs
        self.quota = math.ceil(P90_MIN / len(jobs)) * len(jobs)
        self.printed = {}   # (text, d) -> the sentences as first printed
        self.b_stats = {}   # (text, d) -> (nodes, norm nodes, distinct norms)

    def start_pass(self):
        super().start_pass()
        self.emit_ms, self.load_ms = [], []

    def enough(self):
        return len(self.emit_ms) >= P90_MIN

    def _emit(self, text, d, tr):
        """(m, k, shape_ok, sentences, printed texts).  Untraced: the public
        compile_formula.  Traced: its stages one by one, as compile_formula
        calls them."""
        if not isinstance(tr, Tracer):
            out = compile_formula(parse_arith(text), d, self.params)
            sentences = [f for f in (out.a, out.b, out.a_prime, out.b_prime)
                         if f is not None]
            return out.m, out.k, out.shape_ok, sentences, \
                [print_sentence(f) for f in sentences]
        q = tr.call("reduction.arith", parse_arith, text)

        def compile_stages():
            flat = tr.call("reduction.flatten", flatten_multiplications, q)
            tr.add("flatten.triples", flat.m)
            k = var_count(q)
            env = macro_env(self.params)
            q1 = render_additive(flat.q1)
            a = tr.call("sentences.mk", mk_A, env)
            b = tr.call("sentences.mk", mk_B, q1, flat.m, k, env)
            sentences = [a, b]
            shape = tr.call("prenex.check", check_aia_shape, Implies(a, b))
            if d > 2:
                ap = tr.call("sentences.mk", mk_A_prime, env)
                bp = tr.call("sentences.mk", mk_B_prime, q1, flat.m, k, env)
                sentences += [ap, bp]
                shape = shape and tr.call("prenex.check", check_aia_shape,
                                          Implies(ap, bp))
            return flat.m, k, shape, sentences

        m, k, shape, sentences = tr.call("reduction.compiler", compile_stages)
        texts = [tr.call("sexpr.print", print_sentence, f) for f in sentences]
        tr.add("sexpr.bytes", sum(len(t) for t in texts))
        return m, k, shape, sentences, texts

    def job(self, job, cycle, tr):
        f, d = job
        t0 = perf_counter()
        try:
            m, k, shape, sentences, texts = self._emit(f.text, d, tr)
        finally:
            self.emit_ms.append(1e3 * self.timed(perf_counter() - t0))
        key = (f.text, d)
        # same input, same output; a traced (staged) compile must also print
        # exactly what compile_formula printed
        ok = shape and (m, k) == (f.m, f.k) and \
            self.printed.setdefault(key, texts) == texts
        if isinstance(tr, Tracer) and key not in self.b_stats:
            norms = []
            _norm_nodes(sentences[1], norms)
            self.b_stats[key] = (node_count(sentences[1]), len(norms),
                                 len(set(norms)))
        # read back the refutation sentence: B, or B' for d = 3
        t0 = perf_counter()
        try:
            back = tr.call("sexpr.parse", parse_sentence, texts[-1])
        finally:
            self.load_ms.append(1e3 * self.timed(perf_counter() - t0))
        return ok and back == sentences[-1]

    def metrics(self):
        return {
            "compile.emit_ms_p50": (p50(self.emit_ms), "ms"),
            "compile.emit_ms_p90": (p90(self.emit_ms), "ms"),
            "compile.load_ms_p50": (p50(self.load_ms), "ms"),
            "compile.out_kib": (sum(len(t) for f, d in self.jobs
                                    for t in self.printed[(f.text, d)])
                                / 1024.0, "KiB"),
        }


# -- search -----------------------------------------------------------------

#: samples per bounded search job
SEARCH_BUDGET = 200


class SearchStage(Stage):
    """eval_bounded with the stock Sampler on B of seeded formulas, half
    satisfiable with a planted witness and half unsatisfiable by proof."""
    name = "search"

    def __init__(self, ctx, rng: random.Random, full: bool):
        super().__init__()
        self.ctx = ctx
        self.seed = rng.randrange(2 ** 31)
        if full:
            # four formulas per cell and template, so that a seed's draw of
            # shapes moves the job mix's rate little
            sat = [inputs.planted(rng, m, k) for m in (0, 1) for k in (1, 2)
                   for _ in range(4)]
            unsat = [inputs.refutable(rng, t) for t, _, _ in
                     inputs.UNSAT_TEMPLATES for _ in range(4)]
        else:
            sat = [inputs.planted(rng, 0, k) for k in (1, 2)]
            unsat = [inputs.refutable(rng, t) for t in ("succ", "order")]
        formulas = sat + unsat
        rng.shuffle(formulas)
        self.jobs = [(i, f, compile_formula(parse_arith(f.text), 2,
                                            ctx.params).b)
                     for i, f in enumerate(formulas)]
        self.quota = 10 * len(self.jobs)

    def start_pass(self):
        super().start_pass()
        self.cycles = {}    # cycle -> [jobs, samples, seconds]
        self.sat_jobs = 0
        self.refuted = 0
        self.streams = []   # (B, sampler seed, samples drawn), traced only

    def _sampler(self, seed):
        p = self.ctx.params
        return Sampler(self.ctx.space, seed=seed,
                       special_vectors=[p.w1, p.w2, p.w3])

    def job(self, job, cycle, tr):
        i, f, b = job
        seed = self.seed + len(self.jobs) * cycle + i
        sampler = self._sampler(seed)
        space = spaces_for(self.ctx, tr)
        traced = isinstance(tr, Tracer)
        if traced:
            sampler = CountingSampler(sampler, tr)
            norms0 = tr.calls("spaces.norm")
        rec = self.cycles.setdefault(cycle, [0, 0, 0.0])
        rec[0] += 1
        t0 = perf_counter()
        try:
            res = tr.call("evaluate.eval_bounded", eval_bounded, space, b,
                          sampler, SEARCH_BUDGET, tol=TOL_LOGIC)
        finally:
            rec[2] += self.timed(perf_counter() - t0)
        if isinstance(res, HoldsOnSamples):
            n = res.samples_tried
            ok = n == SEARCH_BUDGET
        else:
            n = self._draws_until(b, seed, res.assignment)
            _, matrix = strip_universal_prefix(b)
            # a counterexample must be re-verified false at tol and tol/10,
            # and an unsatisfiable formula must never get one
            ok = bool(f.witnesses) and not any(
                eval_qf(self.ctx.space, matrix, res.assignment, tol)
                for tol in (TOL_LOGIC, TOL_LOGIC / 10))
            self.refuted += ok
        rec[1] += n
        self.sat_jobs += bool(f.witnesses)
        if traced:
            tr.add("evaluate.norm_calls", tr.calls("spaces.norm") - norms0)
            self.streams.append((b, seed, n))
        return ok

    def _draws_until(self, b, seed, assignment) -> int:
        prefix, _ = strip_universal_prefix(b)
        sampler = self._sampler(seed)
        for n in range(1, SEARCH_BUDGET + 1):
            if sampler.draw(prefix) == assignment:
                return n
        raise RuntimeError("counterexample not in the sampler's stream")

    def vacuity(self):
        """Re-draw each traced search's sampler stream and evaluate B's
        top-level antecedent conjuncts one at a time: (draws passing the
        five-point conjunct, draws, deepest run of true conjuncts)."""
        passed = draws = deepest = 0
        for b, seed, n in self.streams:
            prefix, matrix = strip_universal_prefix(b)
            ante = matrix.antecedent
            conjuncts = ante.args if isinstance(ante, And) else (ante,)
            sampler = self._sampler(seed)
            for _ in range(n):
                a = sampler.draw(prefix)
                depth = 0
                for c in conjuncts:
                    if not eval_qf(self.ctx.space, c, a, TOL_LOGIC):
                        break
                    depth += 1
                passed += depth > 0
                draws += 1
                deepest = max(deepest, depth)
        return passed, draws, deepest

    def refuted_share(self):
        return self.refuted / self.sat_jobs

    def metrics(self):
        # total samples over total time (see GeometryStage.metrics), in
        # complete cycles only: each holds the whole job mix once
        full = [(n, s) for jobs, n, s in self.cycles.values()
                if jobs == len(self.jobs)]
        return {"search.samples_per_s": (sum(n for n, _ in full)
                                         / sum(s for _, s in full), "1/s")}


# -- lift -------------------------------------------------------------------

class LiftStage(Stage):
    """lift_witness on precompiled B over distinct (formula, witness)
    pairs; every antecedent conjunct and then the matrix is evaluated."""
    name = "lift"

    def __init__(self, ctx, rng: random.Random, full: bool):
        super().__init__()
        self.ctx = ctx
        # full: two formulas for each cell with m + k = 3 or 4, whose lifts
        # cost alike, so the percentiles fall in a dense run of jobs; probe:
        # two formulas for each cell with m + k <= 3, for many distinct costs
        cells = [(m, k) for m in range(4) for k in (1, 2, 3)
                 if (m + k in (3, 4) if full else m + k <= 3)
                 for _ in range(2)]
        per_formula = 4 if full else 2
        self.jobs = []
        for m, k in cells:
            f = inputs.planted(rng, m, k, extra=per_formula - 1)
            q = parse_arith(f.text)
            out = compile_formula(q, 2, ctx.params)
            # the same number of jobs per cell, repeating a witness when the
            # formula has fewer
            self.jobs += [(q, f.witnesses[j % len(f.witnesses)], out)
                          for j in range(per_formula)]
        rng.shuffle(self.jobs)
        # a lift is cheap next to a compile or a circle pair: the probe runs
        # twice the samples a p90 needs, for a steadier median
        self.quota = math.ceil(2 * P90_MIN / len(self.jobs)) * len(self.jobs)

    def start_pass(self):
        super().start_pass()
        self.lift_ms = []

    def enough(self):
        return len(self.lift_ms) >= P90_MIN

    def job(self, job, cycle, tr):
        q, w, out = job
        space = spaces_for(self.ctx, tr)
        t0 = perf_counter()
        try:
            a = tr.call("reduction.lift", lift_witness, q, w, self.ctx.params,
                        space, tol=TOL_LOGIC, compiled=out)
        finally:
            self.lift_ms.append(1e3 * self.timed(perf_counter() - t0))
        _, matrix = strip_universal_prefix(out.b)
        return not eval_qf(self.ctx.space, matrix, a, TOL_LOGIC)

    def metrics(self):
        return {"lift.lift_ms_p50": (p50(self.lift_ms), "ms"),
                "lift.lift_ms_p90": (p90(self.lift_ms), "ms")}


# -- geometry ---------------------------------------------------------------

#: vectors per norm_arr batch and points per unit_point sweep
NORM_BATCH = 4096
SWEEP_POINTS = 256


class GeometryStage(Stage):
    """intersect_circles on crafted families, norm_arr on a fixed batch of
    known-norm vectors, and unit_point sweeps as in --dump-boundary."""
    name = "geometry"

    def __init__(self, ctx, rng: random.Random, full: bool):
        super().__init__()
        self.ctx = ctx
        pairs = inputs.circle_pairs(rng, ctx.params, 12 if full else 8)
        rng.shuffle(pairs)
        vs, self.known = inputs.known_norm_batch(rng, ctx.params, NORM_BATCH)
        self.batch = np.array(vs)
        self.jobs = []
        for i, c in enumerate(pairs):
            self.jobs.append(("pair", c))
            if i % 4 == 3:
                self.jobs += [("norms", None), ("sweep", None)]
        self.quota = math.ceil(P90_MIN / len(pairs)) * len(self.jobs)

    def start_pass(self):
        super().start_pass()
        self.pair_ms = []
        self.norm_work = [0, 0.0]    # vectors given to norm_arr, seconds
        self.sweep_work = [0, 0.0]   # points swept by unit_point, seconds

    def enough(self):
        return len(self.pair_ms) >= P90_MIN

    def job(self, job, cycle, tr):
        kind, c = job
        space = spaces_for(self.ctx, tr)
        if kind == "norms":
            t0 = perf_counter()
            try:
                got = space.norm_arr(self.batch)
            finally:
                self.norm_work[0] += len(self.batch)
                self.norm_work[1] += self.timed(perf_counter() - t0)
            return all(abs(g - k) <= TOL_GEOM * max(1.0, k)
                       for g, k in zip(got.tolist(), self.known))
        if kind == "sweep":
            t0 = perf_counter()
            try:
                pts = [space.unit_point(2.0 * math.pi * i / SWEEP_POINTS)
                       for i in range(SWEEP_POINTS)]
            finally:
                self.sweep_work[0] += SWEEP_POINTS
                self.sweep_work[1] += self.timed(perf_counter() - t0)
            return all(inputs.on_boundary((p.x, p.y), self.ctx.params,
                                          TOL_GEOM) for p in pts)
        p, q = Vec2(*c.p), Vec2(*c.q)
        t0 = perf_counter()
        try:
            rep = tr.call("geometry.intersect", intersect_circles, space,
                          p, c.r, q, c.s, grid_n=c.grid_n, tol=TOL_GEOM)
        except GridTooCoarse:
            tr.add("intersect.grid_too_coarse")
            return False
        finally:
            self.pair_ms.append(1e3 * self.timed(perf_counter() - t0))
        if rep.classification.name != c.expected:
            return False
        if c.two_points and not all(hasattr(x, "p")
                                    for x in rep.components):
            return False
        plain = self.ctx.space
        ends = [e for x in rep.components
                for e in ((x.p,) if hasattr(x, "p") else (x.a, x.b))]
        return all(abs(plain.norm(e - p) - c.r) <= TOL_GEOM and
                   abs(plain.norm(e - q) - c.s) <= TOL_GEOM for e in ends)

    def metrics(self):
        # Throughputs are total work over total time, not medians of
        # per-call rates: a call is short enough to fall wholly in a fast or
        # a slow spell of the machine, so a median of per-call rates jumps
        # between the two while the total moves with the time spent in each.
        n, s = self.norm_work
        points, sweep_s = self.sweep_work
        return {
            "geometry.pair_ms_p50": (p50(self.pair_ms), "ms"),
            "geometry.pair_ms_p90": (p90(self.pair_ms), "ms"),
            "geometry.norms_per_s": (n / s, "1/s"),
            "geometry.boundary_points_per_s": (points / sweep_s, "1/s"),
        }


STAGES = {s.name: s for s in (CompileStage, SearchStage, LiftStage,
                              GeometryStage)}
