"""Run one workload of the normlogic benchmark and print its metrics.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the package is imported from ./src.
Workloads: compile, search, lift, geometry.  One caller in one process runs
jobs back to back (a closed loop, no extra threads).  The workload's own
stage runs its full seeded input family for --seconds (longer only if a p90
still lacks samples) while the other three stages run a fixed probe, a
smaller sample of their own families, the same in every run, spread over
the same time.  So every run reports every metric, and the three probes are
controls that an optimisation of the own stage should leave unchanged.

With --trace 0 the last line holds the end-to-end metrics.  With --trace 1
the own stage runs for half the time untraced, then the same jobs run again
with spans and counting proxies, and the last line holds the per-layer
metrics and the tracing overhead (traced minus untraced time in the timed
calls).  Exit status 0 means the run completed; "correct" says whether every
output matched its known answer.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
from collections import namedtuple
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("compile", "search", "lift", "geometry")
#: set-ups per run; setup_s is their median.  The first set-up of a process
#: is the slowest and varies most (the heap grows, first calls warm up), so
#: an odd count of at least five keeps it out of the median.
SETUP_REPS = 5

Plane = namedtuple("Plane", "params space")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_package():
    """Import normlogic from this checkout's src, and nowhere else."""
    if not (SRC / "normlogic" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'normlogic'} not found; run "
                         "from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import normlogic
    if Path(normlogic.__file__).resolve().parent != SRC / "normlogic":
        raise SystemExit(f"perfbench: imported normlogic from "
                         f"{normlogic.__file__}, not from {SRC}")


def set_up(workload, seed):
    """Construct the plane and every stage's inputs: (stages, construct s)."""
    from normlogic.geometry import construct_l1
    from stages import STAGES
    t0 = perf_counter()
    plane = Plane(*construct_l1())
    construct_s = perf_counter() - t0
    # Only the own stage's inputs follow the seed.  The probes are controls:
    # the same inputs in every run, so that their numbers move only with
    # the code and the machine.
    stages = {name: cls(plane, random.Random(f"{seed}:{name}"
                                             if name == workload
                                             else f"probe:{name}"),
                        full=name == workload)
              for name, cls in STAGES.items()}
    return stages, construct_s


def run_pass(stages, own, tr, seconds, schedule=None):
    """Run one pass and return its schedule: the stage of each job, in order.

    The own stage runs its jobs in cycles while the other stages run their
    quota as probes, spread evenly over `seconds` so that a slow spell of the
    machine touches every metric alike.  The pass lasts at least `seconds`,
    at least one full cycle of the own stage, and until the own stage has the
    samples its metrics need; the probes then finish their quota.  Given a
    `schedule`, the pass replays exactly those jobs.  Garbage is collected
    between jobs, outside the timed calls, so no job pays for collecting
    another job's large ASTs.
    """
    for stage in stages.values():
        stage.start_pass()
    done = dict.fromkeys(stages, 0)

    def step(name):
        stage = stages[name]
        cycle, i = divmod(done[name], len(stage.jobs))
        stage.run(stage.jobs[i], cycle, tr)
        gc.collect()
        done[name] += 1

    if schedule is not None:
        for name in schedule:
            step(name)
        return schedule
    schedule = []
    probes = [name for name in stages if name != own]
    start = perf_counter()
    while True:
        frac = min(1.0, (perf_counter() - start) / seconds)
        behind = [n for n in probes if done[n] < frac * stages[n].quota]
        if behind:
            name = behind[0]
        elif frac < 1.0 or done[own] < len(stages[own].jobs) or \
                not stages[own].enough():
            name = own
        else:
            return schedule
        step(name)
        schedule.append(name)


def _curve_rates(m):
    """graph_x_for_angle on the angles the geometry grids hand the graph
    piece: (array angles per second, scalar microseconds per call)."""
    import numpy as np
    from normlogic.geometry.curve import (graph_x_for_angle,
                                          graph_x_for_angle_arr)
    ts = np.concatenate([np.linspace(0.0, 2 * math.pi, n, endpoint=False)
                         for n in (4096, 8192)]) % math.pi
    ts = ts[(ts > math.pi / 2) & (ts < math.pi)]
    scalar = ts[:: max(1, len(ts) // 256)].tolist()
    arr_s, one_s = [], []
    for _ in range(5):
        t0 = perf_counter()
        graph_x_for_angle_arr(ts, m)
        arr_s.append(perf_counter() - t0)
        t0 = perf_counter()
        for t in scalar:
            graph_x_for_angle(t, m)
        one_s.append(perf_counter() - t0)
    return (len(ts) / statistics.median(arr_s),
            1e6 * statistics.median(one_s) / len(scalar))


def layer_metrics(tr, stages, construct_s, m, overhead):
    """The per-layer metrics of a traced pass."""
    arr_rate, scalar_us = _curve_rates(m)
    search = stages["search"]
    passed, draws, deepest = search.vacuity()
    b_stats = list(stages["compile"].b_stats.values())
    untraced_s, traced_s = overhead
    c, t, self_s = tr.count, tr.total, tr.self_time
    return {
        "construct.s": (construct_s, "s"),
        "curve.arr_angles_per_s": (arr_rate, "1/s"),
        "curve.scalar_us": (scalar_us, "us"),
        "boundary.rho_calls": (tr.calls("boundary.rho"), "count"),
        "boundary.rho_s": (t("boundary.rho"), "s"),
        "boundary.rho_arr_angles": (c("boundary.rho_arr_angles"), "count"),
        "boundary.rho_arr_s": (t("boundary.rho_arr"), "s"),
        "spaces.norm_calls": (tr.calls("spaces.norm"), "count"),
        "spaces.norm_s": (t("spaces.norm"), "s"),
        "spaces.norm_arr_vectors": (c("spaces.norm_arr_vectors"), "count"),
        "spaces.norm_arr_s": (t("spaces.norm_arr"), "s"),
        "intersect.calls": (tr.calls("geometry.intersect"), "count"),
        "intersect.s": (t("geometry.intersect"), "s"),
        "intersect.self_s": (self_s("geometry.intersect"), "s"),
        "intersect.grid_too_coarse": (c("intersect.grid_too_coarse"),
                                      "count"),
        "sentences.mk_s": (t("sentences.mk"), "s"),
        "sentences.b_nodes": (statistics.mean(s[0] for s in b_stats),
                              "count"),
        "sentences.b_norm_nodes": (statistics.mean(s[1] for s in b_stats),
                                   "count"),
        "sentences.b_distinct_norms": (statistics.mean(s[2] for s in b_stats),
                                       "count"),
        "prenex.check_s": (t("prenex.check"), "s"),
        "sexpr.print_s": (t("sexpr.print"), "s"),
        "sexpr.parse_s": (t("sexpr.parse"), "s"),
        "sexpr.bytes": (c("sexpr.bytes"), "bytes"),
        "evaluate.draws": (tr.calls("evaluate.draw"), "count"),
        "evaluate.draw_s": (t("evaluate.draw"), "s"),
        "evaluate.eval_self_s": (self_s("evaluate.eval_bounded"), "s"),
        "evaluate.norms_per_sample": (c("evaluate.norm_calls")
                                      / tr.calls("evaluate.draw"), "count"),
        "evaluate.pw_pass_share": (passed / draws, "ratio"),
        "evaluate.ante_depth_max": (deepest, "count"),
        "arith.parse_s": (t("reduction.arith"), "s"),
        "flatten.s": (t("reduction.flatten"), "s"),
        "flatten.triples": (c("flatten.triples"), "count"),
        "compiler.self_s": (self_s("reduction.compiler"), "s"),
        "lift.self_s": (self_s("reduction.lift"), "s"),
        "search.refuted_share": (search.refuted_share(), "ratio"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_pct": (100.0 * (traced_s - untraced_s) / untraced_s,
                               "%"),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_package()
    import numpy as np
    import stages  # noqa: F401  loaded here, so set-up times no import
    from tracing import Tracer, Untraced

    setup_s, construct_s = [], []
    for _ in range(SETUP_REPS):
        stages = None   # free the previous set-up before timing the next
        gc.collect()
        t0 = perf_counter()
        stages, cs = set_up(args.workload, args.seed)
        setup_s.append(perf_counter() - t0)
        construct_s.append(cs)
    # Setup objects (compiled sentences, batches) live for the whole run:
    # keep them out of every later collection.  GC stays on for timed code.
    gc.collect()
    gc.freeze()

    if args.trace:
        schedule = run_pass(stages, args.workload, Untraced, args.seconds / 2)
        untraced_s = sum(s.busy_s for s in stages.values())
        tr = Tracer()
        run_pass(stages, args.workload, tr, None, schedule)
        traced_s = sum(s.busy_s for s in stages.values())
        metrics = layer_metrics(tr, stages, statistics.median(construct_s),
                                stages["geometry"].ctx.params.m,
                                (untraced_s, traced_s))
    else:
        run_pass(stages, args.workload, Untraced, args.seconds)
        metrics = {"setup_s": (statistics.median(setup_s), "s"),
                   "peak_mib": (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024.0, "MiB")}
        for stage in stages.values():
            metrics.update(stage.metrics())

    attempted = sum(s.attempted for s in stages.values())
    failed = sum(s.failed for s in stages.values())
    print(f"# machine: nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={np.__version__} "
          f"{platform.machine()}")
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, stage in stages.items():
        print(f"# {name:9s} attempted={stage.attempted} failed={stage.failed}"
              f"{'  (own)' if name == args.workload else '  (probe)'}")
    if not args.trace:
        print(f"# search.refuted_share={stages['search'].refuted_share()}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
