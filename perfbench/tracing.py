"""Spans and counting proxies for the traced run.

Spans go only around calls into the package's public functions.  Layers
inside a call are reached through proxies handed in as arguments: a boundary
passed as ``PlaneSpace(boundary=...)``, a space passed to the evaluator, the
lift and the classifier, and a sampler passed to the bounded search.  No
module global of the package is touched.

Spans are aggregated per layer as they close (calls, total time, time in
child spans), so self time is total minus child time.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from normlogic.geometry import PlaneSpace


class Tracer:
    """Per-layer span aggregates and plain counters, kept in memory."""

    def __init__(self):
        self.spans = {}     # layer -> [calls, total_s, child_s]
        self.counts = {}
        self._open = []     # child time accumulated by each open span

    def call(self, layer: str, fn, *args, **kwargs):
        self._open.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = self._open.pop()
            rec = self.spans.setdefault(layer, [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += dt
            rec[2] += child
            if self._open:
                self._open[-1] += dt

    def add(self, counter: str, n=1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    def calls(self, layer: str) -> int:
        return self.spans.get(layer, (0, 0.0, 0.0))[0]

    def total(self, layer: str) -> float:
        return self.spans.get(layer, (0, 0.0, 0.0))[1]

    def self_time(self, layer: str) -> float:
        rec = self.spans.get(layer, (0, 0.0, 0.0))
        return rec[1] - rec[2]

    def count(self, counter: str):
        return self.counts.get(counter, 0)


class Untraced:
    """Calls straight through; the timed runs use this."""

    @staticmethod
    def call(layer, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def add(counter, n=1):
        pass


class CountingBoundary:
    """Stands in for a BoundarySpec and times its radial evaluations.

    ``unit_point`` is one radial evaluation, so it counts as a ``rho`` call.
    """

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def rho(self, theta):
        return self.tracer.call("boundary.rho", self.inner.rho, theta)

    def unit_point(self, theta):
        return self.tracer.call("boundary.rho", self.inner.unit_point, theta)

    def rho_arr(self, theta):
        self.tracer.add("boundary.rho_arr_angles", len(theta))
        return self.tracer.call("boundary.rho_arr", self.inner.rho_arr, theta)


@dataclass(frozen=True)
class CountingPlane(PlaneSpace):
    """A PlaneSpace whose norms are timed; give it a CountingBoundary."""
    tracer: Tracer = None

    def norm(self, v):
        return self.tracer.call("spaces.norm", PlaneSpace.norm, self, v)

    def norm_arr(self, vs):
        self.tracer.add("spaces.norm_arr_vectors", len(vs))
        return self.tracer.call("spaces.norm_arr", PlaneSpace.norm_arr, self,
                                vs)


def counting_plane(space: PlaneSpace, tracer: Tracer) -> CountingPlane:
    return CountingPlane(boundary=CountingBoundary(space.boundary, tracer),
                         tracer=tracer)


class CountingSampler:
    """Times each draw of a wrapped Sampler."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def draw(self, prefix):
        return self.tracer.call("evaluate.draw", self.inner.draw, prefix)
