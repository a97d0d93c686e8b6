"""Span recording by wrapping chaoslim's public functions from outside.

The benchmark never edits the package: ``Tracer.installed()`` replaces the
module attributes listed in ``LAYERS`` with timing wrappers for the length
of a ``with`` block and puts the originals back afterwards.  Calls inside
chaoslim go through module globals (``pinning.renewal_mass`` from
``partition_function_batch``, ``harness.sample_pinning`` from the study
runner, ``walk_pmf`` from itself), so nested calls become child spans.

A span is (name, start, end, parent); a layer's self time is its span's
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import statistics
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


# (module name, attribute path, span name)
LAYERS = (
    ("pinning", "partition_function_batch", "pinning.partition_batch"),
    ("pinning", "second_moment_exact", "pinning.second_moment_exact"),
    ("pinning", "renewal_mass", "pinning.renewal_mass"),
    ("pinning", "continuum_second_moment", "pinning.continuum_second_moment"),
    ("harness", "sample_pinning", "harness.sample_pinning"),
    ("harness", "sample_polymer", "harness.sample_polymer"),
    ("harness", "sample_ising", "harness.sample_ising"),
    ("polymer", "polymer_partition", "polymer.partition"),
    ("polymer", "polymer_second_moment_exact", "polymer.second_moment_exact"),
    ("polymer", "gnedenko_gap", "polymer.gnedenko_gap"),
    ("polymer", "StableDensity.pdf", "polymer.stable_pdf"),
    ("polymer", "walk_pmf", "polymer.walk_pmf"),
    ("ising", "LatticeSpinSystem.from_domain", "ising.system_build"),
    ("ising", "rfim_partition_xi", "ising.rfim_partition"),
    ("cli", "main", "cli.sample_cmd"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in LAYERS))


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.samples_drawn = 0
        # id(system) -> weakref, to tell the first (cold) rfim call on a
        # system from the warm ones without reading the system's cache
        self._seen_systems: dict[int, weakref.ref] = {}

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, fn, name: str):
        if name == "ising.rfim_partition":

            @functools.wraps(fn)
            def rfim(system, *args, **kwargs):
                ref = self._seen_systems.get(id(system))
                cold = ref is None or ref() is not system
                if cold:
                    self._seen_systems[id(system)] = weakref.ref(system)
                label = "ising.system_build" if cold else name
                return self.span(label, fn, system, *args, **kwargs)

            return rfim
        if name == "cli.sample_cmd":

            @functools.wraps(fn)
            def main(argv=None):
                label = "cli.run_cmd" if argv and argv[0] == "run" else name
                return self.span(label, fn, argv)

            return main
        if name.startswith("harness.sample_"):

            @functools.wraps(fn)
            def sampler(*args, **kwargs):
                z = self.span(name, fn, *args, **kwargs)
                self.samples_drawn += len(z)
                return z

            return sampler

        @functools.wraps(fn)
        def plain(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return plain

    @contextmanager
    def installed(self, modules: dict):
        """Wrap every layer in ``modules`` (name -> module) for the block."""
        saved = []
        try:
            for module_name, path, name in LAYERS:
                owner = modules[module_name]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name))
                else:
                    wrapped = self._wrap(raw, name)
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Total self time per span name over spans[first:]."""
        child_time = [0.0] * len(self.spans)
        for i in range(first, len(self.spans)):
            s = self.spans[i]
            if s.parent >= first:
                child_time[s.parent] += s.end - s.start
        totals: dict[str, float] = {}
        for i in range(first, len(self.spans)):
            s = self.spans[i]
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - child_time[i]
        return totals


def span_cost_s(calls: int = 4000, repeats: int = 5) -> float:
    """Median time one span adds to a call: a wrapped no-op against a bare one."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "noop")
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        middle = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append((2 * middle - start - time.perf_counter()) / calls)
    return statistics.median(costs)
