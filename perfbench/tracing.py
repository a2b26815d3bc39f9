"""Spans around phaseswe's public functions, recorded from outside the package.

A traced run replaces each layer's public function with a wrapper in the
namespace of the module that calls it, so the package source is untouched.
A span is (id, parent id, name, start, end, amounts).  The parent is the span
open on the calling thread; work handed to the averaging thread pool carries
the submitting span's id into the worker thread, so node spans hang under the
averaged tendency that scheduled them.

Self time is a span's duration minus the union of its children's intervals.
With two pool threads the children of one averaged tendency overlap, so their
durations cannot simply be subtracted.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

NODE_SPAN = "averaging.node"   # one averaging node evaluated on a pool thread


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    start: float
    end: float
    amounts: tuple = ()


class Tracer:
    """In-memory span recorder; spans are summarised after the traced work ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, amounts=None):
        """fn recorded as span `name`; amounts(args, result) gives summed counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = amounts(args, result) if amounts else ()
            # list.append is atomic under the interpreter lock
            self.spans.append(Span(sid, parent, name, start, end, extra))
            return result
        return traced

    def _adopt(self, parent: int, fn, *args, **kwargs):
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def executor_class(self):
        """ThreadPoolExecutor whose tasks are NODE_SPAN spans under the submitting span."""
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else 0
                return super().submit(tracer._adopt, parent,
                                      tracer.wrap(NODE_SPAN, fn), *args, **kwargs)

        return TracedExecutor

    def summary(self) -> "Summary":
        return Summary(self.spans)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Summary:
    """Per-name calls, inclusive and self seconds, summed amounts, parent links."""

    def __init__(self, spans: list[Span]):
        children = defaultdict(list)
        name_of = {}
        for s in spans:
            children[s.parent].append((s.start, s.end))
            name_of[s.sid] = s.name
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.amounts: dict[str, list[float]] = {}
        self.calls_under = Counter()   # (name, parent name) -> calls
        self.pooled_wall_s = defaultdict(float)  # parent name -> wall of spans with pool children
        pooled = set()
        for s in spans:
            dur = s.end - s.start
            self.calls[s.name] += 1
            self.total_s[s.name] += dur
            self.self_s[s.name] += dur - _covered(children.get(s.sid, []), s.start, s.end)
            if s.amounts:
                acc = self.amounts.setdefault(s.name, [0.0] * len(s.amounts))
                for i, value in enumerate(s.amounts):
                    acc[i] += value
            parent_name = name_of.get(s.parent, "")
            self.calls_under[s.name, parent_name] += 1
            if s.name == NODE_SPAN:
                pooled.add(s.parent)
        for s in spans:
            if s.sid in pooled:
                self.pooled_wall_s[s.name] += s.end - s.start

    def ms_per_call(self, name: str) -> float:
        calls = self.calls[name]
        return 1e3 * self.total_s[name] / calls if calls else 0.0

    def amount(self, name: str, index: int = 0) -> float:
        return self.amounts.get(name, [0.0] * (index + 1))[index]


@contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples for the duration of the block."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


def _grid_bytes(args, result) -> tuple:
    # computed from array sizes: the field read plus the field produced
    return (np.asarray(args[1]).nbytes + result.nbytes,)


def _live_nodes(args, result) -> tuple:
    w = args[1].w
    return (int(np.count_nonzero(w)), len(w))


def layer_patches(tracer: Tracer) -> list:
    """Replacements that trace every layer where its caller looks it up.

    apply_nonlinear is bound as a default argument when averaged_tendency and
    step_averaged_ssprk3 are defined, so the traced version is passed through
    the public nonlinear= parameter of the step instead.
    """
    from phaseswe import (averaging, diagnostics, dynamics, grid, harness,
                          integrator, io, propagator, testcase)

    w = tracer.wrap
    to_physical = w("grid.to_physical", grid.to_physical, _grid_bytes)
    to_spectral = w("grid.to_spectral", grid.to_spectral, _grid_bytes)
    propagate = w("propagator.propagate", propagator.propagate)
    energy_mass = w("diagnostics.energy_mass", diagnostics.energy_mass)
    nonlinear = w("dynamics.apply_nonlinear", dynamics.apply_nonlinear)
    step = integrator.step_averaged_ssprk3

    def traced_step(state, config, params, executor=None):
        return step(state, config, params, executor, nonlinear=nonlinear)

    return [
        *((mod, "to_physical", to_physical)
          for mod in (dynamics, diagnostics, io, integrator)),
        *((mod, "to_spectral", to_spectral) for mod in (dynamics, io, testcase)),
        *((mod, "propagate", propagate) for mod in (averaging, integrator)),
        *((mod, "energy_mass", energy_mass) for mod in (diagnostics, integrator)),
        (propagator, "apply_linear", w("dynamics.apply_linear", dynamics.apply_linear)),
        (propagator, "exact_exp", w("propagator.exact_exp", propagator.exact_exp)),
        (propagator, "cheb_exp", w("propagator.cheb_exp", propagator.cheb_exp)),
        (integrator, "averaged_tendency",
         w("averaging.averaged_tendency", averaging.averaged_tendency, _live_nodes)),
        (integrator, "step_averaged_ssprk3", w("integrator.step", traced_step)),
        (integrator, "ThreadPoolExecutor", tracer.executor_class()),
        (integrator, "make_step_config",
         w("integrator.make_step_config", integrator.make_step_config)),
        (harness, "physics_params", w("testcase.physics_params", testcase.physics_params)),
        (harness, "balanced_jet", w("testcase.balanced_jet", testcase.balanced_jet)),
        (diagnostics, "make_error_report",
         w("diagnostics.make_error_report", diagnostics.make_error_report)),
        (harness, "write_snapshot", w("io.write_snapshot", io.write_snapshot)),
        (harness, "read_snapshot_state",
         w("io.read_snapshot_state", io.read_snapshot_state)),
    ]
