"""Per-layer tracing from outside the package.

A Tracer swaps public fransonsim names for timing wrappers while one
operation runs, then puts the originals back.  Only module attributes
are patched; the package code itself is untouched, so the untraced
runs that produce the end-to-end numbers execute exactly the shipped
code.

Each wrapper opens a span on entry and closes it on exit.  A span's
self time is its duration minus the durations of the spans opened
inside it, so self times of all layers add up to the time spent in
traced calls, whatever the nesting (e.g. budget.predict_visibility
calling budget.predict_rates calling physics.accidental_rate).

Spans are accumulated per metric name, in memory, and read out with
``take()`` after each operation.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from fransonsim import budget, montecarlo, scenarios, tia

# names that budget and scenarios import from physics
_PHYSICS_IN_BUDGET = ("accidental_rate", "chsh_from_visibility",
                      "dispersion_broaden", "sigma_from_fwhm")
_BUDGET_PUBLIC = ("predict_rates", "predict_visibility", "bell_verdict",
                  "optimize_window")
_BUDGET_IN_SCENARIOS = ("predict_rates", "predict_visibility",
                        "optimize_window")


class Tracer:
    """Span accounting plus the patch set that feeds it."""

    def __init__(self):
        self._stack: List[List] = []   # [metric, start, child_seconds]
        self._saved: List[Tuple[object, str, object]] = []
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, metric: str) -> None:
        self._stack.append([metric, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        metric, start, child = self._stack.pop()
        span = time.perf_counter() - start
        self.seconds[metric] += span - child
        if self._stack:
            self._stack[-1][2] += span

    def take(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Return and clear what was accumulated since the last take."""
        seconds, counts = dict(self.seconds), dict(self.counts)
        self.seconds.clear()
        self.counts.clear()
        return seconds, counts

    def timed(self, metric: str, fn: Callable, count: str = "") -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                self.counts[count] += 1
            self._enter(metric)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, module, name: str, replacement) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def _wrap(self, module, name: str, metric: str, count: str = "") -> None:
        self._patch(module, name,
                    self.timed(metric, getattr(module, name), count))

    def install(self, rebuild_host) -> None:
        """Patch the public names; ``rebuild_host`` is the module whose
        ``rebuild`` helper builds configs for the closed-form map."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name in _PHYSICS_IN_BUDGET:
            self._wrap(budget, name, "physics.busy_s", "physics.calls")
        self._wrap(scenarios, "chsh_from_visibility", "physics.busy_s",
                   "physics.calls")
        for name in _BUDGET_PUBLIC:
            self._wrap(budget, name, "budget.busy_s", "budget.calls")
        for name in _BUDGET_IN_SCENARIOS:
            self._wrap(scenarios, name, "budget.busy_s", "budget.calls")

        buckets = self._traced_buckets(montecarlo.iter_click_buckets)
        self._patch(scenarios, "iter_click_buckets", buckets)
        self._patch(montecarlo, "iter_click_buckets", buckets)
        self._wrap(montecarlo, "run_simulation", "montecarlo.busy_s")
        self._patch(montecarlo, "write_click_stream",
                    self._traced_write(montecarlo.write_click_stream))
        self._wrap(montecarlo, "read_click_stream", "montecarlo.read_s")

        accumulator = self._traced_accumulator(tia.HistogramAccumulator)
        self._patch(scenarios, "HistogramAccumulator", accumulator)
        self._patch(tia, "HistogramAccumulator", accumulator)
        for module in (scenarios, tia):
            self._wrap(module, "count_in_window", "tia.window_count_s")
        self._wrap(scenarios, "fit_fringe", "tia.fit_s")
        self._wrap(tia, "build_histogram", "tia.build_histogram_s")

        self._wrap(scenarios, "run_scenario", "scenarios.self_s")
        self._patch(scenarios, "emit_outputs",
                    self._traced_emit(scenarios.emit_outputs))
        self._patch(rebuild_host, "rebuild",
                    self._traced_rebuild(rebuild_host.rebuild))

    def install_setup(self) -> None:
        """Time preset() alone, nested calls included: it is set-up work
        and not part of any operation's layer split."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._wrap(scenarios, "preset", "scenarios.preset_s")

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    # -- wrappers that also count work ----------------------------------------

    def _traced_buckets(self, original):
        tracer = self

        @functools.wraps(original)
        def iter_click_buckets(config, diag=None):
            diag = montecarlo.SimDiagnostics() if diag is None else diag
            inner = original(config, diag)
            while True:
                tracer._enter("montecarlo.busy_s")
                try:
                    bucket = next(inner)
                except StopIteration:
                    break
                finally:
                    tracer._exit()
                tracer.counts["montecarlo.buckets"] += 1
                tracer.counts["montecarlo.clicks"] += \
                    int(bucket[1].size + bucket[3].size)
                yield bucket
            tracer.counts["montecarlo.pairs_generated"] += \
                diag.pairs_generated
        return iter_click_buckets

    def _traced_write(self, original):
        timed = self.timed("montecarlo.write_s", original)

        @functools.wraps(original)
        def write_click_stream(stream, path, *args, **kwargs):
            timed(stream, path, *args, **kwargs)
            self.counts["montecarlo.file_bytes"] += os.path.getsize(path)
        return write_click_stream

    def _traced_emit(self, original):
        timed = self.timed("scenarios.emit_s", original)

        @functools.wraps(original)
        def emit_outputs(*args, **kwargs):
            written = timed(*args, **kwargs)
            self.counts["scenarios.report_bytes"] += \
                sum(os.path.getsize(p) for p in written)
            return written
        return emit_outputs

    def _traced_accumulator(self, original):
        tracer = self

        class HistogramAccumulator(original):
            def add_bucket(self, starts, stops, bucket_hi_ps):
                tracer.counts["tia.starts"] += len(starts)
                tracer._enter("tia.add_bucket_s")
                try:
                    super().add_bucket(starts, stops, bucket_hi_ps)
                finally:
                    tracer._exit()

            def finalize(self):
                tracer._enter("tia.finalize_s")
                try:
                    hist = super().finalize()
                finally:
                    tracer._exit()
                tracer.counts["tia.pairs_binned"] += hist.total_pairs
                return hist

        HistogramAccumulator.__qualname__ = original.__qualname__
        return HistogramAccumulator

    def _traced_rebuild(self, original):
        # a config object's validation runs in the module that defines
        # its class: specs in physics, SimulationConfig in montecarlo
        by_layer = {
            "fransonsim.physics": self.timed("physics.busy_s", original,
                                             "physics.calls"),
            "fransonsim.montecarlo": self.timed("montecarlo.busy_s",
                                                original),
        }

        @functools.wraps(original)
        def rebuild(obj, **changes):
            call = by_layer.get(type(obj).__module__, original)
            return call(obj, **changes)
        return rebuild
