"""Spans and counters around each layer's public entry points.

The traced run wraps the functions below from the outside (the program
itself carries no instrumentation): each call records a span with its
name, start, end, parent span and the id of the job it served.  Spans
stay in memory and are written at the end in the Chrome trace-event
format, which Perfetto opens.  A layer's self time is its spans' time
minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """Collects spans and counters; installs and removes the wrappers."""

    def __init__(self):
        #: [name, start_ns, end_ns, parent index, job id, thread id]
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: Id of the job the calling code is serving.
        self.job: Optional[int] = None
        #: Job id -> "kind/program", written with the spans.
        self.labels: Dict[int, str] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """*fn* recording a *name* span per call; ``after(tracer,
        result)`` runs on each return to update counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [name, time.perf_counter_ns(), None,
                    stack[-1] if stack else None, tracer.job,
                    threading.get_ident()]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter_ns()
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str,
              after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a module function or a method) by a
        traced wrapper until :meth:`unpatch`."""
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, after))
        self._undo.append((owner, attr, original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def add(self, name: str, start: float, end: float,
            job: Optional[int]) -> None:
        """Record a span timed elsewhere (``perf_counter`` seconds)."""
        with self._lock:
            self.spans.append([name, int(start * 1e9), int(end * 1e9),
                               None, job, threading.get_ident()])

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- results ----------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Span name -> total self time in seconds."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _job, _tid in self.spans:
            if parent is not None and end is not None:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, *_rest) in enumerate(self.spans):
            if end is not None:
                totals[name] += (end - start - covered[index]) / 1e9
        return dict(totals)

    def write_chrome_trace(self, path: str, process: str) -> None:
        """Write the spans as Chrome trace events (opens in Perfetto)."""
        if not self.spans:
            origin = 0
        else:
            origin = min(span[1] for span in self.spans)
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": process}}]
        for index, (name, start, end, parent, job, tid) in \
                enumerate(self.spans):
            if end is None:
                continue
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - origin) / 1e3, "dur": (end - start) / 1e3,
                "pid": 1, "tid": tid,
                "args": {"span": index, "parent": parent, "job": job}})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"jobs": self.labels}}, handle)


# -- the layer boundaries --------------------------------------------------

def _count_sim(tracer: Tracer, stats) -> None:
    tracer.count("cpu.target_cycles", stats.cycles)
    tracer.count("cpu.committed", stats.committed)
    memo = getattr(stats, "steady_state_cycles", 0)
    tracer.count("cpu.memo_cycles", memo)
    tracer.count("cpu.ff_cycles",
                 getattr(stats, "fast_forwarded", 0) - memo)


def _count_lookup(tracer: Tracer, hit) -> None:
    tracer.count("simfast.hits" if hit is not None else "simfast.misses")


def _count_evict(tracer: Tracer, _result) -> None:
    tracer.count("simfast.evictions")


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public entry point of every in-process layer.

    Functions are patched in each module that calls them by name, so
    the wrappers see the calls the library makes to itself.
    """
    import repro.analysis.report as report
    import repro.core.oracle as oracle
    import repro.core.profiler as profiler
    import repro.cpu.machine as machine
    import repro.fastpath.engine as engine
    import repro.harness.experiment as experiment
    import repro.harness.runner as runner
    import repro.simfast.cache as cache
    import repro.workloads.generator as generator
    import repro.workloads.suite as suite

    tracer.patch(suite, "build", "workloads.build")
    tracer.patch(generator, "assemble", "isa.assemble")
    tracer.patch(generator, "self_check_program", "lint.self_check")
    tracer.patch(machine.Machine, "__init__", "cpu.boot")
    tracer.patch(machine.Machine, "run", "cpu.sim", _count_sim)
    tracer.patch(cache.SimCache, "key_for", "simfast.key")
    tracer.patch(cache.SimCache, "lookup", "simfast.lookup",
                 _count_lookup)
    tracer.patch(cache.SimCache, "commit", "simfast.commit")
    tracer.patch(cache.SimCache, "evict", "simfast.evict", _count_evict)
    tracer.patch(engine, "replay_with_engine", "fastpath.replay")
    tracer.patch(oracle.OracleProfiler, "on_block", "core.oracle_replay")
    tracer.patch(profiler.SamplingProfiler, "on_block",
                 "core.samplers_replay")
    tracer.patch(experiment, "run_experiment", "harness.run_experiment")
    tracer.patch(runner, "run_experiment", "harness.run_experiment")
    tracer.patch(experiment.ExperimentResult, "errors", "analysis.errors")
    tracer.patch(report, "render_error_table", "analysis.render")
