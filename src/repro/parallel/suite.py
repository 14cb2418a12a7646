"""Parallel suite runner: one simulation per benchmark, many workers.

Each suite benchmark is simulated in its own worker process (the
paper's record phase is embarrassingly parallel across benchmarks).
Workers ship back picklable payloads -- the Oracle report, core
statistics and per-profiler sample snapshots -- and the parent rebuilds
full :class:`~repro.harness.experiment.ExperimentResult` objects around
a freshly booted image, so downstream analysis (error tables, cycle
stacks) is unchanged.

Workloads whose program cannot be rebuilt by name in a worker (anything
outside the named suite) run serially in the parent; so does everything
when the pool degrades.  A worker that raises, hangs or dies is retried
and finally reported in ``SuiteResult.failures`` without disturbing the
other benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..harness.experiment import ExperimentResult, ProfilerConfig
from ..lint.sanitizer import TraceInvariantError, TraceSanitizer
from ..workloads.generator import Workload
from ..workloads.suite import BENCHMARKS
from .pool import JobFailure, PoolJob, run_jobs

#: Default per-benchmark wall-clock budget (seconds) in pool mode.
DEFAULT_JOB_TIMEOUT = 600.0


def simulate_benchmark(name: str, scale: float,
                       configs: Tuple[ProfilerConfig, ...],
                       max_cycles: int,
                       sanitize: bool,
                       sim: str = "step",
                       cache_dir: Optional[str] = None,
                       paranoid: bool = False) -> dict:
    """Worker entry: simulate one named suite benchmark.

    Rebuilds the workload from its name (Workload objects carry
    non-picklable semantic callables) and returns a picklable payload.
    *sim* and *paranoid* select the simulation fast path and its
    cross-check; *cache_dir* (a plain path, picklable) the
    content-addressed simulation cache.
    """
    from ..cpu.core import MaxCyclesExceeded
    from ..harness.runner import run_workload
    from ..workloads.suite import build
    workload = build(name, scale)
    try:
        result = run_workload(workload, configs, max_cycles,
                              sanitize=sanitize, sim=sim,
                              paranoid=paranoid, cache=cache_dir)
    except TraceInvariantError as exc:
        return {"invariant_violation": exc.diagnostic}
    except MaxCyclesExceeded as exc:
        return {"max_cycles_exceeded": str(exc)}
    return {
        "oracle": result.oracle,
        "stats": result.stats,
        "cached": result.cached,
        "profilers": {label: profiler.snapshot()
                      for label, profiler in result.profilers.items()},
        "sanitizer": (result.sanitizer.snapshot()
                      if result.sanitizer is not None else None),
    }


def rebuild_result(workload: Workload,
                   configs: Sequence[ProfilerConfig],
                   payload: dict) -> ExperimentResult:
    """Reconstruct an ExperimentResult from a worker payload.

    The payload shape is shared by :func:`simulate_benchmark` and the
    job server's workers (:func:`repro.serve.jobs.result_payload`):
    the Oracle report, core statistics and per-profiler snapshots,
    rebuilt around a freshly booted image so downstream analysis is
    unchanged and bit-identical.
    """
    if "invariant_violation" in payload:
        raise TraceInvariantError(payload["invariant_violation"])
    from ..kernel import Kernel
    image = Kernel().boot(workload.program, workload.premapped)
    profilers = {}
    for config in configs:
        profiler = config.build(image)
        profiler.restore_snapshot(payload["profilers"][config.name])
        profilers[config.name] = profiler
    sanitizer = None
    if payload["sanitizer"] is not None:
        sanitizer = TraceSanitizer(program=image)
        sanitizer.restore_snapshot(payload["sanitizer"])
    result = ExperimentResult(image, payload["oracle"], profilers,
                              payload["stats"], sanitizer=sanitizer)
    result.cached = payload.get("cached", False)
    return result


def run_suite_parallel(workloads: Sequence[Workload],
                       profilers: Sequence[ProfilerConfig],
                       jobs: int,
                       scale: float = 1.0,
                       max_cycles: int = 10_000_000,
                       sanitize: bool = False,
                       timeout: Optional[float] = DEFAULT_JOB_TIMEOUT,
                       retries: int = 1,
                       verbose: bool = False,
                       sim: str = "step",
                       paranoid: bool = False,
                       cache_dir: Optional[str] = None):
    """Simulate *workloads* on up to *jobs* worker processes.

    Returns a :class:`~repro.harness.runner.SuiteResult`; benchmarks
    whose worker failed (after retries) appear in ``failures`` instead
    of ``results``.  *scale* must match the scale the workloads were
    built with -- workers rebuild them by name.  *sim*, *paranoid* and
    *cache_dir* forward the simulation fast path, its cross-check and
    the cache root to every worker;
    a benchmark that exhausts *max_cycles* lands in ``failures`` with
    kind ``"max-cycles"``.
    """
    from ..cpu.core import MaxCyclesExceeded
    from ..harness.runner import SuiteResult, run_workload

    configs = tuple(profilers)
    pool_jobs: List[PoolJob] = []
    serial: List[Workload] = []
    for workload in workloads:
        if workload.name in BENCHMARKS:
            pool_jobs.append(PoolJob(
                name=workload.name, func=simulate_benchmark,
                args=(workload.name, scale, configs, max_cycles,
                      sanitize, sim, cache_dir, paranoid),
                timeout=timeout))
        else:
            serial.append(workload)

    if verbose and pool_jobs:
        print(f"[suite] {len(pool_jobs)} benchmark(s) on "
              f"{min(jobs, len(pool_jobs))} worker(s)", flush=True)
    report = run_jobs(pool_jobs, workers=jobs, retries=retries,
                      verbose=verbose)

    results: Dict[str, ExperimentResult] = {}
    failures: Dict[str, JobFailure] = dict(report.failures)
    by_name = {workload.name: workload for workload in workloads}
    for job in pool_jobs:
        if job.name not in report.results:
            continue
        payload = report.results[job.name]
        if "max_cycles_exceeded" in payload:
            failures[job.name] = JobFailure(
                job.name, "max-cycles", 1,
                payload["max_cycles_exceeded"])
            continue
        results[job.name] = rebuild_result(
            by_name[job.name], configs, payload)
    for workload in serial:
        if verbose:
            print(f"[suite] running {workload.name} serially ...",
                  flush=True)
        try:
            results[workload.name] = run_workload(
                workload, configs, max_cycles, sanitize=sanitize,
                sim=sim, paranoid=paranoid, cache=cache_dir)
        except MaxCyclesExceeded as exc:
            failures[workload.name] = JobFailure(
                workload.name, "max-cycles", 1, str(exc))
    # Preserve the input ordering for stable tables.
    ordered = {workload.name: results[workload.name]
               for workload in workloads if workload.name in results}
    return SuiteResult(ordered, failures=failures)
