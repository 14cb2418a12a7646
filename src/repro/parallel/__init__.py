"""Process-level parallelism (see ``docs/parallel.md``).

* :mod:`repro.parallel.pool` -- a defensive process pool with per-job
  timeout, bounded retry and serial degradation;
* :mod:`repro.parallel.suite` -- the parallel suite runner (one
  simulation per worker process);
* :mod:`repro.parallel.shard` -- :class:`ProgramSpec`, the picklable
  program recipe the job server's workers rebuild programs from.

Trace replay is serial
(:func:`repro.harness.experiment.replay_experiment`).
"""

from .pool import INJECT_KINDS, JobFailure, PoolJob, PoolReport, run_jobs
from .shard import ProgramSpec
from .suite import run_suite_parallel, simulate_benchmark

__all__ = [
    "INJECT_KINDS", "JobFailure", "PoolJob", "PoolReport", "run_jobs",
    "ProgramSpec",
    "run_suite_parallel", "simulate_benchmark",
]
