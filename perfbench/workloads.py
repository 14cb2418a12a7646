"""The three workloads: what a job is, how it runs, how it is checked.

* ``suite-cold`` -- closed loop, one job at a time: what ``repro suite
  <bench>`` does for one never-seen program (build, simulate with the
  CLI defaults, errors at all three granularities, render the tables).
* ``sweep-warm`` -- closed loop over programs built and cached in
  set-up: every job re-profiles one of them under a new schedule through
  ``run_experiment(..., cache=...)``, so every job is a cache hit.
* ``serve-mixed`` -- open loop against ``repro serve``: novel programs,
  cache hits and exact repeats arrive at a fixed rate.
"""

from __future__ import annotations

import math
import os
import pickle
import re
import select
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import hostspeed
import jobstream
from checksum import (Reference, mkdtemp, payload_checksum, profilers_for,
                      result_checksum)
from jobstream import Job

#: serve-mixed: mean seconds between arrivals.
SERVE_INTERVAL = 2.0

#: serve-mixed: seconds a job may take before it counts as failed.
SERVE_JOB_TIMEOUT = 120.0

now = time.perf_counter


def worker_count() -> int:
    """At most one worker process per CPU, and at most two."""
    return max(1, min(2, os.cpu_count() or 1))


@dataclass
class Context:
    """Where and how one benchmark run works."""

    root: str
    work: str
    seed: int
    seconds: float


@dataclass
class JobRecord:
    """What one job did; times are ``perf_counter`` seconds."""

    job: Job
    due: float
    start: float
    end: float
    cycles: int = 0
    checksum: Optional[str] = None
    error: Optional[str] = None
    #: serve-mixed: POST round trip; server-side residence of the
    #: job (``None`` when the POST coalesced onto an earlier job).
    submit_s: float = 0.0
    server_s: Optional[float] = None
    #: Reference seconds per host second while the job ran (see
    #: ``hostspeed``); job times are reported multiplied by it.
    speed: float = 1.0
    #: Closed loop: seconds the speed probes took out of the job's run.
    probed: float = 0.0

    @property
    def latency(self) -> float:
        """Seconds from when the job was due to when it completed."""
        return self.end - self.due


@dataclass
class Phase:
    """The records of one timed (or traced) phase."""

    records: List[JobRecord]
    started: float
    ended: float
    closed: bool

    @property
    def completed(self) -> List[JobRecord]:
        return [record for record in self.records if record.error is None]

    @property
    def busy(self) -> float:
        """Seconds the phase's throughput is measured over: reference
        seconds of job time in a closed loop; host seconds from the
        first due time to the last completion in an open one, whose
        rate the generator sets."""
        if self.closed:
            return sum((record.end - record.start - record.probed)
                       * record.speed for record in self.records)
        return self.ended - self.started

    def host_job_times(self) -> List[float]:
        """Host seconds of each completed job: run time less probing in
        a closed loop, latency from due time in an open one."""
        if self.closed:
            return [r.end - r.start - r.probed for r in self.completed]
        return [r.latency for r in self.completed]

    def job_times(self) -> List[float]:
        """Reference seconds of each completed job."""
        return [seconds * record.speed for record, seconds
                in zip(self.completed, self.host_job_times())]

    def speed(self) -> float:
        """Median reference seconds per host second over the phase."""
        return statistics.median(r.speed for r in self.records)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def closed_loop(next_batch: Callable[[], List[Job]],
                run: Callable[[Job], Tuple[int, object]],
                digest: Callable[[object], str], seconds: float,
                tracer=None) -> Phase:
    """Run whole batches, one job at a time, until *seconds* passed.

    A job is due when the previous one finished, so a job's lateness is
    the benchmark's own time between jobs (checksumming the last one).
    The host's speed is sampled throughout (see ``hostspeed``).
    """
    records: List[JobRecord] = []
    with hostspeed.Sampler() as sampler:
        started = previous = now()
        while True:
            for job in next_batch():
                if tracer is not None:
                    tracer.job = job.index
                    tracer.labels[job.index] = f"{job.kind}/{job.program}"
                start = now()
                try:
                    cycles, output = run(job)
                    error = None
                except Exception as exc:  # a failed job is counted
                    cycles, output, error = 0, None, _describe(exc)
                end = now()
                record = JobRecord(job, previous, start, end, cycles,
                                   error=error)
                if output is not None:
                    record.checksum = digest(output)
                records.append(record)
                previous = end
            if now() - started >= seconds:
                break
        ended = now()
    if tracer is not None:
        tracer.job = None
    for record in records:
        record.speed = sampler.speed(record.start, record.end)
        record.probed = sampler.overhead(record.start, record.end)
    return Phase(records, started, ended, closed=True)


def normalized(stretch: Callable[[], object]) -> float:
    """Reference seconds *stretch* takes, with the host's speed sampled
    while it runs."""
    with hostspeed.Sampler() as sampler:
        start = now()
        stretch()
        end = now()
    return sampler.reference_seconds(start, end)


class Workload:
    """One workload: its set-up, its timed phase and its reference."""

    name = ""
    #: Modules a fresh interpreter imports before the first job.
    imports: Tuple[str, ...] = ()
    #: How many times set-up runs per benchmark run (the median is kept).
    setup_repeats = 5

    def __init__(self, ctx: Context):
        self.ctx = ctx

    @staticmethod
    def warm_up() -> None:
        """Work a fresh process does once before its first job."""

    def setup(self) -> float:
        """Prepare the timed phase; returns the set-up seconds not
        already spent in :meth:`warm_up`."""
        return 0.0

    def median_setup(self, setup: Callable[[], None]) -> float:
        """Median reference seconds of ``setup_repeats`` runs of
        *setup*, each after closing the one before (the last is kept)."""
        times = []
        for _ in range(self.setup_repeats):
            self.close()
            times.append(normalized(setup))
        return statistics.median(times)

    def next_batch(self) -> List[Job]:
        raise NotImplementedError

    def run(self, job: Job) -> Tuple[int, object]:
        raise NotImplementedError

    def digest(self, output) -> str:
        return result_checksum(output)

    def timed(self, tracer=None) -> Phase:
        return closed_loop(self.next_batch, self.run, self.digest,
                           self.ctx.seconds, tracer)

    def close(self) -> None:
        pass


# -- suite-cold --------------------------------------------------------------

def suite_job(job: Job):
    """What ``repro suite <job.program> --scale <job.scale>`` does:
    returns the built workload and its experiment result."""
    from repro.analysis import report
    from repro.analysis.symbols import Granularity
    from repro.harness import runner
    from repro.harness.experiment import default_profilers
    from repro.workloads import suite
    workloads = suite.build_suite([job.program], scale=job.scale)
    # The arguments cmd_suite passes, minus its progress printing.
    outcome = runner.run_suite(
        workloads,
        profilers=default_profilers(job.schedule.period,
                                    mode=job.schedule.mode),
        scale=job.scale, sim="fast")
    if outcome.failures:
        raise RuntimeError(str(outcome.failures))
    for granularity in Granularity:
        report.render_error_table(outcome.errors(granularity),
                                  title=f"{granularity.value}-level error")
    return workloads[0], outcome.results[job.program]


class SuiteCold(Workload):
    """``repro suite <bench>`` on a program the process never saw."""

    name = "suite-cold"
    imports = ("repro.harness.runner", "repro.workloads.suite",
               "repro.analysis.report")

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.rounds = jobstream.suite_rounds(ctx.seed)

    @staticmethod
    def warm_up() -> None:
        """One small job, so lazily imported modules are loaded before
        the first timed job (a fresh CLI process pays them once)."""
        suite_job(Job(-1, "warm-up", "lbm", 0.02,
                      jobstream.Schedule(jobstream.CLI_PERIOD,
                                         "periodic", 0)))

    def setup(self) -> float:
        self.warm_up()
        return 0.0  # measured, with the import, in a fresh process

    def next_batch(self) -> List[Job]:
        return next(self.rounds)

    def _saved(self, job: Job) -> str:
        return os.path.join(self.ctx.work, f"cold-{job.index}.pickle")

    def run(self, job: Job):
        workload, result = suite_job(job)
        return result.stats.cycles, (job, workload, result)

    def digest(self, output) -> str:
        """Checksum a job's report, outside its timed window.  The
        program goes to disk for the reference phase, so the client
        does not grow by one program per job."""
        job, workload, result = output
        with open(self._saved(job), "wb") as handle:
            pickle.dump(workload, handle, pickle.HIGHEST_PROTOCOL)
        return result_checksum(result)

    def reference(self, ref: Reference, job: Job) -> str:
        try:
            with open(self._saved(job), "rb") as handle:
                workload = pickle.load(handle)
        except FileNotFoundError:  # the job failed, or never ran here
            from repro.workloads import suite
            workload = suite.build(job.program, job.scale)
        return ref.checksum(("cold", job.index), workload.program,
                            workload.premapped, profilers_for(job.schedule),
                            record=False)


# -- sweep-warm --------------------------------------------------------------

class SweepWarm(Workload):
    """Sampling sweeps re-profiling cached programs (Fig. 11a/11b)."""

    name = "sweep-warm"
    imports = ("repro.harness.experiment", "repro.simfast.cache",
               "repro.workloads.suite")
    #: Each set-up builds three programs and simulates them (~5 s).
    setup_repeats = 3

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.rounds = jobstream.sweep_rounds(ctx.seed)
        self.programs: Dict[str, object] = {}
        self.cache = None

    def _build(self) -> Dict[str, object]:
        from repro.workloads import suite
        return {name: suite.build(name, scale)
                for name, scale in jobstream.sweep_programs()}

    def _setup_once(self) -> None:
        from repro.harness.experiment import run_experiment
        from repro.simfast.cache import SimCache
        programs = self._build()
        cache = SimCache(mkdtemp(self.ctx.work, "sweep-cache-"))
        fill = profilers_for(jobstream.Schedule(jobstream.CLI_PERIOD,
                                                "periodic", 0))
        for workload in programs.values():
            run_experiment(workload.program, fill,
                           premapped_data=workload.premapped, sim="fast",
                           cache=cache)
        self.programs, self.cache = programs, cache

    def setup(self) -> float:
        return self.median_setup(self._setup_once)

    def next_batch(self) -> List[Job]:
        return next(self.rounds)

    def run(self, job: Job):
        from repro.analysis.symbols import Granularity
        from repro.harness import experiment
        workload = self.programs[job.program]
        result = experiment.run_experiment(
            workload.program, profilers_for(job.schedule),
            premapped_data=workload.premapped, sim="fast",
            cache=self.cache)
        if not result.cached:
            raise RuntimeError("expected a simulation-cache hit")
        for granularity in Granularity:
            result.errors(granularity)
        return result.stats.cycles, result

    def reference(self, ref: Reference, job: Job) -> str:
        if not self.programs:
            self.programs = self._build()
        workload = self.programs[job.program]
        return ref.checksum(job.program, workload.program,
                            workload.premapped, profilers_for(job.schedule))

    def close(self) -> None:
        if self.cache is not None:
            self.cache.clear()


# -- serve-mixed -------------------------------------------------------------

class Server:
    """A ``repro serve`` process on a free port with a fresh cache."""

    def __init__(self, ctx: Context):
        from repro.serve.client import ServeClient
        self.cache_dir = mkdtemp(ctx.work, "serve-cache-")
        env = dict(os.environ)
        src = os.path.join(ctx.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.log = open(os.path.join(ctx.work, "serve.log"), "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(worker_count()),
             "--cache-dir", self.cache_dir],
            cwd=ctx.root, env=env, stdout=subprocess.PIPE,
            stderr=self.log)
        line = self._first_line(timeout=60.0)
        match = re.search(r"http://([^:/\s]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.client = ServeClient(match.group(1), int(match.group(2)))
        deadline = now() + 30.0
        while not self.client.healthy():
            if now() > deadline:
                self.stop()
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.01)

    def _first_line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        if not ready:
            return ""
        return self.process.stdout.readline().decode("utf-8", "replace")

    def stop(self) -> None:
        """Drain and shut the server down, and wait for it to exit."""
        try:
            if self.process.poll() is None:
                if hasattr(self, "client"):
                    self.client.shutdown(drain=True, timeout=60.0)
                else:
                    self.process.terminate()
            self.process.wait(timeout=60.0)
        except Exception:  # any failure to stop cleanly: make sure
            self.process.kill()
            self.process.wait()
        finally:
            self.process.stdout.close()
            self.log.close()


class ServeMixed(Workload):
    """Open-loop traffic against ``repro serve``."""

    name = "serve-mixed"
    imports = ("repro.serve.client", "repro.serve.jobs",
               "repro.parallel.shard")

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.jobs = jobstream.serve_jobs(ctx.seed)
        self.jitter = jobstream.arrival_jitter(ctx.seed)
        self.interval = SERVE_INTERVAL
        self.server: Optional[Server] = None
        self.built: Dict[Tuple[str, float], object] = {}

    def _start_once(self) -> None:
        self.server = Server(self.ctx)

    def setup(self) -> float:
        return self.median_setup(self._start_once)

    def _spec(self, job: Job):
        from repro.parallel.shard import ProgramSpec
        from repro.serve.jobs import JobSpec
        return JobSpec(program=ProgramSpec(kind="workload",
                                           source=job.program,
                                           name=job.program,
                                           scale=job.scale),
                       profilers=tuple(profilers_for(job.schedule)))

    def _one(self, job: Job, due: float) -> JobRecord:
        client = self.server.client
        spec = self._spec(job)
        start = now()
        record = JobRecord(job, due, start, start)
        try:
            job_id, coalesced = client.submit(spec)
            record.submit_s = now() - start
            info = client.wait(job_id, timeout=SERVE_JOB_TIMEOUT,
                               payload=True)
            record.end = now()
            payload = client.result_payload(info)
            record.cycles = payload["stats"].cycles
            if not coalesced:
                record.server_s = info["finished"] - info["created"]
            record.checksum = payload_checksum(payload)
        except Exception as exc:  # failed or refused: counted
            record.end = now()
            record.error = _describe(exc)
        return record

    def timed(self, tracer=None) -> Phase:
        """Submit jobs on their due times for *seconds*; each job is
        handled by one of at most ``worker_count()`` client threads
        (one connection each).  A job's speed comes from the host-speed
        probes taken from its due time to its completion; the probes run
        in the client, beside the server, so nothing is taken out of
        the latency."""
        futures = []
        arrivals = math.ceil(self.ctx.seconds / self.interval)
        with hostspeed.Sampler() as sampler, \
                ThreadPoolExecutor(max_workers=worker_count()) as pool:
            started = now()
            for slot in range(arrivals):
                jitter = next(self.jitter) if slot else 0.0
                due = started + (slot + jitter) * self.interval
                delay = due - now()
                if delay > 0:
                    time.sleep(delay)
                futures.append(pool.submit(self._one, next(self.jobs), due))
            records = [future.result() for future in futures]
        for record in records:
            record.speed = sampler.speed(record.due, record.end)
        ended = max([r.end for r in records] + [started])
        if tracer is not None:
            for record in records:
                job = record.job
                tracer.labels[job.index] = f"{job.kind}/{job.program}"
                tracer.add("serve.submit", record.start,
                           record.start + record.submit_s, job.index)
                tracer.add("serve.wait", record.start + record.submit_s,
                           record.end, job.index)
        return Phase(records, started, ended, closed=False)

    def reference(self, ref: Reference, job: Job) -> str:
        key = (job.program, job.scale)
        workload = self.built.get(key)
        if workload is None:
            from repro.workloads import suite
            workload = self.built[key] = suite.build(job.program,
                                                     job.scale)
        return ref.checksum(key, workload.program, workload.premapped,
                            profilers_for(job.schedule))

    def stats(self) -> dict:
        return self.server.client.stats()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {cls.name: cls for cls in (SuiteCold, SweepWarm, ServeMixed)}


def fresh_setup(name: str) -> float:
    """Reference seconds this (fresh) interpreter takes to import what
    workload *name* needs and to warm it up."""
    import importlib

    def stretch() -> None:
        workload = WORKLOADS[name]
        for module in workload.imports:
            importlib.import_module(module)
        workload.warm_up()

    return normalized(stretch)


def set_up_in_fresh_process(root: str, name: str) -> float:
    """:func:`fresh_setup` of *name* in a new interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe", name],
        cwd=root, check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    print(fresh_setup(sys.argv[sys.argv.index("--probe") + 1]))
