"""Parallel subsystem tests: the process pool and the parallel suite.

Trace replay is serial; its golden-trace differential lives in
``test_fastpath.py``.
"""

import time

import pytest

from repro.analysis.profiles import profile_checksum
from repro.harness import default_profilers, replay_experiment, run_suite
from repro.parallel import INJECT_KINDS, PoolJob, run_jobs
from repro.workloads.suite import build_suite


# -- sanitizer: attached once per trace ------------------------------------------


def test_sanitizer_attached_once_per_replay(golden):
    """Regression: one replay pass drives all profilers AND the
    sanitizer, so its counters equal the trace length -- attaching it
    per profiler pass would multiply them by the profiler count."""
    expected = golden.expected
    result = replay_experiment(golden.trace, golden.image, golden.configs,
                               sanitize=True)
    assert len(result.profilers) == len(golden.configs)
    assert result.sanitizer is not None
    assert result.sanitizer.cycles_checked == expected["cycles"]
    assert result.sanitizer.commits_checked == expected["committed"]
    assert result.sanitizer.ok


# -- process pool: failure injection ---------------------------------------------


def _double(value):
    return value * 2


def _slow_ok(value):
    time.sleep(0.05)
    return value


def test_pool_runs_jobs_and_reports_attempts():
    jobs = [PoolJob(f"j{i}", _double, (i,)) for i in range(4)]
    report = run_jobs(jobs, workers=2)
    assert report.ok and not report.degraded
    assert report.results == {f"j{i}": 2 * i for i in range(4)}
    assert all(report.attempts[f"j{i}"] == 1 for i in range(4))


@pytest.mark.parametrize("kind", INJECT_KINDS)
def test_pool_failure_injection_yields_clean_report(kind):
    """A worker that raises, hangs past its timeout, or dies mid-job is
    retried and then reported -- never a hung suite or a poisoned
    results dict."""
    jobs = [
        PoolJob("good", _double, (21,)),
        PoolJob("bad", _double, (1,), timeout=0.5, inject=kind),
    ]
    start = time.monotonic()
    report = run_jobs(jobs, workers=2, retries=1, poll_interval=0.01)
    elapsed = time.monotonic() - start
    assert elapsed < 10  # the hang case must be bounded by the timeout
    assert report.results == {"good": 42}
    assert set(report.failures) == {"bad"}
    failure = report.failures["bad"]
    assert failure.attempts == 2  # first try + one retry
    expected_kind = {"raise": "exception", "hang": "timeout",
                     "die": "crash"}[kind]
    assert failure.kind == expected_kind
    assert "bad" in str(failure)


def test_pool_retry_then_succeed():
    job = PoolJob("flaky", _double, (5,), inject="raise",
                  inject_attempts=frozenset({0}))
    report = run_jobs([job], workers=2, retries=2, poll_interval=0.01)
    assert report.ok
    assert report.results == {"flaky": 10}
    assert report.attempts["flaky"] == 2


def test_pool_crash_exit_code_reported():
    job = PoolJob("dies", _double, (1,), inject="die")
    report = run_jobs([job], workers=2, retries=0, poll_interval=0.01)
    assert "86" in report.failures["dies"].message


def test_pool_serial_degradation():
    jobs = [PoolJob(f"j{i}", _double, (i,)) for i in range(3)]
    report = run_jobs(jobs, workers=1)
    assert report.results == {f"j{i}": 2 * i for i in range(3)}
    assert not report.degraded  # workers=1 is serial by request
    report = run_jobs(jobs, workers=0)
    assert report.degraded  # workers=0 means "no pool available"
    assert report.results == {f"j{i}": 2 * i for i in range(3)}


def test_pool_many_jobs_few_workers():
    jobs = [PoolJob(f"j{i}", _slow_ok, (i,)) for i in range(6)]
    report = run_jobs(jobs, workers=2, poll_interval=0.01)
    assert report.ok
    assert report.results == {f"j{i}": i for i in range(6)}


# -- parallel suite ---------------------------------------------------------------


def test_parallel_suite_matches_serial():
    scale = 0.05
    workloads = build_suite(["exchange2", "lbm"], scale=scale)
    configs = default_profilers(29)
    serial = run_suite(workloads, profilers=configs, scale=scale)
    parallel = run_suite(workloads, profilers=configs, scale=scale,
                         jobs=2, sanitize=True)
    assert parallel.ok and not parallel.failures
    assert list(parallel.results) == list(serial.results)
    for name in serial.results:
        for label, profiler in serial.results[name].profilers.items():
            assert profile_checksum(profiler.samples) == \
                profile_checksum(
                    parallel.results[name].profilers[label].samples), \
                f"{name}/{label}"
        assert parallel.results[name].stats.cycles == \
            serial.results[name].stats.cycles
        assert parallel.results[name].sanitizer.ok


def test_parallel_suite_forwards_paranoid(monkeypatch):
    """``--jobs N --paranoid`` cross-checks fast-forwarded regions in
    every worker, not only in serial runs.  Forked workers inherit the
    spy, which fails the job when ``paranoid`` did not reach it."""
    import repro.harness.runner as runner_mod
    real = runner_mod.run_workload

    def spy(*args, **kwargs):
        if not kwargs.get("paranoid"):
            raise AssertionError("worker simulated without paranoid")
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_workload", spy)
    scale = 0.05
    result = run_suite(build_suite(["exchange2", "lbm"], scale=scale),
                       profilers=default_profilers(29), scale=scale,
                       jobs=2, retries=0, sim="fast", paranoid=True)
    assert result.ok, result.failures
    assert set(result.results) == {"exchange2", "lbm"}


def test_parallel_suite_reports_worker_failure(monkeypatch):
    scale = 0.05
    workloads = build_suite(["exchange2"], scale=scale)
    import repro.parallel.suite as suite_mod
    from repro.parallel.pool import JobFailure, PoolReport

    def all_fail(jobs, workers, retries=1, **kwargs):
        return PoolReport(failures={
            job.name: JobFailure(job.name, "timeout", retries + 1,
                                 "no result")
            for job in jobs})

    monkeypatch.setattr(suite_mod, "run_jobs", all_fail)
    result = run_suite(workloads, profilers=default_profilers(29),
                       scale=scale, jobs=2)
    assert not result.ok
    assert set(result.failures) == {"exchange2"}
    assert "exchange2" not in result.results
