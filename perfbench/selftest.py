"""Self-tests of the benchmark's own logic.

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import os
import shutil
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import jobstream  # noqa: E402
import run  # noqa: E402
import tails  # noqa: E402
import workloads  # noqa: E402
from checksum import (Reference, mkdtemp, payload_checksum,  # noqa: E402
                      profilers_for, result_checksum)


def take(stream, count):
    return list(itertools.islice(stream, count))


def flat(rounds, count):
    return take(itertools.chain.from_iterable(rounds), count)


class JobStreamTest(unittest.TestCase):

    def test_equal_seeds_give_equal_streams(self):
        for make in (jobstream.suite_rounds, jobstream.sweep_rounds):
            self.assertEqual(flat(make(7), 40), flat(make(7), 40))
        self.assertEqual(take(jobstream.serve_jobs(7), 40),
                         take(jobstream.serve_jobs(7), 40))
        self.assertEqual(take(jobstream.arrival_jitter(7), 20),
                         take(jobstream.arrival_jitter(7), 20))

    def test_different_seeds_give_different_streams(self):
        for make in (jobstream.suite_rounds, jobstream.sweep_rounds):
            self.assertNotEqual(flat(make(7), 40), flat(make(8), 40))
        self.assertNotEqual(take(jobstream.serve_jobs(7), 40),
                            take(jobstream.serve_jobs(8), 40))
        self.assertNotEqual(take(jobstream.arrival_jitter(7), 20),
                            take(jobstream.arrival_jitter(8), 20))

    def test_cold_programs_are_all_new(self):
        jobs = flat(jobstream.suite_rounds(3), 200)
        counts = [(job.program,
                   int(job.scale * jobstream.BASE_ITERS[job.program]))
                  for job in jobs]
        self.assertEqual(len(counts), len(set(counts)))

    def test_sweep_schedules_are_all_new(self):
        jobs = flat(jobstream.sweep_rounds(3), 300)
        self.assertEqual(len({job.schedule for job in jobs}), len(jobs))
        self.assertEqual({job.kind for job in jobs}, {"warm"})

    def test_serve_mix_refers_only_backwards(self):
        jobs = take(jobstream.serve_jobs(5), 80)
        novel = set()
        for job in jobs:
            if job.kind == "novel":
                novel.add((job.program, job.scale))
            elif job.kind == "hit":
                self.assertIn((job.program, job.scale), novel)
            else:
                original = jobs[job.repeats]
                self.assertLess(original.index, job.index)
                self.assertEqual(original.kind, "novel")
                self.assertEqual((original.program, original.scale,
                                  original.schedule),
                                 (job.program, job.scale, job.schedule))


class TailTest(unittest.TestCase):

    def test_tail_reports_percentile_and_count(self):
        values = [float(v) for v in range(200)]
        high = tails.tail(values)
        self.assertEqual(high["percentile"], 95.0)
        self.assertEqual(high["beyond"], 10)
        self.assertEqual(high["count"], 200)
        self.assertAlmostEqual(high["value"], tails.percentile(values, 95))

    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(tails.tail([1.0] * 1000)["percentile"], 99.0)
        self.assertEqual(tails.tail([1.0] * 199)["percentile"], 75.0)
        self.assertEqual(tails.tail([1.0] * 40)["percentile"], 75.0)
        self.assertEqual(tails.tail([1.0] * 39)["percentile"], 50.0)
        self.assertEqual(tails.tail([1.0] * 20)["percentile"], 50.0)

    def test_too_few_samples_report_the_maximum(self):
        high = tails.tail([3.0, 1.0, 2.0])
        self.assertEqual((high["value"], high["percentile"],
                          high["beyond"], high["count"]),
                         (3.0, 100.0, 0, 3))


class OpenLoopTest(unittest.TestCase):
    """The serve-mixed loop with the server replaced by a stub."""

    def test_latency_counts_from_due_time(self):
        ctx = workloads.Context(ROOT, mkdtemp(run.OUT, "selftest-"), seed=1,
                              seconds=0.5)
        workload = workloads.ServeMixed(ctx)
        workload.interval = 0.05
        workload.jitter = itertools.repeat(0.0)
        service = 0.3

        def stub(job, due):
            start = workloads.now()
            time.sleep(service)
            return workloads.JobRecord(job, due, start, workloads.now())

        workload._one = stub
        phase = workload.timed()
        self.assertEqual(len(phase.records), 10)
        dues = [record.due for record in phase.records]
        for earlier, later in zip(dues, dues[1:]):
            self.assertAlmostEqual(later - earlier, 0.05, delta=0.02)
        # Two client threads, 0.3 s each, a job every 0.05 s: later
        # jobs wait for a thread, and that wait is in their latency.
        late = [record.start - record.due for record in phase.records]
        self.assertGreater(max(late), 0.5)
        for record, waited in zip(phase.records, late):
            self.assertAlmostEqual(record.latency, waited + service,
                                   delta=0.05)
        self.assertEqual(phase.host_job_times(),
                         [record.latency for record in phase.records])
        self.assertEqual(phase.job_times(),
                         [record.latency * record.speed
                          for record in phase.records])
        self.assertGreaterEqual(run.backlog_max(phase.records), 5)
        os.rmdir(ctx.work)


class HostSpeedTest(unittest.TestCase):
    """Job times are scaled by the probes taken while each job ran."""

    def sampler(self, samples):
        sampler = hostspeed.Sampler()
        sampler.samples = samples
        return sampler

    def test_speed_uses_the_probes_near_the_stretch(self):
        ref = hostspeed.REFERENCE_S
        every = hostspeed.EVERY
        sampler = self.sampler([(0.0, 0.01, ref), (10.0, 10.01, 2 * ref),
                                (10.5, 10.51, 4 * ref),
                                (20.0, 20.01, ref)])
        # Two probes inside: the host ran at a third of the reference.
        self.assertAlmostEqual(sampler.speed(9.0, 11.0), 1.0 / 3.0)
        # None inside, one within a probe interval of the end.
        self.assertAlmostEqual(sampler.speed(19.9 - every, 19.95), 1.0)
        self.assertAlmostEqual(sampler.speed(0.0, 0.5), 1.0)

    def test_probe_time_is_taken_out_of_in_process_work(self):
        ref = hostspeed.REFERENCE_S
        sampler = self.sampler([(1.0, 1.02, 0.01), (2.0, 2.02, 0.02)])
        self.assertAlmostEqual(sampler.overhead(0.0, 3.0), 0.03)
        # Half of the second probe's window lies inside.
        self.assertAlmostEqual(sampler.overhead(1.5, 2.01), 0.01)
        seconds = sampler.reference_seconds(0.0, 3.0)
        self.assertAlmostEqual(seconds, (3.0 - 0.03) * ref / 0.015)

    def test_closed_loop_reports_reference_seconds(self):
        jobs = [jobstream.Job(i, "stub", "stub", 1.0, None)
                for i in range(3)]

        def run_job(job):
            time.sleep(0.25)
            return 1, None

        phase = workloads.closed_loop(lambda: jobs, run_job, str, 0.0)
        self.assertEqual(len(phase.records), 3)
        for record, seconds in zip(phase.records, phase.job_times()):
            self.assertGreater(record.probed, 0.0)
            self.assertGreater(record.speed, 0.0)
            self.assertAlmostEqual(seconds, (record.end - record.start
                                             - record.probed)
                                   * record.speed)
        self.assertAlmostEqual(phase.busy, sum(phase.job_times()))


class ChecksumGateTest(unittest.TestCase):
    """Real (small) runs through the library and the reference path."""

    @classmethod
    def setUpClass(cls):
        from repro.workloads import suite
        cls.workload = suite.build("lbm", 0.02)
        cls.root = mkdtemp(run.OUT, "selftest-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.root, ignore_errors=True)

    def run_fast(self, schedule, cache=None):
        from repro.harness.experiment import run_experiment
        return run_experiment(self.workload.program, profilers_for(schedule),
                              premapped_data=self.workload.premapped,
                              sim="fast", cache=cache)

    def test_replayed_reference_equals_stepped_reference(self):
        first = jobstream.Schedule(13, "periodic", 0)
        second = jobstream.Schedule(17, "random", 99)
        recorded = Reference(mkdtemp(self.root, "recorded-"))
        stepped = Reference(mkdtemp(self.root, "stepped-"))
        args = (self.workload.program, self.workload.premapped)
        recorded.checksum("lbm", *args, profilers_for(first))
        replayed = recorded.checksum("lbm", *args, profilers_for(second))
        direct = stepped.checksum("other", *args, profilers_for(second),
                                  record=False)
        self.assertEqual(replayed, direct)
        self.assertEqual(result_checksum(self.run_fast(second)), direct)

    def test_payload_and_result_checksums_agree(self):
        from repro.serve.jobs import result_payload
        result = self.run_fast(jobstream.Schedule(19, "random", 5))
        self.assertEqual(payload_checksum(result_payload(result)),
                         result_checksum(result))

    def test_one_flipped_sample_fails_the_gate(self):
        from repro.core.samples import Sample
        schedule = jobstream.Schedule(13, "periodic", 0)
        result = self.run_fast(schedule)
        good = result_checksum(result)
        samples = result.profilers["TIP"].samples
        victim = samples[len(samples) // 2]
        weights = list(victim.weights)
        addr, weight = weights[0]
        weights[0] = (addr + 4, weight)
        samples[len(samples) // 2] = Sample(victim.cycle, victim.interval,
                                            weights, victim.category)
        bad = result_checksum(result)
        self.assertNotEqual(bad, good)

        class Fixed:
            name = "fixed"
            ctx = workloads.Context(ROOT, self.root, 0, 1.0)

            def reference(self, ref, job):
                return good

        job = jobstream.Job(0, "cold", "lbm", 0.02, schedule)
        record = workloads.JobRecord(job, 0.0, 0.0, 1.0, checksum=bad)
        self.assertEqual(run.verify(Fixed(), [record], seed=-1), 1)
        record.checksum = good
        self.assertEqual(run.verify(Fixed(), [record], seed=-1), 0)


if __name__ == "__main__":
    unittest.main()
