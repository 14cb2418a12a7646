"""End-to-end benchmark of the profiling pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 14
    python3 perfbench/run.py --workload sweep-warm --seed 1 --trace 1

Runs one workload (see ``workloads.py``) for ``--seconds`` of timed work,
checks every job's report against the stepped reference path, prints
every metric by name and unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run is
repeated with spans around every layer and the metrics are per layer.
End-to-end times are in reference seconds: host seconds scaled by the
host's speed, sampled while the work ran (see ``hostspeed.py``).
Exits 1 when any job failed or any checksum differs, and 2 when the
program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
EXPECTED = os.path.join(HERE, "expected.json")

#: Seed whose reference checksums are committed in ``expected.json``.
DEFAULT_SEED = 0


def parse_args(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- correctness -------------------------------------------------------------

def verify(workload, records, seed: int) -> int:
    """Compare every record's checksum with its reference; returns the
    number of jobs that failed or mismatched."""
    from checksum import Reference, load_expected, mkdtemp
    committed = load_expected(EXPECTED, workload.name, seed)
    reference = Reference(mkdtemp(workload.ctx.work, "reference-"))
    expected = {}
    by_index = {record.job.index: record.job for record in records}
    failed = 0
    try:
        for record in sorted(records, key=lambda r: r.job.index):
            job = record.job
            if job.index in committed:
                want = committed[job.index]
            elif job.repeats is not None:
                want = expected.get(job.repeats) or committed.get(
                    job.repeats) or workload.reference(
                        reference, by_index[job.repeats])
            else:
                want = workload.reference(reference, job)
            expected[job.index] = want
            if record.error is not None:
                print(f"FAILED job {job.index} ({job.program}): "
                      f"{record.error}")
                failed += 1
            elif record.checksum != want:
                print(f"MISMATCH job {job.index} ({job.program} "
                      f"scale {job.scale:.4f} {job.schedule}): "
                      f"{record.checksum} != reference {want}")
                failed += 1
    finally:
        reference.close()
    return failed


# -- metrics -----------------------------------------------------------------

def end_to_end(phase, setup_s: float, rss_mb: float) -> dict:
    from tails import percentile, tail
    times = phase.job_times() or [0.0]
    busy = phase.busy or 1e-9
    completed = phase.completed
    high = tail(times)
    return {
        "setup_s": (setup_s, "s"),
        "job_s.p50": (percentile(times, 50.0), "s"),
        "job_s.tail": (high["value"], "s"),
        "jobs_per_s": (len(completed) / busy, "1/s"),
        "target_cycles_per_s": (sum(r.cycles for r in completed) / busy,
                                "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, high


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, traced, untraced, serve_delta) -> dict:
    """Per-layer metrics of the traced phase; ``_s`` metrics are self
    seconds per job."""
    jobs = max(1, len(traced.records))
    own = tracer.self_times()
    count = tracer.counters

    def per_job(span: str):
        return (own.get(span, 0.0) / jobs, "s")

    cycles = count.get("cpu.target_cycles", 0.0)
    hits = count.get("simfast.hits", 0.0)
    misses = count.get("simfast.misses", 0.0)
    if serve_delta:
        hits = serve_delta["hits"]
        misses = serve_delta["simulations"]
    mean = statistics.mean
    metrics = {
        "workloads.build_s": per_job("workloads.build"),
        "isa.assemble_s": per_job("isa.assemble"),
        "lint.self_check_s": per_job("lint.self_check"),
        "cpu.boot_s": per_job("cpu.boot"),
        "simfast.key_s": per_job("simfast.key"),
        "simfast.lookup_s": per_job("simfast.lookup"),
        "cpu.sim_s": per_job("cpu.sim"),
        "cpu.host_us_per_cycle": (
            _ratio(own.get("cpu.sim", 0.0) * 1e6, cycles), "us/cycle"),
        "cpu.target_cycles": (cycles / jobs, "cycles/job"),
        "cpu.committed": (count.get("cpu.committed", 0.0) / jobs,
                          "insts/job"),
        "cpu.ff_share": (_ratio(count.get("cpu.ff_cycles", 0.0), cycles),
                         "ratio"),
        "cpu.memo_share": (
            _ratio(count.get("cpu.memo_cycles", 0.0), cycles), "ratio"),
        "fastpath.replay_s": per_job("fastpath.replay"),
        "core.oracle_replay_s": per_job("core.oracle_replay"),
        "core.samplers_replay_s": per_job("core.samplers_replay"),
        "simfast.commit_s": per_job("simfast.commit"),
        "simfast.hits": (hits, "count"),
        "simfast.misses": (misses, "count"),
        "simfast.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "simfast.evictions": (count.get("simfast.evictions", 0.0),
                              "count"),
        "analysis.errors_s": per_job("analysis.errors"),
        "analysis.render_s": per_job("analysis.render"),
        "harness.run_experiment_s": per_job("harness.run_experiment"),
        "serve.submit_s": (mean([r.submit_s for r in traced.records]), "s"),
        "serve.run_s": (mean([r.server_s for r in traced.records
                              if r.server_s is not None] or [0.0]), "s"),
        "serve.backlog_max": (backlog_max(traced.records), "jobs"),
        "serve.coalesced_ratio": (
            _ratio(serve_delta.get("coalesced", 0),
                   serve_delta.get("submissions", 0)), "ratio"),
        "parallel.spawned": (serve_delta.get("spawned", 0), "count"),
        "parallel.retried": (serve_delta.get("retried", 0), "count"),
        "parallel.crashes": (serve_delta.get("crashes", 0), "count"),
        "bench.generator_late_s": (
            max(r.start - r.due for r in traced.records), "s"),
        "bench.host_speed": (traced.speed(), "ratio"),
        "trace.overhead_frac": (overhead(untraced, traced), "ratio"),
    }
    return metrics


def by_group(phase, raw: bool = False) -> dict:
    """"kind/program" -> job times of *phase* (host seconds when
    *raw*, else reference seconds)."""
    groups = defaultdict(list)
    times = phase.host_job_times() if raw else phase.job_times()
    for record, seconds in zip(phase.completed, times):
        groups[f"{record.job.kind}/{record.job.program}"].append(seconds)
    return groups


def overhead(untraced, traced) -> float:
    """Traced over untraced median job time, minus 1, taken per job
    kind and program that both phases ran (the two phases run
    different jobs) and averaged."""
    before, after = by_group(untraced), by_group(traced)
    ratios = [statistics.median(after[group])
              / statistics.median(before[group])
              for group in before.keys() & after.keys()]
    return statistics.mean(ratios) - 1.0 if ratios else 0.0


def backlog_max(records) -> int:
    """Most jobs due but not yet complete at any one time."""
    events = sorted([(r.due, 1) for r in records]
                    + [(r.end, -1) for r in records])
    level = peak = 0
    for _time, step in events:
        level += step
        peak = max(peak, level)
    return peak


def serve_counters(stats: dict) -> dict:
    pool = stats.get("pool", {})
    return {"submissions": stats["dedup"]["submissions"],
            "coalesced": stats["dedup"]["coalesced"],
            "hits": stats["cache"]["hits"],
            "simulations": stats["cache"]["simulations"],
            "spawned": pool.get("spawned", 0),
            "retried": pool.get("retried", 0),
            "crashes": pool.get("crashes", 0)}


# -- reporting ---------------------------------------------------------------

def print_metrics(title: str, metrics: dict) -> None:
    print(f"== {title} ==")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:14.6g} {unit}")


def print_groups(phase) -> None:
    groups, raw = by_group(phase), by_group(phase, raw=True)
    print("  job_s.p50 by kind/program (host seconds in brackets): "
          + ", ".join(f"{name} {statistics.median(times):.3f} "
                      f"({statistics.median(raw[name]):.3f}, "
                      f"n={len(times)})"
                      for name, times in sorted(groups.items())))


def print_self_times(workload: str, tracer, jobs: int) -> None:
    own = tracer.self_times()
    total = sum(own.values()) or 1.0
    print(f"== self time per layer, {workload} ({jobs} traced jobs) ==")
    for name, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<26} {seconds:10.4f} s  {seconds / jobs * 1e3:9.2f}"
              f" ms/job  {100.0 * seconds / total:5.1f}%")


def run(args) -> int:
    import workloads
    from workloads import Context

    os.makedirs(OUT, exist_ok=True)
    work = workloads.mkdtemp(OUT, f"{args.workload}-{args.seed}-")
    ctx = Context(ROOT, work, args.seed, args.seconds)
    workload = workloads.WORKLOADS[args.workload](ctx)
    try:
        setup_extra = workload.setup()
        timed = workload.timed()
        tracer = traced = None
        serve_delta = {}
        if args.trace:
            import spans
            tracer = spans.Tracer()
            before = None
            if isinstance(workload, workloads.ServeMixed):
                before = serve_counters(workload.stats())
            else:
                spans.install_layer_spans(tracer)
            try:
                traced = workload.timed(tracer)
            finally:
                tracer.unpatch()
            if before is not None:
                after = serve_counters(workload.stats())
                serve_delta = {key: after[key] - before[key]
                               for key in after}
        workload.close()
        rss_mb = peak_rss_mb()
        fresh = statistics.median(
            workloads.set_up_in_fresh_process(ROOT, args.workload)
            for _ in range(workload.setup_repeats))
        setup_s = fresh + setup_extra
        records = timed.records + (traced.records if traced else [])
        checking = time.perf_counter()
        failed = verify(workload, records, args.seed)
        checking = time.perf_counter() - checking
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    metrics, high = end_to_end(timed, setup_s, rss_mb)
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(timed.records)} timed jobs in {timed.busy:.2f} s; "
          f"tail is p{high['percentile']:g} of {high['count']} samples "
          f"({high['beyond']} beyond); generator late by at most "
          f"{max(r.start - r.due for r in timed.records):.3f} s; set-up "
          f"{fresh:.3f} s in a fresh process + {setup_extra:.3f} s; "
          f"host speed {timed.speed():.3f} reference s per host s "
          f"(job times are in reference seconds)")
    print_metrics(f"end to end, {args.workload}", metrics)
    print_groups(timed)
    if traced is not None:
        layers = per_layer(tracer, traced, timed, serve_delta)
        print_metrics(f"per layer, {args.workload}", layers)
        print_self_times(args.workload, tracer, max(1, len(traced.records)))
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
        tracer.write_chrome_trace(path, f"perfbench {args.workload}")
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        metrics = layers
    print(f"failed_frac {failed / len(records):.4f} "
          f"({failed} of {len(records)} jobs failed or mismatched; "
          f"checked against the reference in {checking:.1f} s)")
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro  # the program under test
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test from "
              f"{src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"from {src}", file=sys.stderr)
        return 2
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
