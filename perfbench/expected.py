"""Regenerate ``expected.json``: reference checksums for the default seed.

Run from the repository root after a change that legitimately alters
reports (it takes a few minutes)::

    python3 perfbench/expected.py

For every workload it takes the first jobs of the default seed's stream
and computes each job's checksum on the stepped reference path.  A
benchmark run with the default seed compares its jobs to these instead
of recomputing them; other seeds compute their references after the
timed phase.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import jobstream  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checksum import Reference, mkdtemp  # noqa: E402

#: Workload -> (job stream of a seed, jobs to cover).  Enough for a
#: traced default-seed run on a machine a few times faster than the
#: 2-vCPU one the run length was chosen on.
STREAMS = {
    "suite-cold": (lambda seed: itertools.chain.from_iterable(
        jobstream.suite_rounds(seed)), 16),
    "sweep-warm": (lambda seed: itertools.chain.from_iterable(
        jobstream.sweep_rounds(seed)), 240),
    "serve-mixed": (jobstream.serve_jobs, 32),
}


def main() -> int:
    work = mkdtemp(run.OUT, "expected-")
    committed = {"seed": run.DEFAULT_SEED, "workloads": {}}
    try:
        for name, (stream, count) in STREAMS.items():
            ctx = workloads.Context(run.ROOT, work, run.DEFAULT_SEED, 0.0)
            workload = workloads.WORKLOADS[name](ctx)
            reference = Reference(mkdtemp(work, "reference-"))
            values = []
            for job in itertools.islice(stream(run.DEFAULT_SEED), count):
                if job.repeats is not None:
                    values.append(values[job.repeats])
                else:
                    values.append(workload.reference(reference, job))
            reference.close()
            committed["workloads"][name] = values
            print(f"{name}: {len(values)} checksums", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(committed, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
