"""Report checksums and the stepped reference path behind the gate.

A job passes when the checksum of what it produced equals the checksum
the reference path produces for the same program and schedule.  The
checksum covers the Oracle's maps, every profiler's raw sample stream
and the core statistics that describe the simulated run (left out are
``CoreStats.DRIVER_FIELDS``, the counts of fast-forwarded and memoized
cycles, which differ between stepping and fast-forwarding by design).

The reference is the slowest, simplest path the repository has: a
single-stepped simulation (``sim="step"``) with every observer attached
per record (``engine="cycle"``), and no cache.  Where many jobs share a
program, the first stepped run also records its trace, and later
schedules replay that trace record by record instead of stepping the
simulator again.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import Dict, Hashable, Iterable, Mapping, Tuple

STEP = "step"
PER_RECORD = "cycle"


def _run_mode_fields() -> Tuple[str, ...]:
    from repro.cpu.core import CoreStats
    return tuple(getattr(CoreStats, "DRIVER_FIELDS", ()))


def checksum(oracle, samples: Mapping[str, Iterable], stats) -> str:
    """Hex digest of one report.

    *samples* maps a profiler label to its samples as
    ``(cycle, interval, weights, category)`` tuples; *stats* is a
    :class:`~repro.cpu.core.CoreStats`.
    """
    digest = hashlib.sha256()
    digest.update(repr(sorted(oracle.profile.items())).encode())
    digest.update(repr(sorted(
        ((addr, category.value), weight)
        for (addr, category), weight in oracle.categorized.items())
    ).encode())
    digest.update(repr(sorted(
        (kind.value, weight)
        for kind, weight in oracle.flush_breakdown.items())).encode())
    digest.update(repr(sorted(
        (cycle, (tuple(attribution), category.value))
        for cycle, (attribution, category) in oracle.watched.items())
    ).encode())
    digest.update(repr(oracle.total_cycles).encode())
    for label in sorted(samples):
        digest.update(label.encode())
        for cycle, interval, weights, category in samples[label]:
            digest.update(repr((
                cycle, interval, tuple(weights),
                None if category is None else category.value)).encode())
    skipped = _run_mode_fields()
    digest.update(repr(sorted(
        (key, value) for key, value in stats.to_dict().items()
        if key not in skipped)).encode())
    return digest.hexdigest()


def result_checksum(result) -> str:
    """Checksum of an in-process :class:`ExperimentResult`."""
    samples = {label: [(s.cycle, s.interval, s.weights, s.category)
                       for s in profiler.samples]
               for label, profiler in result.profilers.items()}
    return checksum(result.oracle, samples, result.stats)


def payload_checksum(payload: dict) -> str:
    """Checksum of a job server's worker payload."""
    samples = {label: snapshot["samples"]
               for label, snapshot in payload["profilers"].items()}
    return checksum(payload["oracle"], samples, payload["stats"])


def profilers_for(schedule):
    """The six-profiler line-up every job attaches, on *schedule*."""
    from repro.harness.experiment import default_profilers
    return default_profilers(schedule.period, mode=schedule.mode,
                             seed=schedule.seed)


class Reference:
    """Reference checksums, one stepped simulation per program.

    *root* holds the recorded reference traces; :meth:`close` removes
    them.
    """

    def __init__(self, root: str):
        self.root = root
        self._traces: Dict[Hashable, Tuple[str, object, object]] = {}

    def checksum(self, key: Hashable, program, premapped, profilers,
                 record: bool = True) -> str:
        """Reference checksum of *profilers* on *program*.

        *key* names the program; with *record* the first call for a
        key records the stepped trace so later calls replay it.
        """
        if key in self._traces:
            return self._replay(key, profilers)
        from repro.harness.experiment import run_experiment
        cache = None
        if record:
            from repro.simfast.cache import SimCache
            cache = SimCache(tempfile.mkdtemp(prefix="ref-",
                                              dir=self.root))
        result = run_experiment(program, profilers,
                                premapped_data=premapped, sim=STEP,
                                engine=PER_RECORD, cache=cache)
        if cache is not None:
            from repro.cpu.machine import Machine
            key_, = cache.keys()
            hit = cache.lookup(key_)
            image = Machine(program, None, premapped).image
            self._traces[key] = (hit.trace_path, image, result.stats)
        return result_checksum(result)

    def _replay(self, key: Hashable, profilers) -> str:
        from repro.harness.experiment import replay_experiment
        trace_path, image, stats = self._traces[key]
        result = replay_experiment(trace_path, image, profilers,
                                   engine=PER_RECORD)
        # A replay ends on the last record's cycle; the simulator
        # reports the cycle after it.
        result.oracle.total_cycles = stats.cycles
        result.stats = stats
        return result_checksum(result)

    def close(self) -> None:
        import shutil
        shutil.rmtree(self.root, ignore_errors=True)


def load_expected(path: str, workload: str,
                  seed: int) -> Dict[int, str]:
    """Committed checksums (job index -> checksum) for *seed*, if any."""
    import json
    try:
        with open(path, encoding="utf-8") as handle:
            committed = json.load(handle)
    except FileNotFoundError:
        return {}
    if committed.get("seed") != seed:
        return {}
    return {index: value for index, value in
            enumerate(committed.get("workloads", {}).get(workload, []))}


def mkdtemp(root: str, prefix: str) -> str:
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=root)
