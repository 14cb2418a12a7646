"""Host-speed normalization of job times.

The benchmark runs on shared hosts whose CPU speed drifts by a third or
more within seconds to minutes, as other tenants come and go.  Process
CPU time drifts with it (it is the core that runs slower, not the
scheduler that runs the benchmark less), so neither wall-clock nor CPU
seconds of one run can be compared with another run's.

So while work runs, a :class:`Sampler` thread times a short fixed probe
every :data:`EVERY` seconds -- pure-Python work that does not touch the
program under test: dict, list and integer operations, plus random
single-byte accesses over an 8 MiB buffer that feel cache and memory
contention -- and the benchmark reports each stretch of work in
*reference seconds*: its host seconds times :data:`REFERENCE_S` over
the probe's mean seconds during that stretch.  On a host where the probe
takes ``REFERENCE_S`` a reference second is a plain second.  A change to
the program moves job times and leaves the probe alone, so it shows in
full.

The probe is timed in thread CPU time, so a probe that waits for the
interpreter lock or for a busy CPU (the serve workers run beside the
client) still measures how fast the core runs, not how long it waited.
The sampler's own CPU time inside a stretch of in-process work (about
4% of it) is taken out of that stretch's host seconds.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Tuple

#: Seconds of one probe on the reference host (a 2-vCPU Xeon VM at
#: 2.1 GHz with the host quiet).  Fixed: changing it rescales results.
REFERENCE_S = 0.003

#: Seconds between the starts of two probes.
EVERY = 0.1

#: Iterations of each half of the probe.
_ROUNDS = 4000

_BUFFER = bytearray(8 << 20)

now = time.perf_counter


def _work() -> int:
    table: dict = {}
    acc = 0
    recent = []
    for i in range(_ROUNDS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc ^= (i * 2654435761) & 0xFFFFFFFF
        recent.append((acc, key))
        if len(recent) > 256:
            recent.clear()
    buffer, index = _BUFFER, 12345
    for i in range(_ROUNDS):
        index = (index * 1103515245 + 12345) & 0x7FFFFF
        acc += buffer[index]
        buffer[index] = i & 255
    return acc


def probe() -> float:
    """Thread CPU seconds of one run of the fixed probe."""
    start = time.thread_time()
    _work()
    return time.thread_time() - start


class Sampler:
    """Probes the host's speed from a background thread while the
    ``with`` block runs.

    ``samples`` holds ``(start, end, seconds)`` per probe: its
    ``perf_counter`` window and its thread CPU seconds.
    """

    def __init__(self):
        self.samples: List[Tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="hostspeed")

    def _run(self) -> None:
        while True:
            start = now()
            seconds = probe()
            self.samples.append((start, now(), seconds))
            if self._stop.wait(max(0.0, EVERY - (now() - start))):
                return

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, start: float, end: float) -> float:
        """Reference seconds per host second over ``[start, end]``,
        from the probes that ran in it widened by one probe interval on
        each side (so a short stretch still has its nearest probes)."""
        near = [seconds for begun, ended, seconds in self.samples
                if ended >= start - EVERY and begun <= end + EVERY]
        if not near:  # only when sampling never ran
            near = [seconds for _begun, _ended, seconds in self.samples]
        return REFERENCE_S / statistics.mean(near or [REFERENCE_S])

    def overhead(self, start: float, end: float) -> float:
        """CPU seconds the probes spent inside ``[start, end]`` (a probe
        that straddles an end counts by the share of it inside)."""
        total = 0.0
        for begun, ended, seconds in self.samples:
            inside = min(ended, end) - max(begun, start)
            if inside > 0:
                total += seconds * min(1.0, inside / max(ended - begun,
                                                         1e-9))
        return total

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of in-process work over ``[start, end]``,
        with the probes' share of it taken out."""
        host = max(0.0, end - start - self.overhead(start, end))
        return host * self.speed(start, end)
