"""Seeded job streams for the three workloads.

Each workload draws an endless, deterministic sequence of jobs from the
one seed passed to the benchmark; a run consumes a prefix of it.  The
program under test only ever sees what a job describes: a benchmark name
and scale, and a sampling schedule.

Scales are drawn so that every program in a stream is new: two scales
only build different programs when they give a different iteration
count to some kernel, so a scale is picked as ``(n + 0.5) / base`` for
a count ``n`` not used before, where *base* is the benchmark's largest
kernel count at scale 1.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Largest kernel iteration count at scale 1.0 (repro.workloads.suite).
BASE_ITERS = {"exchange2": 5000, "imagick": 900, "gcc": 1300,
              "mcf": 600, "lbm": 2100}

#: Centre of every drawn scale; the seed-state baselines use 0.15.
SCALE = 0.15

#: Scales are drawn within this relative distance of the centre first.
SCALE_WIDTH = 0.04

#: suite-cold draws from these (Compute, Flush, Flush, Stall).
SUITE_PROGRAMS = ("exchange2", "imagick", "gcc", "mcf")

#: sweep-warm re-profiles these, each at ``SCALE * factor``.
SWEEP_PROGRAMS = (("mcf", 1.0), ("lbm", 1.0), ("imagick", 2.5))

#: serve-mixed builds these (the cheapest builds of the suite).
SERVE_PROGRAMS = ("imagick", "lbm", "exchange2")

#: The CLI's default sampling period (``repro suite``/``profile``).
CLI_PERIOD = 13

#: Sampling periods a sweep draws from (primes, as the harness uses).
SWEEP_PERIODS = (17, 19, 23, 29, 31, 37)

@dataclass(frozen=True)
class Schedule:
    """A replay-side sampling schedule (all six profilers share it)."""

    period: int
    mode: str
    seed: int


@dataclass(frozen=True)
class Job:
    """One unit of work in a stream."""

    index: int
    kind: str
    program: str
    scale: float
    schedule: Schedule
    #: serve-mixed only: the earlier job a repeat copies.
    repeats: Optional[int] = None


class ScalePicker:
    """Draws scales that never rebuild a program already drawn."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: Dict[str, Set[int]] = {}

    def draw(self, name: str, factor: float = 1.0) -> float:
        base = BASE_ITERS[name]
        centre = SCALE * factor * base
        used = self.used.setdefault(name, set())
        width = max(2.0, SCALE_WIDTH * centre)
        while True:
            low = max(8, int(centre - width))
            free = [n for n in range(low, int(centre + width) + 1)
                    if n not in used]
            if free:
                count = self.rng.choice(free)
                used.add(count)
                return (count + 0.5) / base
            width *= 2


def _schedule(rng: random.Random, seen: Set[Schedule]) -> Schedule:
    while True:
        schedule = Schedule(rng.choice(SWEEP_PERIODS),
                            rng.choice(("periodic", "random")),
                            rng.randrange(1, 1 << 30))
        if schedule not in seen:
            seen.add(schedule)
            return schedule


def suite_rounds(seed: int) -> Iterator[List[Job]]:
    """suite-cold: rounds of the four programs in a seeded order."""
    rng = random.Random(f"suite-cold/{seed}")
    scales = ScalePicker(rng)
    schedule = Schedule(CLI_PERIOD, "periodic", 0)
    index = 0
    while True:
        names = rng.sample(SUITE_PROGRAMS, len(SUITE_PROGRAMS))
        batch = []
        for name in names:
            batch.append(Job(index, "cold", name, scales.draw(name),
                             schedule))
            index += 1
        yield batch


def sweep_programs() -> List[Tuple[str, float]]:
    """sweep-warm: the (name, scale) pairs built and cached in set-up.

    They are the same for every seed, so set-up does the same work in
    every run; the seed varies the schedules.
    """
    return [(name, (int(SCALE * factor * BASE_ITERS[name]) + 0.5)
             / BASE_ITERS[name]) for name, factor in SWEEP_PROGRAMS]


def sweep_rounds(seed: int) -> Iterator[List[Job]]:
    """sweep-warm: rounds over the cached programs in a seeded order.

    Each program walks a seeded deck of every (period, mode) pair and
    starts a fresh deck when one runs out, so every run re-profiles
    each program under the same mix of periods; the random-sampling
    seed of each schedule is new, so no job repeats an earlier one.
    """
    programs = sweep_programs()
    rng = random.Random(f"sweep-warm/{seed}")
    decks: Dict[str, List[Tuple[int, str]]] = {name: []
                                               for name, _ in programs}
    seen: Set[Schedule] = set()
    index = 0
    while True:
        batch = []
        for name, scale in rng.sample(programs, len(programs)):
            deck = decks[name]
            if not deck:
                deck.extend((period, mode) for period in SWEEP_PERIODS
                            for mode in ("periodic", "random"))
                rng.shuffle(deck)
            period, mode = deck.pop()
            schedule = Schedule(period, mode, rng.randrange(1, 1 << 30))
            while schedule in seen:
                schedule = Schedule(period, mode,
                                    rng.randrange(1, 1 << 30))
            seen.add(schedule)
            batch.append(Job(index, "warm", name, scale, schedule))
            index += 1
        yield batch


def serve_jobs(seed: int) -> Iterator[Job]:
    """serve-mixed: blocks of a novel program, two cache hits on it and
    one exact repeat of the novel job.

    Block *k* builds a new scale of ``SERVE_PROGRAMS[k % 3]``.  A *hit*
    re-profiles that program under a new schedule (the first one
    usually arrives while the novel job still simulates, and waits for
    its cache entry); the *repeat* resubmits the novel job unchanged,
    which the server answers from memory.
    """
    rng = random.Random(f"serve-mixed/{seed}")
    scales = ScalePicker(rng)
    seen: Set[Schedule] = set()
    index = 0
    for block in itertools.count():
        name = SERVE_PROGRAMS[block % len(SERVE_PROGRAMS)]
        novel = Job(index, "novel", name, scales.draw(name),
                    _schedule(rng, seen))
        members = [novel]
        for _ in range(2):
            members.append(Job(index + len(members), "hit", name,
                               novel.scale, _schedule(rng, seen)))
        members.append(Job(index + len(members), "repeat", name,
                           novel.scale, novel.schedule,
                           repeats=novel.index))
        index += len(members)
        yield from members


def arrival_jitter(seed: int) -> Iterator[float]:
    """serve-mixed: each job is due at ``(i + jitter) * interval`` after
    the phase starts -- a fixed rate, each arrival moved by up to 5% of
    the interval."""
    rng = random.Random(f"serve-mixed/arrivals/{seed}")
    while True:
        yield rng.uniform(-0.05, 0.05)
