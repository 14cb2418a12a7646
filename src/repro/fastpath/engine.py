"""Replay engines: record-at-a-time versus columnar blocks.

Two interchangeable ways to drive :class:`~repro.cpu.trace.
TraceObserver` sets over a recorded trace:

* the **cycle** engine (:func:`~repro.cpu.tracefile.replay_trace`) --
  materialize one :class:`CycleRecord` per cycle and call ``on_cycle``
  on every observer;
* the **block** engine (:func:`replay_blocks`) -- wrap each trace chunk
  in a columnar :class:`~repro.fastpath.block.CycleBlock` and call
  ``on_block`` once per observer per chunk.  Observers without a
  columnar fast path transparently fall back to a loop over
  ``on_cycle`` (the :class:`~repro.cpu.trace.TraceObserver` default),
  so the two engines produce bit-identical results by construction --
  the block engine only changes *how often Python function calls
  happen*, never what the observers see.

:func:`replay_with_engine` dispatches on the engine name, and
:class:`BlockAssembler` brings the same batching to live simulation:
it buffers the core's per-cycle records and dispatches whole blocks.
"""

from __future__ import annotations

from typing import BinaryIO, Iterable, List, Sequence, Tuple, Union

from ..cpu.trace import CycleRecord, TraceObserver, shifted_record
from ..cpu.tracefile import TraceReader, replay_trace
from .block import CycleBlock

#: Engine names accepted across the CLI and the replay entry points.
CYCLE_ENGINE = "cycle"
BLOCK_ENGINE = "block"
ENGINES = (CYCLE_ENGINE, BLOCK_ENGINE)

#: Records per block when batching live simulation output.
DEFAULT_ASSEMBLE_CYCLES = 1024

TraceSource = Union[bytes, str, BinaryIO]


def validate_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ValueError(f"unknown replay engine {engine!r} "
                         f"(expected one of {ENGINES})")
    return engine


def replay_blocks(source: TraceSource,
                  *observers: TraceObserver) -> int:
    """Replay a trace through *observers* one chunk-block at a time;
    returns the cycle count."""
    final_cycle = 0
    with TraceReader(source) as reader:
        for chunk in reader.index.chunks:
            block = reader.chunk_block(chunk)
            for observer in observers:
                observer.on_block(block)
            final_cycle = chunk.start_cycle + chunk.n_records - 1
    for observer in observers:
        observer.on_finish(final_cycle)
    return final_cycle + 1


def replay_with_engine(source: TraceSource,
                       observers: Iterable[TraceObserver],
                       engine: str = BLOCK_ENGINE) -> int:
    """Replay *source* with the named engine; returns the cycle count."""
    observers = tuple(observers)
    if validate_engine(engine) == BLOCK_ENGINE:
        return replay_blocks(source, *observers)
    return replay_trace(source, *observers)


class BlockAssembler(TraceObserver):
    """Batches a live per-cycle record stream into cycle blocks.

    Attach one assembler to a :class:`~repro.cpu.machine.Machine`
    instead of attaching N observers directly: the core then pays one
    ``on_cycle`` call per cycle (buffering the record) and the wrapped
    observers consume columnar blocks -- the same end-to-end batching
    the block replay engine applies to recorded traces.

    Like the trace wire format, blocks carry only the head entry of
    the oldest ROB bank, so observers that inspect the full
    ``head_banks`` detail (none of the stock profilers do) should stay
    attached directly.
    """

    def __init__(self, observers: Iterable[TraceObserver], banks: int,
                 block_cycles: int = DEFAULT_ASSEMBLE_CYCLES):
        if block_cycles < 1:
            raise ValueError("block_cycles must be >= 1")
        self.observers = list(observers)
        self.banks = banks
        self.block_cycles = block_cycles
        self.blocks_dispatched = 0
        #: Buffered ``(record, count)`` runs; ``count > 1`` entries come
        #: from the simulator's stall fast-forward and columnarize at
        #: C speed (:meth:`CycleBlock.from_runs`).
        self._buffer: List[Tuple[CycleRecord, int]] = []
        self._buffered = 0

    def on_cycle(self, record: CycleRecord) -> None:
        self._buffer.append((record, 1))
        self._buffered += 1
        if self._buffered >= self.block_cycles:
            self._flush()

    def on_stall_run(self, record: CycleRecord, count: int) -> None:
        # Split long runs at block boundaries so block sizes match what
        # a single-stepped simulation would have produced.
        while count:
            space = self.block_cycles - self._buffered
            take = count if count < space else space
            self._buffer.append((record, take))
            self._buffered += take
            count -= take
            if self._buffered >= self.block_cycles:
                self._flush()
            if count:
                record = shifted_record(record, take)

    def on_cycle_run(self, records: Sequence[CycleRecord],
                     repeats: int) -> None:
        # Whole memoized periods at a time, split at block boundaries.
        # Only the first record of a block needs its true cycle number
        # (:meth:`CycleBlock.from_runs` derives every other cycle from
        # the block's start), so template records are appended raw via
        # C-level list multiplication and a re-based copy is made only
        # when a new block starts mid-run.
        n = len(records)
        if not n or repeats <= 0:
            return
        template = [(r, 1) for r in records]
        total = n * repeats
        t = 0
        while t < total:
            if self._buffered == 0 and t:
                i = t % n
                self._buffer.append(
                    (shifted_record(records[i], t - i), 1))
                self._buffered += 1
                t += 1
            space = self.block_cycles - self._buffered
            take = min(space, total - t)
            i = t % n
            done = 0
            if i and take:
                done = min(take, n - i)
                self._buffer.extend(template[i:i + done])
            whole, tail = divmod(take - done, n)
            if whole:
                self._buffer.extend(template * whole)
            if tail:
                self._buffer.extend(template[:tail])
            self._buffered += take
            t += take
            if self._buffered >= self.block_cycles:
                self._flush()

    def on_finish(self, final_cycle: int) -> None:
        if self._buffer:
            self._flush()
        for observer in self.observers:
            observer.on_finish(final_cycle)

    def _flush(self) -> None:
        block = CycleBlock.from_runs(self._buffer, self.banks)
        self._buffer = []
        self._buffered = 0
        for observer in self.observers:
            observer.on_block(block)
        self.blocks_dispatched += 1
