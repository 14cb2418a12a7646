"""Binary serialization of the commit-stage trace.

The paper's methodology streams a per-cycle trace out of FireSim and
processes it on the CPU side; re-running a new profiler configuration
does not require re-simulating.  This module provides the same record/
replay split for our simulator: :class:`TraceWriter` (format v1) and
:class:`TraceWriterV2` are trace observers that encode every
:class:`~repro.cpu.trace.CycleRecord` into a compact binary stream, and
:func:`read_trace` / :func:`replay_trace` reconstruct the records and
drive any set of observers over them.  :func:`read_trace` dispatches on
the version byte in the magic, so both formats replay transparently.

Per-record encoding (shared by both formats, little-endian):

* header byte: bit0 rob_empty, bit1 has_exception, bit2 ordering,
  bit3 has_dispatch_pc, bit4 has_rob_head;
* counts byte: low nibble = #committed, high nibble = #dispatched;
* u8 oldest_bank;
* u64 fetch_pc;
* optional u64 rob_head, u64 exception, u64 dispatch_pc;
* per committed entry: u64 addr, u8 (bank | mispredicted<<6 |
  flushes<<7);
* per dispatched entry: u64 addr.

Cycle numbers are implicit (records are dense), which is what keeps the
format compact.

Format v1 (``TIPTRC01``) is a flat stream: magic, banks byte, then one
record per cycle from cycle 0.

Format v2 (``TIPTRC02``) is *chunk-indexed*: a reader can seek to any
chunk and decode it on its own, which is how the block replay engine
(:mod:`repro.fastpath`) turns each chunk into one columnar block:

* file header: magic, u8 banks, u8 flags (bit0: zlib-compressed
  payloads), u32 chunk_cycles (records per full chunk);
* a sequence of chunks, each ``CHUNK_HEADER`` (start cycle, record
  count, payload sizes, carried machine state) followed by the encoded
  records of ``chunk_cycles`` consecutive cycles (optionally zlib).

The carried state (:class:`ChunkCarry`) is the machine state at a chunk
boundary: the Offending Instruction Register mirror (address, flag,
flush kind), the last committed address, and whether the previous cycle
flushed (for the sanitizer's drain check).  All of it is derivable from
the trace prefix, so it is computed once at record time.  Replay reads
chunks in order and never needs it; it stays in the header because it
is part of the on-disk format.

Format v3 (``TIPTRC03``) is *zero-copy columnar*: each chunk's payload
is the raw :class:`~repro.fastpath.block.CycleBlock` columns themselves
(flags bytes, oldest-bank bytes, ``array('I')`` prefix-sum bases,
packed-u64 optional/commit/dispatch columns and the commit-meta bytes),
each column 8-byte aligned with a per-column offset table in the chunk
header.  Decoding a v3 chunk is therefore a handful of ``memoryview``
casts over an ``mmap`` of the trace file -- no per-record Python loop
-- and every process that maps the same file shares its pages.
Everything is little-endian on disk; on big-endian hosts the reader
falls back to ``array.byteswap`` copies.  zlib compression stays
available as an opt-out that falls back to buffer copies.

:func:`convert_v1_to_v2` upgrades existing v1 traces losslessly;
:func:`convert_trace` re-encodes any version into any other (v1/v2/v3
round trips are byte-identical for matching chunk parameters).
"""

from __future__ import annotations

import io
import mmap
import os
import struct
import sys
import zlib
from array import array
from dataclasses import dataclass
from typing import (Any, BinaryIO, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from .trace import CommittedInst, CycleRecord, HeadEntry, TraceObserver

MAGIC = b"TIPTRC01"
MAGIC_V2 = b"TIPTRC02"
MAGIC_V3 = b"TIPTRC03"

_LITTLE = sys.byteorder == "little"

#: Records per chunk in format v2 (one record per cycle).
DEFAULT_CHUNK_CYCLES = 4096

_U64 = struct.Struct("<Q")
_HDR = struct.Struct("<BBB")
#: v2 file header after the magic: banks, flags, chunk_cycles.
_FILE_HDR_V2 = struct.Struct("<BBI")
#: v2 chunk header: start_cycle, n_records, payload bytes, raw bytes,
#: carry flags, oir_flag, oir_kind, oir_addr, last_committed.
_CHUNK_HDR = struct.Struct("<QIIIBBBQQ")
#: v3 file header is the v2 header plus 2 pad bytes, so the first
#: chunk header lands on an 8-byte boundary (16 bytes with the magic).
_FILE_PAD_V3 = b"\x00\x00"
#: v3 chunk header (96 bytes, 8-aligned): start_cycle, n_records,
#: payload bytes (stored size), raw bytes (column-buffer size), carry
#: flags, oir_flag, oir_kind, pad, oir_addr, last_committed, then the
#: flattened column lengths (n_opt, n_commit, n_disp) and the 10
#: per-column byte offsets within the payload (see ``_COL_*``).
_CHUNK_HDR_V3 = struct.Struct("<QIIIBBBBQQ3I10I4x")

#: v3 column order inside a chunk payload.  u64 columns first, then
#: the u32 prefix-sum bases, then the byte columns; every column start
#: is padded to an 8-byte boundary.
(_COL_FETCH_PC, _COL_OPT_VALS, _COL_COMMIT_ADDR, _COL_DISP_ADDR,
 _COL_OPT_BASE, _COL_COMMIT_BASE, _COL_DISP_BASE, _COL_FLAGS,
 _COL_OLDEST, _COL_COMMIT_META) = range(10)

_F_EMPTY = 1 << 0
_F_EXC = 1 << 1
_F_ORD = 1 << 2
_F_DISP_PC = 1 << 3
_F_HEAD = 1 << 4

#: v2 file-header flags.
_FILE_F_ZLIB = 1 << 0

#: Carry flags.
_C_HAS_OIR = 1 << 0
_C_HAS_LAST = 1 << 1
_C_DRAIN = 1 << 2

#: OIR flag values carried per chunk (mirror the profilers' OIR flags).
OIR_NONE = 0
OIR_MISPREDICT = 1
OIR_FLUSH = 2
OIR_EXCEPTION = 3

#: OIR flush-kind codes (0 = none); map to
#: :class:`repro.core.samples.FlushKind` on the profiler side.
KIND_NONE = 0
KIND_MISPREDICT = 1
KIND_CSR = 2
KIND_EXCEPTION = 3
KIND_ORDERING = 4


@dataclass
class ChunkCarry:
    """Machine state carried into a chunk boundary.

    Restoring this state lets any profiler start consuming records at
    the chunk's first cycle with bit-identical behaviour to a serial
    replay of the whole prefix.
    """

    #: OIR mirror: youngest committing/excepting instruction address.
    oir_addr: Optional[int] = None
    #: OIR flag (``OIR_*``).
    oir_flag: int = OIR_NONE
    #: OIR flush kind (``KIND_*``).
    oir_kind: int = KIND_NONE
    #: Address of the last committed instruction (LCI state).
    last_committed: Optional[int] = None
    #: The record before the boundary flushed or excepted (the next
    #: cycle must commit nothing -- sanitizer invariant S005/S006).
    drain_pending: bool = False

    def update(self, record: CycleRecord) -> None:
        """Advance the carry past *record* (the OIR update unit)."""
        if record.committed:
            youngest = record.committed[-1]
            self.last_committed = youngest.addr
            self.oir_addr = youngest.addr
            if youngest.mispredicted:
                self.oir_flag = OIR_MISPREDICT
                self.oir_kind = KIND_MISPREDICT
            elif youngest.flushes:
                self.oir_flag = OIR_FLUSH
                self.oir_kind = KIND_CSR
            else:
                self.oir_flag = OIR_NONE
                self.oir_kind = KIND_NONE
        if record.exception is not None:
            self.oir_addr = record.exception
            self.oir_flag = OIR_EXCEPTION
            self.oir_kind = (KIND_ORDERING if record.exception_is_ordering
                             else KIND_EXCEPTION)
        self.drain_pending = (record.exception is not None
                              or any(c.flushes for c in record.committed))

    def copy(self) -> "ChunkCarry":
        return ChunkCarry(self.oir_addr, self.oir_flag, self.oir_kind,
                          self.last_committed, self.drain_pending)


def _carry_snapshots(carry: "ChunkCarry", records: Sequence[CycleRecord]
                     ) -> Optional[Tuple[List["ChunkCarry"],
                                         List["ChunkCarry"]]]:
    """Per-record carry snapshots for a periodic batch of *records*.

    Returns ``(transient, steady)`` -- the carry after record ``i`` of
    the first repeat (starting from *carry*) and of every later repeat
    -- or ``None`` when the carry does not reach a fixpoint after one
    period (possible only for a template with no commits, which the
    memoizer never emits); callers then fall back to per-cycle updates.
    """
    c = carry.copy()
    transient = []
    for record in records:
        c.update(record)
        transient.append(c.copy())
    steady = []
    for record in records:
        c.update(record)
        steady.append(c.copy())
    if steady[-1] != transient[-1]:
        return None
    return transient, steady


@dataclass
class ChunkInfo:
    """Location and metadata of one v2/v3 chunk."""

    start_cycle: int
    n_records: int
    #: File offset of the chunk payload (past the chunk header).
    offset: int
    payload_bytes: int
    raw_bytes: int
    carry: ChunkCarry
    #: v3 only: flattened column lengths ``(n_opt, n_commit, n_disp)``.
    counts: Optional[Tuple[int, int, int]] = None
    #: v3 only: per-column byte offsets within the raw payload, in
    #: ``_COL_*`` order.
    columns: Optional[Tuple[int, ...]] = None


@dataclass
class TraceIndex:
    """File-level metadata and the chunk directory of a v2/v3 trace."""

    banks: int
    compressed: bool
    chunk_cycles: int
    chunks: List[ChunkInfo]
    version: int = 2

    @property
    def total_records(self) -> int:
        return sum(chunk.n_records for chunk in self.chunks)


# -- per-record encoding (shared) ----------------------------------------------


def _encode_record(record: CycleRecord) -> bytes:
    flags = 0
    if record.rob_empty:
        flags |= _F_EMPTY
    if record.exception is not None:
        flags |= _F_EXC
    if record.exception_is_ordering:
        flags |= _F_ORD
    if record.dispatch_pc is not None:
        flags |= _F_DISP_PC
    if record.rob_head is not None:
        flags |= _F_HEAD
    counts = (len(record.committed) & 0xF) | \
        ((len(record.dispatched) & 0xF) << 4)
    parts = [_HDR.pack(flags, counts, record.oldest_bank),
             _U64.pack(record.fetch_pc)]
    if record.rob_head is not None:
        parts.append(_U64.pack(record.rob_head))
    if record.exception is not None:
        parts.append(_U64.pack(record.exception))
    if record.dispatch_pc is not None:
        parts.append(_U64.pack(record.dispatch_pc))
    for commit in record.committed:
        parts.append(_U64.pack(commit.addr))
        parts.append(struct.pack(
            "<B", (commit.bank & 0x3F)
            | (0x40 if commit.mispredicted else 0)
            | (0x80 if commit.flushes else 0)))
    for addr in record.dispatched:
        parts.append(_U64.pack(addr))
    return b"".join(parts)


def _decode_record(buf: bytes, pos: int, cycle: int,
                   banks: int) -> Tuple[CycleRecord, int]:
    """Decode one record from *buf* at *pos*; returns (record, new pos)."""
    end = pos + _HDR.size
    if end > len(buf):
        raise ValueError("truncated trace record header")
    flags, counts, oldest_bank = _HDR.unpack_from(buf, pos)
    pos = end

    def u64() -> int:
        nonlocal pos
        if pos + 8 > len(buf):
            raise ValueError("truncated trace record")
        value = _U64.unpack_from(buf, pos)[0]
        pos += 8
        return value

    fetch_pc = u64()
    rob_head = u64() if flags & _F_HEAD else None
    exception = u64() if flags & _F_EXC else None
    dispatch_pc = u64() if flags & _F_DISP_PC else None
    committed = []
    for _ in range(counts & 0xF):
        addr = u64()
        if pos >= len(buf):
            raise ValueError("truncated trace record")
        meta = buf[pos]
        pos += 1
        committed.append(CommittedInst(
            addr, meta & 0x3F, bool(meta & 0x40), bool(meta & 0x80)))
    dispatched = tuple(u64() for _ in range(counts >> 4))
    head_banks: List[Optional[HeadEntry]] = [None] * banks
    if rob_head is not None:
        head_banks[oldest_bank] = HeadEntry(rob_head, False)
    record = CycleRecord(
        cycle=cycle, committed=tuple(committed), rob_head=rob_head,
        rob_empty=bool(flags & _F_EMPTY), exception=exception,
        exception_is_ordering=bool(flags & _F_ORD),
        dispatched=dispatched, dispatch_pc=dispatch_pc,
        fetch_pc=fetch_pc, head_banks=tuple(head_banks),
        oldest_bank=oldest_bank)
    return record, pos


# -- format v1 ------------------------------------------------------------------


class TraceWriter(TraceObserver):
    """Observer that serializes the trace in the flat v1 format."""

    def __init__(self, stream: BinaryIO, banks: int = 4):
        self.stream = stream
        self.banks = banks
        self.records_written = 0
        stream.write(MAGIC)
        stream.write(struct.pack("<B", banks))

    def on_cycle(self, record: CycleRecord) -> None:
        self.stream.write(_encode_record(record))
        self.records_written += 1

    def on_stall_run(self, record: CycleRecord, count: int) -> None:
        # Encoded records carry no cycle number, so a stall run is
        # *count* copies of the same bytes.
        self.stream.write(_encode_record(record) * count)
        self.records_written += count

    def on_cycle_run(self, records: Sequence[CycleRecord],
                     repeats: int) -> None:
        # Cycle numbers are implicit, so every repeat of the period
        # serializes to the same bytes: encode once, multiply.
        if not records or repeats <= 0:
            return
        period = b"".join(_encode_record(r) for r in records)
        self.stream.write(period * repeats)
        self.records_written += len(records) * repeats

    def on_finish(self, final_cycle: int) -> None:
        self.stream.flush()


def _read_trace_v1(stream: BinaryIO, banks: int) -> Iterator[CycleRecord]:
    cycle = 0
    while True:
        header = stream.read(_HDR.size)
        if not header:
            return
        if len(header) < _HDR.size:
            raise ValueError("truncated trace record header")
        flags, counts, oldest_bank = _HDR.unpack(header)
        fetch_pc = _U64.unpack(stream.read(8))[0]
        rob_head = (_U64.unpack(stream.read(8))[0]
                    if flags & _F_HEAD else None)
        exception = (_U64.unpack(stream.read(8))[0]
                     if flags & _F_EXC else None)
        dispatch_pc = (_U64.unpack(stream.read(8))[0]
                       if flags & _F_DISP_PC else None)
        committed = []
        for _ in range(counts & 0xF):
            addr = _U64.unpack(stream.read(8))[0]
            meta = stream.read(1)[0]
            committed.append(CommittedInst(
                addr, meta & 0x3F, bool(meta & 0x40), bool(meta & 0x80)))
        dispatched = tuple(_U64.unpack(stream.read(8))[0]
                           for _ in range(counts >> 4))
        head_banks: List[Optional[HeadEntry]] = [None] * banks
        if rob_head is not None:
            head_banks[oldest_bank] = HeadEntry(rob_head, False)
        yield CycleRecord(
            cycle=cycle, committed=tuple(committed), rob_head=rob_head,
            rob_empty=bool(flags & _F_EMPTY), exception=exception,
            exception_is_ordering=bool(flags & _F_ORD),
            dispatched=dispatched, dispatch_pc=dispatch_pc,
            fetch_pc=fetch_pc, head_banks=tuple(head_banks),
            oldest_bank=oldest_bank)
        cycle += 1


# -- format v2 ------------------------------------------------------------------


class _AtomicWriterMixin:
    """Path-mode atomicity shared by the chunked trace writers.

    In path mode the writer targets a unique ``*.tmp`` sibling and only
    fsyncs + renames it over the destination on finish, so a killed
    ``repro record`` or cache fill never leaves a truncated trace at
    the destination path -- which readers would otherwise silently
    accept, because truncation at a chunk boundary is indistinguishable
    from end-of-trace.  Call :meth:`abort` to discard a partial
    path-mode write explicitly.
    """

    _path: Optional[str]
    _tmp_path: Optional[str]
    _closed: bool
    stream: BinaryIO

    def _open_dest(self, stream: Union[BinaryIO, str, "os.PathLike[str]"]
                   ) -> BinaryIO:
        self._path = None
        self._tmp_path = None
        self._closed = False
        if isinstance(stream, (str, os.PathLike)):
            self._path = os.fspath(stream)
            self._tmp_path = f"{self._path}.{os.getpid()}.tmp"
            stream = open(self._tmp_path, "wb")
        return stream

    def _finalize(self) -> None:
        self.stream.flush()
        if self._path is not None and not self._closed:
            self._closed = True
            os.fsync(self.stream.fileno())
            self.stream.close()
            os.replace(self._tmp_path, self._path)
            _fsync_dir(os.path.dirname(self._path))

    def abort(self) -> None:
        """Discard a partially-written path-mode trace.

        Closes and unlinks the temporary file; the destination path is
        never touched.  No-op in stream mode or after finishing.
        """
        if self._path is None or self._closed:
            return
        self._closed = True
        try:
            self.stream.close()
        finally:
            try:
                os.unlink(self._tmp_path)
            except OSError:
                pass


class TraceWriterV2(_AtomicWriterMixin, TraceObserver):
    """Observer that serializes the trace in the chunk-indexed v2 format.

    Records are buffered and flushed as chunks of *chunk_cycles*
    records; each chunk header stores the cycle range and the machine
    state carried into the chunk, so a reader can decode any chunk on
    its own.

    *stream* may be an open binary stream or a filesystem path.  In
    path mode the writer is **atomic**: it writes to a unique ``*.tmp``
    sibling and only fsyncs + renames it over the destination in
    :meth:`on_finish`.  A killed ``repro record`` or cache fill
    therefore never leaves a truncated trace at the destination path --
    which readers would otherwise silently accept, because truncation
    at a chunk boundary is indistinguishable from end-of-trace.  Call
    :meth:`abort` to discard a partial path-mode write explicitly.
    """

    def __init__(self, stream: Union[BinaryIO, str, "os.PathLike[str]"],
                 banks: int = 4,
                 chunk_cycles: int = DEFAULT_CHUNK_CYCLES,
                 compress: bool = False):
        if chunk_cycles < 1:
            raise ValueError("chunk_cycles must be >= 1")
        self.stream = self._open_dest(stream)
        stream = self.stream
        self.banks = banks
        self.chunk_cycles = chunk_cycles
        self.compress = compress
        self.records_written = 0
        self.chunks_written = 0
        self._buffer: List[bytes] = []
        self._chunk_start = 0
        #: Carry as of the start of the buffered chunk.
        self._chunk_carry = ChunkCarry()
        #: Carry advanced past every record seen so far.
        self._carry = ChunkCarry()
        stream.write(MAGIC_V2)
        stream.write(_FILE_HDR_V2.pack(
            banks, _FILE_F_ZLIB if compress else 0, chunk_cycles))

    def on_cycle(self, record: CycleRecord) -> None:
        self._buffer.append(_encode_record(record))
        self._carry.update(record)
        self.records_written += 1
        if len(self._buffer) >= self.chunk_cycles:
            self._flush_chunk()

    def on_stall_run(self, record: CycleRecord, count: int) -> None:
        # One encode for the whole run: records carry no cycle number,
        # so every cycle of the run serializes to the same bytes, and
        # the carry update is idempotent for stall records (no commits,
        # no exception).
        encoded = _encode_record(record)
        self._carry.update(record)
        self.records_written += count
        buffer = self._buffer
        while count:
            space = self.chunk_cycles - len(buffer)
            take = count if count < space else space
            buffer.extend([encoded] * take)
            count -= take
            if len(buffer) >= self.chunk_cycles:
                self._flush_chunk()
                buffer = self._buffer

    def on_cycle_run(self, records: Sequence[CycleRecord],
                     repeats: int) -> None:
        # Encode each template record once and append byte strings by
        # whole periods; the chunk carry is restored from precomputed
        # snapshots at every chunk boundary the run crosses.
        n = len(records)
        if not n or repeats <= 0:
            return
        snapshots = _carry_snapshots(self._carry, records)
        if snapshots is None:
            super().on_cycle_run(records, repeats)
            return
        transient, steady = snapshots
        encoded = [_encode_record(r) for r in records]
        total = n * repeats
        buffer = self._buffer
        t = 0
        while t < total:
            space = self.chunk_cycles - len(buffer)
            take = min(space, total - t)
            i = t % n
            done = 0
            if i:
                done = min(take, n - i)
                buffer.extend(encoded[i:i + done])
            whole, tail = divmod(take - done, n)
            if whole:
                buffer.extend(encoded * whole)
            if tail:
                buffer.extend(encoded[:tail])
            t += take
            if len(buffer) >= self.chunk_cycles:
                last = t - 1
                snap = transient[last] if last < n else steady[last % n]
                self._carry = snap.copy()
                self._flush_chunk()
                buffer = self._buffer
        last = total - 1
        self._carry = (transient[last] if last < n
                       else steady[last % n]).copy()
        self.records_written += total

    def on_finish(self, final_cycle: int) -> None:
        if self._buffer:
            self._flush_chunk()
        self._finalize()

    def _flush_chunk(self) -> None:
        raw = b"".join(self._buffer)
        payload = zlib.compress(raw) if self.compress else raw
        carry = self._chunk_carry
        flags = 0
        if carry.oir_addr is not None:
            flags |= _C_HAS_OIR
        if carry.last_committed is not None:
            flags |= _C_HAS_LAST
        if carry.drain_pending:
            flags |= _C_DRAIN
        self.stream.write(_CHUNK_HDR.pack(
            self._chunk_start, len(self._buffer), len(payload), len(raw),
            flags, carry.oir_flag, carry.oir_kind,
            carry.oir_addr or 0, carry.last_committed or 0))
        self.stream.write(payload)
        self._chunk_start += len(self._buffer)
        self._buffer = []
        self._chunk_carry = self._carry.copy()
        self.chunks_written += 1


def _fsync_dir(dirname: str) -> None:
    """Fsync a directory so a rename into it survives a crash."""
    try:
        fd = os.open(dirname or ".", os.O_RDONLY)
    except OSError:
        return  # e.g. platforms without directory fds
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# -- format v3 ------------------------------------------------------------------


def _pack_u64(values: Sequence[int]) -> bytes:
    """Pack a sequence of u64s little-endian (column wire form)."""
    arr = array("Q", values)
    if not _LITTLE:
        arr.byteswap()
    if arr.itemsize != 8:  # pragma: no cover - exotic platforms
        return struct.pack("<%dQ" % len(values), *values)
    return arr.tobytes()


def _pack_u32(values: Sequence[int]) -> bytes:
    """Pack a sequence of u32s little-endian (prefix-base wire form)."""
    if isinstance(values, array) and values.typecode == "I" and _LITTLE \
            and values.itemsize == 4:
        return values.tobytes()
    arr = array("I", values)
    if not _LITTLE:
        arr.byteswap()
    if arr.itemsize != 4:  # pragma: no cover - exotic platforms
        return struct.pack("<%dI" % len(values), *values)
    return arr.tobytes()


def _cast_u64(view: memoryview, offset: int, count: int) -> Sequence[int]:
    """A u64 column as a zero-copy cast (byteswap copy on big-endian)."""
    sub = view[offset:offset + 8 * count]
    if len(sub) != 8 * count:
        raise ValueError("v3 column out of bounds")
    if _LITTLE:
        return sub.cast("Q")
    arr = array("Q")  # pragma: no cover - big-endian fallback
    arr.frombytes(sub.tobytes())
    arr.byteswap()
    return arr


def _cast_u32(view: memoryview, offset: int, count: int) -> Sequence[int]:
    """A u32 column as a zero-copy cast (byteswap copy on big-endian)."""
    sub = view[offset:offset + 4 * count]
    if len(sub) != 4 * count:
        raise ValueError("v3 column out of bounds")
    if _LITTLE:
        return sub.cast("I")
    arr = array("I")  # pragma: no cover - big-endian fallback
    arr.frombytes(sub.tobytes())
    arr.byteswap()
    return arr


def _serialize_block_columns(block: Any
                             ) -> Tuple[bytes, Tuple[int, ...],
                                        Tuple[int, int, int]]:
    """Serialize a :class:`CycleBlock`'s columns into one v3 payload.

    Returns ``(payload, column_offsets, (n_opt, n_commit, n_disp))``;
    every column start (and the total size) is padded to an 8-byte
    boundary so the payload can be decoded by pointer casts when the
    file offset itself is 8-aligned (which the v3 framing guarantees).
    """
    parts: List[bytes] = []
    offsets: List[int] = []
    pos = 0

    def add(data: bytes) -> None:
        nonlocal pos
        pad = -pos % 8
        if pad:
            parts.append(b"\x00" * pad)
            pos += pad
        offsets.append(pos)
        parts.append(data)
        pos += len(data)

    add(_pack_u64(block.fetch_pc))
    add(_pack_u64(block.opt_vals))
    add(_pack_u64(block.commit_addr))
    add(_pack_u64(block.disp_addr))
    add(_pack_u32(block.opt_base))
    add(_pack_u32(block.commit_base))
    add(_pack_u32(block.disp_base))
    add(bytes(block.flags))
    add(bytes(block.oldest_bank))
    add(bytes(block.commit_meta))
    pad = -pos % 8
    if pad:
        parts.append(b"\x00" * pad)
    return (b"".join(parts), tuple(offsets),
            (len(block.opt_vals), len(block.commit_addr),
             len(block.disp_addr)))


def _block_from_columns(view: memoryview, start_cycle: int,
                        n_records: int, banks: int,
                        counts: Tuple[int, int, int],
                        columns: Tuple[int, ...]) -> Any:
    """Build a :class:`CycleBlock` over a v3 column buffer, zero-copy."""
    from ..fastpath.block import CycleBlock
    n_opt, n_commit, n_disp = counts
    n = n_records
    total = len(view)
    for off in columns:
        if off > total:
            raise ValueError("v3 column out of bounds")
    flags = view[columns[_COL_FLAGS]:columns[_COL_FLAGS] + n]
    oldest = view[columns[_COL_OLDEST]:columns[_COL_OLDEST] + n]
    meta = view[columns[_COL_COMMIT_META]:
                columns[_COL_COMMIT_META] + n_commit]
    if len(flags) != n or len(oldest) != n or len(meta) != n_commit:
        raise ValueError("v3 column out of bounds")
    return CycleBlock(
        start_cycle, n, banks, flags, oldest,
        _cast_u64(view, columns[_COL_FETCH_PC], n),
        _cast_u64(view, columns[_COL_OPT_VALS], n_opt),
        _cast_u32(view, columns[_COL_OPT_BASE], n + 1),
        _cast_u32(view, columns[_COL_COMMIT_BASE], n + 1),
        _cast_u64(view, columns[_COL_COMMIT_ADDR], n_commit), meta,
        _cast_u32(view, columns[_COL_DISP_BASE], n + 1),
        _cast_u64(view, columns[_COL_DISP_ADDR], n_disp))


class TraceWriterV3(_AtomicWriterMixin, TraceObserver):
    """Observer that serializes the trace in the columnar v3 format.

    Buffers ``(record, count)`` runs and flushes chunks of
    *chunk_cycles* records whose payload **is** the chunk's
    :class:`~repro.fastpath.block.CycleBlock` columns, 8-byte aligned
    behind a per-column offset table, so readers decode by casting an
    ``mmap`` of the file instead of looping over records.  Carry state
    and atomic path-mode semantics match :class:`TraceWriterV2`.
    """

    def __init__(self, stream: Union[BinaryIO, str, "os.PathLike[str]"],
                 banks: int = 4,
                 chunk_cycles: int = DEFAULT_CHUNK_CYCLES,
                 compress: bool = False):
        if chunk_cycles < 1:
            raise ValueError("chunk_cycles must be >= 1")
        self.stream = self._open_dest(stream)
        self.banks = banks
        self.chunk_cycles = chunk_cycles
        self.compress = compress
        self.records_written = 0
        self.chunks_written = 0
        self._runs: List[Tuple[CycleRecord, int]] = []
        self._buffered = 0
        self._chunk_start = 0
        #: Carry as of the start of the buffered chunk.
        self._chunk_carry = ChunkCarry()
        #: Carry advanced past every record seen so far.
        self._carry = ChunkCarry()
        self.stream.write(MAGIC_V3)
        self.stream.write(_FILE_HDR_V2.pack(
            banks, _FILE_F_ZLIB if compress else 0, chunk_cycles))
        self.stream.write(_FILE_PAD_V3)

    def on_cycle(self, record: CycleRecord) -> None:
        self._runs.append((record, 1))
        self._buffered += 1
        self._carry.update(record)
        self.records_written += 1
        if self._buffered >= self.chunk_cycles:
            self._flush_chunk()

    def on_stall_run(self, record: CycleRecord, count: int) -> None:
        # One run entry per chunk the stall spans: columnarization
        # expands it by C-speed sequence multiplication.
        self._carry.update(record)
        self.records_written += count
        while count:
            space = self.chunk_cycles - self._buffered
            take = count if count < space else space
            self._runs.append((record, take))
            self._buffered += take
            count -= take
            if self._buffered >= self.chunk_cycles:
                self._flush_chunk()

    def on_cycle_run(self, records: Sequence[CycleRecord],
                     repeats: int) -> None:
        # The serialized columns carry no cycle numbers (the chunk
        # header provides the start cycle), so template records are
        # appended as-is, whole periods at a time via C-level list
        # multiplication; the chunk carry is restored from precomputed
        # snapshots at every chunk boundary the run crosses.
        n = len(records)
        if not n or repeats <= 0:
            return
        snapshots = _carry_snapshots(self._carry, records)
        if snapshots is None:
            super().on_cycle_run(records, repeats)
            return
        transient, steady = snapshots
        template = [(r, 1) for r in records]
        total = n * repeats
        t = 0
        while t < total:
            space = self.chunk_cycles - self._buffered
            take = min(space, total - t)
            i = t % n
            done = 0
            if i:
                done = min(take, n - i)
                self._runs.extend(template[i:i + done])
            whole, tail = divmod(take - done, n)
            if whole:
                self._runs.extend(template * whole)
            if tail:
                self._runs.extend(template[:tail])
            self._buffered += take
            t += take
            if self._buffered >= self.chunk_cycles:
                last = t - 1
                snap = transient[last] if last < n else steady[last % n]
                self._carry = snap.copy()
                self._flush_chunk()
        last = total - 1
        self._carry = (transient[last] if last < n
                       else steady[last % n]).copy()
        self.records_written += total

    def on_finish(self, final_cycle: int) -> None:
        if self._runs:
            self._flush_chunk()
        self._finalize()

    def _flush_chunk(self) -> None:
        from ..fastpath.block import CycleBlock
        block = CycleBlock.from_runs(self._runs, self.banks)
        raw, offsets, (n_opt, n_commit, n_disp) = \
            _serialize_block_columns(block)
        payload = zlib.compress(raw) if self.compress else raw
        carry = self._chunk_carry
        flags = 0
        if carry.oir_addr is not None:
            flags |= _C_HAS_OIR
        if carry.last_committed is not None:
            flags |= _C_HAS_LAST
        if carry.drain_pending:
            flags |= _C_DRAIN
        self.stream.write(_CHUNK_HDR_V3.pack(
            self._chunk_start, self._buffered, len(payload), len(raw),
            flags, carry.oir_flag, carry.oir_kind, 0,
            carry.oir_addr or 0, carry.last_committed or 0,
            n_opt, n_commit, n_disp, *offsets))
        self.stream.write(payload)
        pad = -len(payload) % 8
        if pad:
            # Keep the next chunk header 8-aligned even when zlib
            # produced an odd-sized payload.
            self.stream.write(b"\x00" * pad)
        self._chunk_start += self._buffered
        self._runs = []
        self._buffered = 0
        self._chunk_carry = self._carry.copy()
        self.chunks_written += 1


def _read_file_header(stream: BinaryIO):
    """Read the magic and header; returns (version, banks, compressed,
    chunk_cycles)."""
    magic = stream.read(len(MAGIC))
    if magic == MAGIC:
        banks = struct.unpack("<B", stream.read(1))[0]
        return 1, banks, False, 0
    if magic in (MAGIC_V2, MAGIC_V3):
        version = 2 if magic == MAGIC_V2 else 3
        size = _FILE_HDR_V2.size + (len(_FILE_PAD_V3) if version == 3
                                    else 0)
        header = stream.read(size)
        if len(header) < size:
            raise ValueError(f"truncated v{version} trace header")
        banks, flags, chunk_cycles = _FILE_HDR_V2.unpack_from(header)
        return version, banks, bool(flags & _FILE_F_ZLIB), chunk_cycles
    raise ValueError("not a TIP trace stream")


def _unpack_chunk_header(header: bytes) -> Tuple[int, int, int, int,
                                                 ChunkCarry]:
    (start_cycle, n_records, payload_bytes, raw_bytes, flags,
     oir_flag, oir_kind, oir_addr, last_committed) = \
        _CHUNK_HDR.unpack(header)
    carry = ChunkCarry(
        oir_addr=oir_addr if flags & _C_HAS_OIR else None,
        oir_flag=oir_flag, oir_kind=oir_kind,
        last_committed=last_committed if flags & _C_HAS_LAST else None,
        drain_pending=bool(flags & _C_DRAIN))
    return start_cycle, n_records, payload_bytes, raw_bytes, carry


def _unpack_chunk_header_v3(buf, pos: int = 0
                            ) -> Tuple[int, int, int, int, ChunkCarry,
                                       Tuple[int, int, int],
                                       Tuple[int, ...]]:
    fields = _CHUNK_HDR_V3.unpack_from(buf, pos)
    (start_cycle, n_records, payload_bytes, raw_bytes, flags,
     oir_flag, oir_kind, _pad, oir_addr, last_committed) = fields[:10]
    counts = fields[10:13]
    columns = fields[13:23]
    carry = ChunkCarry(
        oir_addr=oir_addr if flags & _C_HAS_OIR else None,
        oir_flag=oir_flag, oir_kind=oir_kind,
        last_committed=last_committed if flags & _C_HAS_LAST else None,
        drain_pending=bool(flags & _C_DRAIN))
    return (start_cycle, n_records, payload_bytes, raw_bytes, carry,
            counts, columns)


def _decode_chunk(payload: bytes, compressed: bool, raw_bytes: int,
                  start_cycle: int, n_records: int,
                  banks: int) -> List[CycleRecord]:
    raw = zlib.decompress(payload) if compressed else payload
    if len(raw) != raw_bytes:
        raise ValueError("chunk payload size mismatch")
    records = []
    pos = 0
    for i in range(n_records):
        record, pos = _decode_record(raw, pos, start_cycle + i, banks)
        records.append(record)
    if pos != len(raw):
        raise ValueError("trailing bytes in trace chunk")
    return records


def _read_trace_v2(stream: BinaryIO, banks: int, compressed: bool
                   ) -> Iterator[CycleRecord]:
    while True:
        header = stream.read(_CHUNK_HDR.size)
        if not header:
            return
        if len(header) < _CHUNK_HDR.size:
            raise ValueError("truncated chunk header")
        start_cycle, n_records, payload_bytes, raw_bytes, _carry = \
            _unpack_chunk_header(header)
        payload = stream.read(payload_bytes)
        if len(payload) < payload_bytes:
            raise ValueError("truncated chunk payload")
        for record in _decode_chunk(payload, compressed, raw_bytes,
                                    start_cycle, n_records, banks):
            yield record


def _read_trace_v3(stream: BinaryIO, banks: int, compressed: bool
                   ) -> Iterator[CycleRecord]:
    while True:
        header = stream.read(_CHUNK_HDR_V3.size)
        if not header:
            return
        if len(header) < _CHUNK_HDR_V3.size:
            raise ValueError("truncated chunk header")
        (start_cycle, n_records, payload_bytes, raw_bytes, _carry,
         counts, columns) = _unpack_chunk_header_v3(header)
        stored = payload_bytes + (-payload_bytes % 8)
        payload = stream.read(stored)
        if len(payload) < stored:
            raise ValueError("truncated chunk payload")
        raw = (zlib.decompress(payload[:payload_bytes]) if compressed
               else payload)
        if len(raw) != raw_bytes:
            raise ValueError("chunk payload size mismatch")
        block = _block_from_columns(memoryview(raw), start_cycle,
                                    n_records, banks, counts, columns)
        for record in block.records():
            yield record


# -- readers ---------------------------------------------------------------------


def _open_source(source: Union[BinaryIO, bytes, str]
                 ) -> Tuple[BinaryIO, bool]:
    """Returns (stream, owns) for bytes / path / stream sources."""
    if isinstance(source, (bytes, bytearray)):
        return io.BytesIO(source), True
    if isinstance(source, str):
        return open(source, "rb"), True
    return source, False


def read_trace(stream: BinaryIO) -> Iterator[CycleRecord]:
    """Iterate over the records of a serialized trace (v1, v2 or v3)."""
    version, banks, compressed, _chunk_cycles = _read_file_header(stream)
    if version == 1:
        return _read_trace_v1(stream, banks)
    if version == 2:
        return _read_trace_v2(stream, banks, compressed)
    return _read_trace_v3(stream, banks, compressed)


def _scan_index(stream: BinaryIO) -> TraceIndex:
    """Scan an open v2/v3 stream (positioned at 0) for its chunk
    directory.

    Only chunk headers are read; payloads are skipped, so indexing a
    large trace is cheap.  Raises :class:`ValueError` for v1 traces
    (convert them with :func:`convert_trace` first).
    """
    version, banks, compressed, chunk_cycles = _read_file_header(stream)
    if version == 1:
        raise ValueError(
            "trace is format v1: no chunk index (convert with "
            "convert_trace / `repro convert-trace`)")
    hdr = _CHUNK_HDR if version == 2 else _CHUNK_HDR_V3
    chunks: List[ChunkInfo] = []
    while True:
        header = stream.read(hdr.size)
        if not header:
            break
        if len(header) < hdr.size:
            raise ValueError("truncated chunk header")
        counts: Optional[Tuple[int, int, int]] = None
        columns: Optional[Tuple[int, ...]] = None
        if version == 2:
            start_cycle, n_records, payload_bytes, raw_bytes, carry = \
                _unpack_chunk_header(header)
            stored = payload_bytes
        else:
            (start_cycle, n_records, payload_bytes, raw_bytes, carry,
             counts, columns) = _unpack_chunk_header_v3(header)
            stored = payload_bytes + (-payload_bytes % 8)
        offset = stream.tell()
        chunks.append(ChunkInfo(start_cycle, n_records, offset,
                                payload_bytes, raw_bytes, carry,
                                counts, columns))
        stream.seek(stored, io.SEEK_CUR)
    return TraceIndex(banks, compressed, chunk_cycles, chunks, version)


def _scan_index_buffer(buf: memoryview) -> TraceIndex:
    """Scan an in-memory v3 trace buffer for its chunk directory."""
    if bytes(buf[:len(MAGIC_V3)]) != MAGIC_V3:
        raise ValueError("not a v3 TIP trace")
    banks, flags, chunk_cycles = _FILE_HDR_V2.unpack_from(buf,
                                                          len(MAGIC_V3))
    compressed = bool(flags & _FILE_F_ZLIB)
    pos = len(MAGIC_V3) + _FILE_HDR_V2.size + len(_FILE_PAD_V3)
    total = len(buf)
    chunks: List[ChunkInfo] = []
    while pos < total:
        if pos + _CHUNK_HDR_V3.size > total:
            raise ValueError("truncated chunk header")
        (start_cycle, n_records, payload_bytes, raw_bytes, carry,
         counts, columns) = _unpack_chunk_header_v3(buf, pos)
        offset = pos + _CHUNK_HDR_V3.size
        if offset + payload_bytes > total:
            raise ValueError("truncated chunk payload")
        chunks.append(ChunkInfo(start_cycle, n_records, offset,
                                payload_bytes, raw_bytes, carry,
                                counts, columns))
        pos = offset + payload_bytes + (-payload_bytes % 8)
    return TraceIndex(banks, compressed, chunk_cycles, chunks, 3)


def read_index(source: Union[BinaryIO, bytes, str]) -> TraceIndex:
    """Scan a v2/v3 trace and return its chunk directory."""
    stream, owns = _open_source(source)
    try:
        return _scan_index(stream)
    finally:
        if owns:
            stream.close()


class TraceReaderV2:
    """Open-once random-access reader over a chunk-indexed v2 trace.

    Opens the source a single time, scans the chunk directory, and
    serves chunk reads by seeking within the same open stream.  The
    earlier :func:`read_chunk` helper reopens the trace file on *every*
    chunk read, which costs one ``open``/``close`` syscall pair per
    chunk and defeats OS readahead; a reader amortizes the open over
    the whole replay.

    Usable as a context manager::

        with TraceReaderV2(path) as reader:
            for chunk in reader.index.chunks:
                records = reader.chunk_records(chunk)
    """

    def __init__(self, source: Union[BinaryIO, bytes, str]):
        self._stream, self._owns = _open_source(source)
        try:
            # A caller (or a fork parent) may have consumed the stream
            # already; the chunk directory scan needs position 0 and
            # all later reads seek absolutely anyway.
            if not self._owns and self._stream.seekable():
                self._stream.seek(0)
            self.index = _scan_index(self._stream)
        except Exception:
            self.close()
            raise

    @property
    def banks(self) -> int:
        return self.index.banks

    def chunk_payload(self, chunk: ChunkInfo) -> bytes:
        """The raw (decompressed) record bytes of one chunk."""
        self._stream.seek(chunk.offset)
        payload = self._stream.read(chunk.payload_bytes)
        if len(payload) < chunk.payload_bytes:
            raise ValueError("truncated chunk payload")
        raw = zlib.decompress(payload) if self.index.compressed \
            else payload
        if len(raw) != chunk.raw_bytes:
            raise ValueError("chunk payload size mismatch")
        return raw

    def chunk_records(self, chunk: ChunkInfo) -> List[CycleRecord]:
        """Decode the records of one chunk."""
        raw = self.chunk_payload(chunk)
        records = []
        pos = 0
        for i in range(chunk.n_records):
            record, pos = _decode_record(raw, pos,
                                         chunk.start_cycle + i,
                                         self.index.banks)
            records.append(record)
        if pos != len(raw):
            raise ValueError("trailing bytes in trace chunk")
        return records

    def chunk_block(self, chunk: ChunkInfo) -> Any:
        """Decode one chunk into a columnar ``CycleBlock``."""
        from ..fastpath.block import decode_block
        return decode_block(self.chunk_payload(chunk), chunk.start_cycle,
                            chunk.n_records, self.index.banks)

    def records(self) -> Iterator[CycleRecord]:
        """Iterate over every record of the trace in cycle order."""
        for chunk in self.index.chunks:
            for record in self.chunk_records(chunk):
                yield record

    def close(self) -> None:
        if self._owns:
            self._stream.close()

    def __enter__(self) -> "TraceReaderV2":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class TraceReaderV3:
    """Zero-copy random-access reader over a columnar v3 trace.

    Path sources are ``mmap``-ed read-only: decoding a chunk is then a
    set of ``memoryview`` casts straight over the mapping -- the OS
    page cache is the only copy, and processes that open the same path
    share those pages.  ``bytes`` sources are viewed in
    place; stream sources are read into one buffer.  zlib-compressed
    traces fall back to one decompress-copy per chunk.

    Interface-compatible with :class:`TraceReaderV2` (``index``,
    ``banks``, ``chunk_records``, ``records``, context manager) plus
    :meth:`chunk_block` for columnar replay.
    """

    def __init__(self, source: Union[BinaryIO, bytes, str]):
        self._file: Optional[BinaryIO] = None
        self._mmap: Optional[mmap.mmap] = None
        self._closed = False
        if isinstance(source, str):
            self._file = open(source, "rb")
            try:
                self._mmap = mmap.mmap(self._file.fileno(), 0,
                                       access=mmap.ACCESS_READ)
                buffer: Union[mmap.mmap, bytes] = self._mmap
            except (ValueError, OSError):
                # Empty or unmappable file: fall back to a read copy.
                self._file.seek(0)
                buffer = self._file.read()
        elif isinstance(source, (bytes, bytearray)):
            buffer = bytes(source)
        else:
            if source.seekable():
                source.seek(0)
            buffer = source.read()
        self._view = memoryview(buffer)
        try:
            self.index = _scan_index_buffer(self._view)
        except Exception:
            self.close()
            raise

    @property
    def banks(self) -> int:
        return self.index.banks

    def chunk_raw(self, chunk: ChunkInfo) -> memoryview:
        """The chunk's raw column buffer (zero-copy when uncompressed)."""
        data = self._view[chunk.offset:chunk.offset + chunk.payload_bytes]
        if len(data) != chunk.payload_bytes:
            raise ValueError("truncated chunk payload")
        if self.index.compressed:
            raw = zlib.decompress(data)
            if len(raw) != chunk.raw_bytes:
                raise ValueError("chunk payload size mismatch")
            return memoryview(raw)
        if chunk.payload_bytes != chunk.raw_bytes:
            raise ValueError("chunk payload size mismatch")
        return data

    def chunk_block(self, chunk: ChunkInfo) -> Any:
        """The chunk as a columnar ``CycleBlock`` over the mapping."""
        assert chunk.counts is not None and chunk.columns is not None
        return _block_from_columns(self.chunk_raw(chunk),
                                   chunk.start_cycle, chunk.n_records,
                                   self.index.banks, chunk.counts,
                                   chunk.columns)

    def chunk_records(self, chunk: ChunkInfo) -> List[CycleRecord]:
        """Decode the records of one chunk."""
        block = self.chunk_block(chunk)
        return [block.record(i) for i in range(chunk.n_records)]

    def records(self) -> Iterator[CycleRecord]:
        """Iterate over every record of the trace in cycle order."""
        for chunk in self.index.chunks:
            for record in self.chunk_records(chunk):
                yield record

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._view.release()
        except BufferError:  # pragma: no cover - defensive
            pass
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                # Live block views still reference the mapping; it is
                # unmapped when they are dropped.  The fd below closes
                # regardless (the mapping survives fd close).
                pass
        if self._file is not None:
            self._file.close()

    def __enter__(self) -> "TraceReaderV3":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


TraceReader = Union[TraceReaderV2, TraceReaderV3]


def open_reader(source: Union[BinaryIO, bytes, str]) -> TraceReader:
    """Open a random-access chunk reader, dispatching on the magic.

    Returns :class:`TraceReaderV3` for v3 traces and
    :class:`TraceReaderV2` for v2; raises :class:`ValueError` for v1
    (no chunk index -- callers fall back to the record stream).
    """
    if isinstance(source, (bytes, bytearray)):
        magic = bytes(source[:len(MAGIC)])
    elif isinstance(source, str):
        with open(source, "rb") as handle:
            magic = handle.read(len(MAGIC))
    else:
        if source.seekable():
            source.seek(0)
        magic = source.read(len(MAGIC))
        if source.seekable():
            source.seek(0)
    if magic == MAGIC_V3:
        return TraceReaderV3(source)
    return TraceReaderV2(source)


def read_chunk(source: Union[BinaryIO, bytes, str], index: TraceIndex,
               chunk: ChunkInfo) -> List[CycleRecord]:
    """Decode the records of one chunk located via *index*."""
    stream, owns = _open_source(source)
    try:
        stream.seek(chunk.offset)
        payload = stream.read(chunk.payload_bytes)
        if len(payload) < chunk.payload_bytes:
            raise ValueError("truncated chunk payload")
        return _decode_chunk(payload, index.compressed, chunk.raw_bytes,
                             chunk.start_cycle, chunk.n_records,
                             index.banks)
    finally:
        if owns:
            stream.close()


def replay_trace(source: Union[BinaryIO, bytes, str],
                 *observers: TraceObserver) -> int:
    """Replay a serialized trace through *observers*; returns cycles."""
    stream, owns = _open_source(source)
    final_cycle = 0
    try:
        for record in read_trace(stream):
            final_cycle = record.cycle
            for observer in observers:
                observer.on_cycle(record)
    finally:
        if owns:
            stream.close()
    for observer in observers:
        observer.on_finish(final_cycle)
    return final_cycle + 1


def convert_trace(source: Union[BinaryIO, bytes, str],
                  dest: Union[BinaryIO, str],
                  version: int = 3,
                  chunk_cycles: int = DEFAULT_CHUNK_CYCLES,
                  compress: bool = False) -> int:
    """Re-encode a trace of any version as format *version*.

    Every record is preserved losslessly, so conversion round trips
    (v2 -> v3 -> v2 with the same chunk parameters) are byte-identical:
    records are dense from cycle 0, which pins the chunking, and the
    carry state is recomputed deterministically.  Returns the number of
    records converted.
    """
    if version not in (1, 2, 3):
        raise ValueError(f"unknown trace format version: {version}")
    in_stream, owns_in = _open_source(source)
    out_stream: BinaryIO
    owns_out = False
    if isinstance(dest, str):
        out_stream = open(dest, "wb")
        owns_out = True
    else:
        out_stream = dest
    try:
        src_version, banks, src_compressed, _cc = \
            _read_file_header(in_stream)
        if src_version == 1:
            records = _read_trace_v1(in_stream, banks)
        elif src_version == 2:
            records = _read_trace_v2(in_stream, banks, src_compressed)
        else:
            records = _read_trace_v3(in_stream, banks, src_compressed)
        writer: TraceObserver
        if version == 1:
            writer = TraceWriter(out_stream, banks=banks)
        elif version == 2:
            writer = TraceWriterV2(out_stream, banks=banks,
                                   chunk_cycles=chunk_cycles,
                                   compress=compress)
        else:
            writer = TraceWriterV3(out_stream, banks=banks,
                                   chunk_cycles=chunk_cycles,
                                   compress=compress)
        final_cycle = 0
        for record in records:
            writer.on_cycle(record)
            final_cycle = record.cycle
        writer.on_finish(final_cycle)
        return writer.records_written
    finally:
        if owns_in:
            in_stream.close()
        if owns_out:
            out_stream.close()


def convert_v1_to_v2(source: Union[BinaryIO, bytes, str],
                     dest: Union[BinaryIO, str],
                     chunk_cycles: int = DEFAULT_CHUNK_CYCLES,
                     compress: bool = False) -> int:
    """Re-encode a v1 trace in the chunk-indexed v2 format.

    Kept for compatibility; :func:`convert_trace` is the generic form.
    """
    in_stream, owns_in = _open_source(source)
    try:
        magic = in_stream.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError("source trace is not format v1")
        if in_stream.seekable():
            in_stream.seek(0)
        else:  # pragma: no cover - non-seekable v1 sources
            raise ValueError("v1 source stream must be seekable")
        return convert_trace(in_stream, dest, version=2,
                             chunk_cycles=chunk_cycles,
                             compress=compress)
    finally:
        if owns_in:
            in_stream.close()
