"""Binary serialization of the commit-stage trace.

The paper's methodology streams a per-cycle trace out of FireSim and
processes it on the CPU side; re-running a new profiler configuration
does not require re-simulating.  This module provides the same record/
replay split for our simulator: :class:`TraceWriter` is a trace
observer that serializes every :class:`~repro.cpu.trace.CycleRecord`,
:class:`TraceReader` maps a serialized trace back into columnar blocks
or records, and :func:`replay_trace` drives any set of observers over
it one record at a time.

There is one on-disk format, v3 (``TIPTRC03``), and it is *zero-copy
columnar*: each chunk's payload is the raw
:class:`~repro.fastpath.block.CycleBlock` columns themselves (flags
bytes, oldest-bank bytes, ``array('I')`` prefix-sum bases, packed-u64
optional/commit/dispatch columns and the commit-meta bytes), each
column 8-byte aligned with a per-column offset table in the chunk
header.  Decoding a chunk is therefore a handful of ``memoryview``
casts over an ``mmap`` of the trace file -- no per-record Python loop
-- and every process that maps the same file shares its pages.

Layout (little-endian; on big-endian hosts the reader falls back to
``array.byteswap`` copies):

* file header (16 bytes): magic, u8 banks, u8 flags, u32 chunk_cycles
  (records per full chunk), 2 pad bytes;
* a sequence of chunks, each a 96-byte header (start cycle, record
  count, payload sizes, 20 reserved zero bytes, flattened column
  lengths and column offsets) followed by ``chunk_cycles`` consecutive
  cycles' columns, padded to 8 bytes.

Cycle numbers are implicit (records are dense from cycle 0), which is
what keeps the format compact.  Flag bit 0 once marked zlib-compressed
payloads and the reserved chunk-header bytes once held per-chunk
machine state; readers reject the former and ignore the latter.  The
older flat v1 (``TIPTRC01``) and row-encoded v2 (``TIPTRC02``) formats
are rejected with a message naming the version: re-record such traces.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import (Any, BinaryIO, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from .trace import CycleRecord, TraceObserver

MAGIC = b"TIPTRC03"
#: Magics of the retired formats, for a precise rejection message.
_RETIRED_MAGICS = {b"TIPTRC01": 1, b"TIPTRC02": 2}

_LITTLE = sys.byteorder == "little"

#: Records per chunk (one record per cycle).
DEFAULT_CHUNK_CYCLES = 4096

#: File header after the magic: banks, flags, chunk_cycles, 2 pad bytes
#: (so the first chunk header lands on an 8-byte boundary).
_FILE_HDR = struct.Struct("<BBI2x")
#: Retired file-header flag: zlib-compressed payloads.
_FILE_F_ZLIB = 1 << 0
#: Chunk header (96 bytes, 8-aligned): start_cycle, n_records, payload
#: bytes (stored size), raw bytes (column-buffer size), 20 reserved
#: bytes, the flattened column lengths (n_opt, n_commit, n_disp) and
#: the 10 per-column byte offsets within the payload (see ``_COL_*``).
_CHUNK_HDR = struct.Struct("<QIII20x3I10I4x")

#: Column order inside a chunk payload.  u64 columns first, then the
#: u32 prefix-sum bases, then the byte columns; every column start is
#: padded to an 8-byte boundary.
(_COL_FETCH_PC, _COL_OPT_VALS, _COL_COMMIT_ADDR, _COL_DISP_ADDR,
 _COL_OPT_BASE, _COL_COMMIT_BASE, _COL_DISP_BASE, _COL_FLAGS,
 _COL_OLDEST, _COL_COMMIT_META) = range(10)


@dataclass
class ChunkInfo:
    """Location and metadata of one chunk."""

    start_cycle: int
    n_records: int
    #: File offset of the chunk payload (past the chunk header).
    offset: int
    payload_bytes: int
    #: Flattened column lengths ``(n_opt, n_commit, n_disp)``.
    counts: Tuple[int, int, int]
    #: Per-column byte offsets within the payload, in ``_COL_*`` order.
    columns: Tuple[int, ...]


@dataclass
class TraceIndex:
    """File-level metadata and the chunk directory of a trace."""

    banks: int
    chunk_cycles: int
    chunks: List[ChunkInfo]

    @property
    def total_records(self) -> int:
        return sum(chunk.n_records for chunk in self.chunks)


# -- writer ----------------------------------------------------------------------


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


def _serialize_block_columns(block: Any
                             ) -> Tuple[bytes, Tuple[int, ...],
                                        Tuple[int, int, int]]:
    """Serialize a :class:`CycleBlock`'s columns into one payload.

    Returns ``(payload, column_offsets, (n_opt, n_commit, n_disp))``;
    every column start (and the total size) is padded to an 8-byte
    boundary so the payload can be decoded by pointer casts when the
    file offset itself is 8-aligned (which the framing guarantees).
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


class TraceWriter(TraceObserver):
    """Observer that serializes the trace.

    Buffers ``(record, count)`` runs and flushes chunks of
    *chunk_cycles* records whose payload **is** the chunk's
    :class:`~repro.fastpath.block.CycleBlock` columns, 8-byte aligned
    behind a per-column offset table, so readers decode by casting an
    ``mmap`` of the file instead of looping over records.

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
                 chunk_cycles: int = DEFAULT_CHUNK_CYCLES):
        if chunk_cycles < 1:
            raise ValueError("chunk_cycles must be >= 1")
        self._path: Optional[str] = None
        self._tmp_path = ""
        self._closed = False
        if isinstance(stream, (str, os.PathLike)):
            self._path = os.fspath(stream)
            self._tmp_path = f"{self._path}.{os.getpid()}.tmp"
            stream = open(self._tmp_path, "wb")
        self.stream: BinaryIO = stream
        self.banks = banks
        self.chunk_cycles = chunk_cycles
        self._runs: List[Tuple[CycleRecord, int]] = []
        self._buffered = 0
        self._chunk_start = 0
        stream.write(MAGIC + _FILE_HDR.pack(banks, 0, chunk_cycles))

    def on_cycle(self, record: CycleRecord) -> None:
        self._runs.append((record, 1))
        self._buffered += 1
        if self._buffered >= self.chunk_cycles:
            self._flush_chunk()

    def on_stall_run(self, record: CycleRecord, count: int) -> None:
        # One run entry per chunk the stall spans: columnarization
        # expands it by C-speed sequence multiplication.
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
        # multiplication, split at chunk boundaries.
        n = len(records)
        if not n or repeats <= 0:
            return
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
                self._flush_chunk()

    def on_finish(self, final_cycle: int) -> None:
        if self._runs:
            self._flush_chunk()
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

    def _flush_chunk(self) -> None:
        from ..fastpath.block import CycleBlock
        block = CycleBlock.from_runs(self._runs, self.banks)
        payload, offsets, counts = _serialize_block_columns(block)
        self.stream.write(_CHUNK_HDR.pack(
            self._chunk_start, self._buffered, len(payload), len(payload),
            *counts, *offsets))
        self.stream.write(payload)
        self._chunk_start += self._buffered
        self._runs = []
        self._buffered = 0


# -- reader ----------------------------------------------------------------------


def _cast_u64(view: memoryview, offset: int, count: int) -> Sequence[int]:
    """A u64 column as a zero-copy cast (byteswap copy on big-endian)."""
    sub = view[offset:offset + 8 * count]
    if len(sub) != 8 * count:
        raise ValueError("column out of bounds")
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
        raise ValueError("column out of bounds")
    if _LITTLE:
        return sub.cast("I")
    arr = array("I")  # pragma: no cover - big-endian fallback
    arr.frombytes(sub.tobytes())
    arr.byteswap()
    return arr


def _block_from_columns(view: memoryview, start_cycle: int,
                        n_records: int, banks: int,
                        counts: Tuple[int, int, int],
                        columns: Tuple[int, ...]) -> Any:
    """Build a :class:`CycleBlock` over a chunk's column buffer,
    zero-copy."""
    from ..fastpath.block import CycleBlock
    n_opt, n_commit, n_disp = counts
    n = n_records
    total = len(view)
    for off in columns:
        if off > total:
            raise ValueError("column out of bounds")
    flags = view[columns[_COL_FLAGS]:columns[_COL_FLAGS] + n]
    oldest = view[columns[_COL_OLDEST]:columns[_COL_OLDEST] + n]
    meta = view[columns[_COL_COMMIT_META]:
                columns[_COL_COMMIT_META] + n_commit]
    if len(flags) != n or len(oldest) != n or len(meta) != n_commit:
        raise ValueError("column out of bounds")
    return CycleBlock(
        start_cycle, n, banks, flags, oldest,
        _cast_u64(view, columns[_COL_FETCH_PC], n),
        _cast_u64(view, columns[_COL_OPT_VALS], n_opt),
        _cast_u32(view, columns[_COL_OPT_BASE], n + 1),
        _cast_u32(view, columns[_COL_COMMIT_BASE], n + 1),
        _cast_u64(view, columns[_COL_COMMIT_ADDR], n_commit), meta,
        _cast_u32(view, columns[_COL_DISP_BASE], n + 1),
        _cast_u64(view, columns[_COL_DISP_ADDR], n_disp))


def _scan_index(buf: memoryview) -> TraceIndex:
    """Check the file header and scan the chunk directory."""
    magic = bytes(buf[:len(MAGIC)])
    if magic in _RETIRED_MAGICS:
        raise ValueError(
            f"trace format v{_RETIRED_MAGICS[magic]} is no longer "
            f"supported; re-record the trace")
    if magic != MAGIC:
        raise ValueError("not a TIP trace (bad magic)")
    pos = len(MAGIC) + _FILE_HDR.size
    total = len(buf)
    if total < pos:
        raise ValueError("truncated trace header")
    banks, flags, chunk_cycles = _FILE_HDR.unpack_from(buf, len(MAGIC))
    if flags & _FILE_F_ZLIB:
        raise ValueError("zlib-compressed traces are no longer "
                         "supported; re-record the trace")
    chunks: List[ChunkInfo] = []
    while pos < total:
        if pos + _CHUNK_HDR.size > total:
            raise ValueError("truncated chunk header")
        fields = _CHUNK_HDR.unpack_from(buf, pos)
        start_cycle, n_records, payload_bytes, raw_bytes = fields[:4]
        if payload_bytes != raw_bytes:
            raise ValueError("chunk payload size mismatch")
        offset = pos + _CHUNK_HDR.size
        if offset + payload_bytes > total:
            raise ValueError("truncated chunk payload")
        chunks.append(ChunkInfo(start_cycle, n_records, offset,
                                payload_bytes, fields[4:7], fields[7:17]))
        pos = offset + payload_bytes + (-payload_bytes % 8)
    return TraceIndex(banks, chunk_cycles, chunks)


class TraceReader:
    """Zero-copy random-access reader over a trace.

    Path sources are ``mmap``-ed read-only: decoding a chunk is then a
    set of ``memoryview`` casts straight over the mapping -- the OS
    page cache is the only copy, and processes that open the same path
    share those pages.  ``bytes`` sources are viewed in place; stream
    sources are read into one buffer.  Raises :class:`ValueError` for
    anything that is not a well-formed trace (retired v1/v2 formats
    included) and :class:`OSError` for an unreadable path.

    Usable as a context manager::

        with TraceReader(path) as reader:
            for chunk in reader.index.chunks:
                block = reader.chunk_block(chunk)
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
            self.index = _scan_index(self._view)
        except Exception:
            self.close()
            raise

    def chunk_block(self, chunk: ChunkInfo) -> Any:
        """The chunk as a columnar ``CycleBlock`` over the mapping."""
        raw = self._view[chunk.offset:chunk.offset + chunk.payload_bytes]
        return _block_from_columns(raw, chunk.start_cycle,
                                   chunk.n_records, self.index.banks,
                                   chunk.counts, chunk.columns)

    def records(self) -> Iterator[CycleRecord]:
        """Iterate over every record of the trace in cycle order."""
        for chunk in self.index.chunks:
            yield from self.chunk_block(chunk).records()

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

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def replay_trace(source: Union[BinaryIO, bytes, str],
                 *observers: TraceObserver) -> int:
    """Replay a serialized trace through *observers* one record at a
    time; returns cycles."""
    final_cycle = 0
    with TraceReader(source) as reader:
        for record in reader.records():
            final_cycle = record.cycle
            for observer in observers:
                observer.on_cycle(record)
    for observer in observers:
        observer.on_finish(final_cycle)
    return final_cycle + 1
