"""Trace serialization tests: record once, analyze many times."""

import io

import pytest

from repro.core.oracle import OracleProfiler
from repro.core.sampling import SampleSchedule
from repro.core.tip import TipProfiler
from repro.cpu.machine import Machine
from repro.cpu.trace import TraceCollector
from repro.cpu.tracefile import (DEFAULT_CHUNK_CYCLES, TraceReader,
                                 TraceWriter, replay_trace)
from repro.isa import assemble
from repro.workloads import build_workload, k_csr_flush, k_int_ilp

SRC = """
.data 0x2000 1
.func main
    addi x1, x0, 0
    addi x2, x0, 120
loop:
    lw   x3, 0x2000(x1)
    andi x1, x1, 255
    frflags x5
    addi x1, x1, 8
    addi x2, x2, -1
    bne  x2, x0, loop
    lw   x9, 0x100000(x0)
    halt
"""


@pytest.fixture(scope="module")
def recorded():
    program = assemble(SRC)
    machine = Machine(program, premapped_data=[(0x2000, 0x2200)])
    buffer = io.BytesIO()
    writer = TraceWriter(buffer, banks=4, chunk_cycles=64)
    collector = TraceCollector()
    machine.attach(writer)
    machine.attach(collector)
    machine.run()
    return buffer.getvalue(), collector, machine


def _decode(data):
    with TraceReader(data) as reader:
        return list(reader.records())


def test_round_trip_every_field(recorded):
    data, collector, _ = recorded
    decoded = _decode(data)
    assert len(decoded) == len(collector.records)
    for original, copy in zip(collector.records, decoded):
        assert copy.cycle == original.cycle
        assert copy.rob_empty == original.rob_empty
        assert copy.rob_head == original.rob_head
        assert copy.exception == original.exception
        assert copy.exception_is_ordering == original.exception_is_ordering
        assert copy.dispatch_pc == original.dispatch_pc
        assert copy.fetch_pc == original.fetch_pc
        assert copy.oldest_bank == original.oldest_bank
        assert tuple(copy.dispatched) == tuple(original.dispatched)
        assert len(copy.committed) == len(original.committed)
        for a, b in zip(original.committed, copy.committed):
            assert (a.addr, a.bank, a.mispredicted, a.flushes) == \
                (b.addr, b.bank, b.mispredicted, b.flushes)


def test_replay_reproduces_oracle_exactly(recorded):
    data, _, machine = recorded
    live_oracle = OracleProfiler(machine.image)
    from repro.cpu.trace import replay as replay_records
    # Replay from the binary stream and compare against a live pass.
    replayed_oracle = OracleProfiler(machine.image)
    replay_trace(data, replayed_oracle)
    collector_oracle = OracleProfiler(machine.image)
    # Fresh simulation for the live reference.
    rerun = Machine(assemble(SRC), premapped_data=[(0x2000, 0x2200)])
    rerun.attach(collector_oracle)
    rerun.run()
    assert replayed_oracle.report.profile == collector_oracle.report.profile
    assert replayed_oracle.report.category_totals == \
        collector_oracle.report.category_totals


def test_replay_drives_profilers(recorded):
    data, _, machine = recorded
    tip = TipProfiler(SampleSchedule(7), machine.image)
    cycles = replay_trace(data, tip)
    assert cycles > 0
    assert tip.samples
    assert tip.profile()


def test_replay_from_file(tmp_path, recorded):
    data, _, machine = recorded
    path = tmp_path / "run.tiptrace"
    path.write_bytes(data)
    tip = TipProfiler(SampleSchedule(11), machine.image)
    replay_trace(str(path), tip)
    assert tip.samples


def test_bad_magic_rejected():
    with pytest.raises(ValueError, match="not a TIP trace"):
        TraceReader(b"BOGUS123" + bytes(8))


def test_truncated_stream_rejected(recorded):
    data, _, _ = recorded
    with pytest.raises(ValueError, match="truncated"):
        TraceReader(io.BytesIO(data[:len(data) // 2 + 1]))
    with pytest.raises(ValueError, match="truncated trace header"):
        TraceReader(data[:12])


def test_compactness(recorded):
    """The binary trace is far smaller than the in-memory records."""
    data, collector, _ = recorded
    per_cycle = len(data) / len(collector.records)
    assert per_cycle < 64  # bytes/cycle, vs ~56 B the paper assumes


# -- property-based round trip -------------------------------------------------

from hypothesis import given, settings, strategies as st


@st.composite
def _random_records(draw):
    from conftest import make_record
    length = draw(st.integers(1, 30))
    records = []
    for cycle in range(length):
        n_commits = draw(st.integers(0, 4))
        committed = [(draw(st.integers(0, 1 << 48)) & ~3,
                      draw(st.booleans()), draw(st.booleans()))
                     for _ in range(n_commits)]
        rob_head = (draw(st.integers(0, 1 << 48)) & ~3
                    if draw(st.booleans()) else None)
        exception = (draw(st.integers(0, 1 << 48)) & ~3
                     if rob_head is None and not committed
                     and draw(st.booleans()) else None)
        dispatched = [draw(st.integers(0, 1 << 48)) & ~3
                      for _ in range(draw(st.integers(0, 4)))]
        records.append(make_record(
            cycle, committed=committed, rob_head=rob_head,
            exception=exception,
            exception_is_ordering=draw(st.booleans()),
            dispatched=dispatched,
            dispatch_pc=(draw(st.integers(0, 1 << 48)) & ~3
                         if draw(st.booleans()) else None),
            fetch_pc=draw(st.integers(0, 1 << 48)) & ~3,
            banks=4))
    return records


def _records_equal(a, b):
    assert a.cycle == b.cycle
    assert a.rob_empty == b.rob_empty
    assert a.rob_head == b.rob_head
    assert a.exception == b.exception
    assert a.exception_is_ordering == b.exception_is_ordering
    assert a.dispatch_pc == b.dispatch_pc
    assert a.fetch_pc == b.fetch_pc
    assert a.oldest_bank == b.oldest_bank
    assert tuple(a.dispatched) == tuple(b.dispatched)
    assert [(c.addr, c.bank, c.mispredicted, c.flushes)
            for c in a.committed] == \
        [(c.addr, c.bank, c.mispredicted, c.flushes)
         for c in b.committed]


def _write(records, chunk_cycles):
    buffer = io.BytesIO()
    writer = TraceWriter(buffer, banks=4, chunk_cycles=chunk_cycles)
    for record in records:
        writer.on_cycle(record)
    writer.on_finish(records[-1].cycle if records else 0)
    return buffer.getvalue()


@given(records=_random_records())
@settings(max_examples=40, deadline=None)
def test_property_round_trip(records):
    """Every field survives a round trip at the default chunk size."""
    decoded = _decode(_write(records, DEFAULT_CHUNK_CYCLES))
    assert len(decoded) == len(records)
    for original, copy in zip(records, decoded):
        _records_equal(original, copy)


@given(records=_random_records(), chunk_cycles=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_property_chunked_round_trip(records, chunk_cycles):
    """Every field survives a round trip, whatever the chunk size."""
    decoded = _decode(_write(records, chunk_cycles))
    assert len(decoded) == len(records)
    for original, copy in zip(records, decoded):
        _records_equal(original, copy)


@given(records=_random_records(), chunk_cycles=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_property_index_and_chunks(records, chunk_cycles):
    """The chunk directory tiles the trace: dense cycle ranges, and
    every chunk decodes on its own."""
    with TraceReader(_write(records, chunk_cycles)) as reader:
        index = reader.index
        assert index.banks == 4
        assert index.chunk_cycles == chunk_cycles
        assert index.total_records == len(records)
        rebuilt = []
        expected_start = 0
        for chunk in index.chunks:
            assert chunk.start_cycle == expected_start
            assert 0 < chunk.n_records <= chunk_cycles
            expected_start += chunk.n_records
            rebuilt.extend(reader.chunk_block(chunk).records())
    assert len(rebuilt) == len(records)
    for original, copy in zip(records, rebuilt):
        _records_equal(original, copy)


# -- mmap, layout and chunk edge cases ------------------------------------------

import os
import tempfile


@given(records=_random_records(), chunk_cycles=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_property_v3_mmap_round_trip(records, chunk_cycles):
    """An mmap-ed file decodes to the written records, and the layout
    invariants hold: 8-aligned chunk payloads of 8-aligned size."""
    data = _write(records, chunk_cycles)
    fd, path = tempfile.mkstemp(suffix=".tiptrace")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        with TraceReader(path) as reader:
            assert reader.index.total_records == len(records)
            for chunk in reader.index.chunks:
                assert chunk.offset % 8 == 0
                assert chunk.payload_bytes % 8 == 0
            decoded = list(reader.records())
    finally:
        os.unlink(path)
    assert len(decoded) == len(records)
    for original, copy in zip(records, decoded):
        _records_equal(original, copy)


def test_v3_empty_trace():
    """A trace with zero records is just the 16-byte header."""
    data = _write([], 8)
    assert len(data) == 16
    with TraceReader(data) as reader:
        assert reader.index.total_records == 0
        assert reader.index.chunks == []
        assert list(reader.records()) == []


def test_v3_single_cycle_chunks():
    """chunk_cycles=1 degenerates to one record per chunk."""
    from conftest import make_record
    records = [make_record(c, fetch_pc=0x1000 + 4 * c, banks=4)
               for c in range(5)]
    data = _write(records, 1)
    with TraceReader(data) as reader:
        assert len(reader.index.chunks) == 5
        assert all(chunk.n_records == 1
                   for chunk in reader.index.chunks)
        decoded = list(reader.records())
    for original, copy in zip(records, decoded):
        _records_equal(original, copy)


def test_v3_stall_run_split_across_chunks():
    """A batched stall run ending mid-chunk splits losslessly."""
    from conftest import make_record
    stall = make_record(0, rob_head=0x4000, fetch_pc=0x4000, banks=4)
    tail = make_record(0, committed=[(0x4000, False, False)],
                       fetch_pc=0x4004, banks=4)
    buffer = io.BytesIO()
    writer = TraceWriter(buffer, banks=4, chunk_cycles=4)
    writer.on_stall_run(stall, 10)  # spans chunks 0..2
    writer.on_cycle(tail)
    writer.on_finish(10)
    with TraceReader(buffer.getvalue()) as reader:
        assert [chunk.n_records for chunk in reader.index.chunks] == \
            [4, 4, 3]
        decoded = list(reader.records())
    assert len(decoded) == 11
    # Cycles are reconstructed densely from the chunk start; every
    # other field round-trips the run's template record.
    expected = [make_record(c, rob_head=0x4000, fetch_pc=0x4000,
                            banks=4) for c in range(10)]
    expected.append(make_record(10, committed=[(0x4000, False, False)],
                                fetch_pc=0x4004, banks=4))
    for original, copy in zip(expected, decoded):
        _records_equal(original, copy)


# -- retired formats --------------------------------------------------------------


@pytest.mark.parametrize("magic,version", [(b"TIPTRC01", 1),
                                           (b"TIPTRC02", 2)])
def test_reader_rejects_retired_formats(magic, version):
    """v1 and v2 traces are refused by name, not misread."""
    with pytest.raises(ValueError,
                       match=f"format v{version} is no longer supported"):
        TraceReader(magic + bytes(8))


def test_zlib_flag_rejected(recorded):
    """A header with the retired zlib flag is refused, not misread."""
    data, _, _ = recorded
    flagged = bytearray(data)
    flagged[9] |= 1  # file-header flags byte, bit 0: zlib payloads
    with pytest.raises(ValueError, match="zlib"):
        TraceReader(bytes(flagged))


def test_v3_replay_drives_profilers(recorded):
    """Replaying the recorded trace samples exactly what a profiler
    attached to the live simulation samples."""
    data, _, _ = recorded
    rerun = Machine(assemble(SRC), premapped_data=[(0x2000, 0x2200)])
    live_tip = TipProfiler(SampleSchedule(7), rerun.image)
    rerun.attach(live_tip)
    rerun.run()
    replayed_tip = TipProfiler(SampleSchedule(7), rerun.image)
    assert replay_trace(data, replayed_tip) > 0
    assert [(s.cycle, s.weights) for s in live_tip.samples] == \
        [(s.cycle, s.weights) for s in replayed_tip.samples]
