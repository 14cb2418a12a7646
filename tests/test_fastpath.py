"""Fast-path tests: the block replay engine must be bit-identical.

The columnar engine is only a valid optimisation if every observer
produces exactly the same samples, profiles and reports as the classic
record-at-a-time replay.  These tests check that equivalence three
ways: on hypothesis-generated random traces (all profilers), on the
checked-in golden trace (both engines, every source kind), and for the
simulation-side
:class:`~repro.fastpath.BlockAssembler`.
"""

import io
import os

import pytest
from hypothesis import given, settings, strategies as st

from conftest import SEVEN_POLICIES, make_record
from repro.analysis.profiles import profile_checksum
from repro.core.baselines import SoftwareProfiler
from repro.core.oracle import OracleProfiler
from repro.core.sampling import SampleSchedule
from repro.cpu.machine import Machine
from repro.cpu.tracefile import TraceReader, TraceWriter, replay_trace
from repro.fastpath import (BlockAssembler, CycleBlock, replay_blocks,
                            validate_engine)
from repro.harness import ProfilerConfig, replay_experiment
from repro.isa import assemble
from repro.kernel import Kernel

TINY = """
.func main
    addi x1, x0, 3
loop:
    addi x1, x1, -1
    bne  x1, x0, loop
    halt
"""


def _tiny_image():
    return Kernel().boot(assemble(TINY, name="tiny.s"))


def _encode(records, banks=4, chunk_cycles=8) -> bytes:
    buffer = io.BytesIO()
    writer = TraceWriter(buffer, banks, chunk_cycles=chunk_cycles)
    for record in records:
        writer.on_cycle(record)
    writer.on_finish(records[-1].cycle)
    return buffer.getvalue()


# -- hypothesis: random traces, every profiler, both engines ---------------------


@st.composite
def _random_records(draw):
    length = draw(st.integers(1, 40))
    addr = st.integers(0, 1 << 20)
    records = []
    for cycle in range(length):
        n_commits = draw(st.integers(0, 3))
        committed = [(draw(addr) & ~3, draw(st.booleans()),
                      draw(st.booleans())) for _ in range(n_commits)]
        rob_head = (draw(addr) & ~3 if not committed
                    and draw(st.booleans()) else None)
        exception = (draw(addr) & ~3
                     if rob_head is None and not committed
                     and draw(st.booleans()) else None)
        dispatched = [draw(addr) & ~3
                      for _ in range(draw(st.integers(0, 3)))]
        records.append(make_record(
            cycle, committed=committed, rob_head=rob_head,
            exception=exception,
            exception_is_ordering=draw(st.booleans()),
            dispatched=dispatched,
            dispatch_pc=(draw(addr) & ~3
                         if draw(st.booleans()) else None),
            fetch_pc=draw(addr) & ~3, banks=4))
    return records


def _profilers_under_test(image):
    for policy in SEVEN_POLICIES:
        for mode in ("periodic", "random"):
            yield ProfilerConfig(policy, 3, mode, 11).build(image)
    yield SoftwareProfiler(SampleSchedule(3), skid_cycles=2)
    yield OracleProfiler(image)


@given(records=_random_records())
@settings(max_examples=25, deadline=None)
def test_property_block_engine_matches_cycle_engine(records):
    image = _tiny_image()
    trace = _encode(records)
    for cycle_prof, block_prof in zip(_profilers_under_test(image),
                                      _profilers_under_test(image)):
        replay_trace(trace, cycle_prof)
        replay_blocks(trace, block_prof)
        name = type(cycle_prof).__name__
        if isinstance(cycle_prof, OracleProfiler):
            assert cycle_prof.report.profile == \
                block_prof.report.profile, name
            assert cycle_prof.report.categorized == \
                block_prof.report.categorized, name
            assert cycle_prof.report.flush_breakdown == \
                block_prof.report.flush_breakdown, name
        else:
            assert profile_checksum(cycle_prof.samples) == \
                profile_checksum(block_prof.samples), name
            assert cycle_prof.profile() == block_prof.profile(), name


@given(records=_random_records())
@settings(max_examples=25, deadline=None)
def test_property_block_round_trip(records):
    trace = _encode(records)
    decoded = []
    with TraceReader(trace) as reader:
        for chunk in reader.index.chunks:
            decoded.extend(reader.chunk_block(chunk).records())
    assert len(decoded) == len(records)
    for original, copy in zip(records, decoded):
        assert copy.cycle == original.cycle
        assert copy.fetch_pc == original.fetch_pc
        assert copy.rob_head == original.rob_head
        assert copy.rob_empty == original.rob_empty
        assert copy.exception == original.exception
        assert copy.dispatch_pc == original.dispatch_pc
        assert tuple(copy.dispatched) == tuple(original.dispatched)
        assert [(c.addr, c.mispredicted, c.flushes)
                for c in copy.committed] == \
            [(c.addr, c.mispredicted, c.flushes)
             for c in original.committed]


# -- golden trace: every engine and source kind ---------------------------------


@pytest.fixture(scope="module")
def golden_path(golden, tmp_path_factory):
    """The golden trace as a file."""
    path = tmp_path_factory.mktemp("golden") / "golden.tiptrace"
    path.write_bytes(golden.trace)
    return str(path)


def _open_fds():
    return sorted(int(name) for name in os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("source", ["bytes", "stream", "path"])
@pytest.mark.parametrize("engine", ["cycle", "block"])
def test_golden_replay(golden, golden_path, engine, source):
    """Replaying the golden trace reproduces ``golden_expected.json``
    exactly -- samples, profiles and the Oracle profile -- whichever
    engine and source (bytes, a binary stream, or a path the reader
    mmaps)."""

    def replay():
        trace = {"bytes": golden.trace,
                 "stream": io.BytesIO(golden.trace),
                 "path": golden_path}[source]
        return replay_experiment(trace, golden.image, golden.configs,
                                 engine=engine)

    result = replay()
    expected = golden.expected
    assert result.stats is None
    assert result.oracle.total_cycles == expected["cycles"]
    assert set(result.profilers) == set(expected["profilers"])
    for name, want in expected["profilers"].items():
        profiler = result.profilers[name]
        assert len(profiler.samples) == want["samples"], name
        assert profile_checksum(profiler.samples) == \
            want["checksum"], name
        profile = {hex(addr): weight
                   for addr, weight in profiler.profile().items()}
        assert profile == want["profile"], name
    oracle = {hex(addr): weight
              for addr, weight in result.oracle.profile.items()}
    assert oracle == expected["oracle_profile"]

    if source == "path" and os.path.isdir("/proc/self/fd"):
        # Readers open (and mmap) a path once and close it: repeated
        # replays leave the fd table exactly as they found it.
        before = _open_fds()
        for _ in range(3):
            replay()
        assert _open_fds() == before


# -- engine selection --------------------------------------------------------------


def test_validate_engine_rejects_unknown():
    with pytest.raises(ValueError, match="unknown replay engine"):
        validate_engine("turbo")


# -- simulation-side batching ----------------------------------------------------


def test_block_assembler_matches_direct_attachment():
    def run(wrap):
        program = assemble(TINY, name="tiny.s")
        machine = Machine(program)
        profilers = list(_profilers_under_test(machine.image))
        if wrap:
            machine.attach(BlockAssembler(profilers,
                                          machine.config.rob_banks,
                                          block_cycles=16))
        else:
            for profiler in profilers:
                machine.attach(profiler)
        machine.run(10_000)
        return profilers

    for direct, batched in zip(run(False), run(True)):
        name = type(direct).__name__
        if isinstance(direct, OracleProfiler):
            assert direct.report.profile == batched.report.profile
        else:
            assert profile_checksum(direct.samples) == \
                profile_checksum(batched.samples), name


def test_block_assembler_rejects_empty_blocks():
    with pytest.raises(ValueError, match="block_cycles"):
        BlockAssembler([], 4, block_cycles=0)


def test_from_records_round_trip():
    records = [make_record(3, committed=[(0x40, True, False)],
                           dispatched=[0x44, 0x48], fetch_pc=0x4C,
                           dispatch_pc=0x44, banks=4),
               make_record(4, rob_head=0x50, fetch_pc=0x54, banks=4)]
    block = CycleBlock.from_records(records, banks=4)
    assert block.start_cycle == 3
    assert block.n == 2
    copies = list(block.records())
    assert copies[0].committed[0].addr == 0x40
    assert copies[0].committed[0].mispredicted
    assert copies[1].rob_head == 0x50
    assert not copies[1].rob_empty
