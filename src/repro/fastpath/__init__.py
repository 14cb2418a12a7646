"""Columnar trace replay: chunks become blocks, not records.

The cycle engine pays a Python object and a method call per cycle per
observer; profiling long traces spends most of its time in that glue.
This package replays traces in **columnar batches** instead: each
chunk is one :class:`CycleBlock` of parallel arrays (cast in place over
the mmap-ed trace file), every observer consumes the whole block
through ``on_block``, and block-native profilers touch only the cycles
where something can happen.  Results are bit-identical to the cycle
engine for every stock observer.

See ``docs/performance.md`` for the layout and the measured speedups.
"""

from .block import CycleBlock
from .engine import (
    BLOCK_ENGINE,
    CYCLE_ENGINE,
    DEFAULT_ASSEMBLE_CYCLES,
    ENGINES,
    BlockAssembler,
    replay_blocks,
    replay_with_engine,
    validate_engine,
)

__all__ = [
    "BLOCK_ENGINE",
    "CYCLE_ENGINE",
    "DEFAULT_ASSEMBLE_CYCLES",
    "ENGINES",
    "BlockAssembler",
    "CycleBlock",
    "replay_blocks",
    "replay_with_engine",
    "validate_engine",
]
