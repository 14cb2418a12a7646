"""The picklable program recipe shipped to worker processes.

Program objects do not cross process boundaries: they carry
non-picklable semantic callables and are cheap and deterministic to
rebuild.  A :class:`ProgramSpec` names the program instead; the job
server's workers rebuild it with
:func:`repro.serve.jobs.resolve_program`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ProgramSpec:
    """Recipe for rebuilding a program in a worker."""

    kind: str  # "asm" | "workload" | "imagick"
    source: str = ""  # assembly text, or the benchmark name
    name: str = "program"
    scale: float = 1.0
    optimized: bool = False
    premap_all: bool = False
