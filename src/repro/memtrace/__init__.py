"""Memory telemetry for the simulated GPU stack.

``repro.memtrace`` gives device memory the same first-class
observability that simulated time got from :mod:`repro.profile`: every
allocation's lifetime, per-round high-water marks, and — the headline —
an exact attribution breakdown of ``GlobalMemory.peak``, so the
Table V figures are explainable per variant and per system emulation
instead of being one opaque scalar.

Enable it anywhere in the stack:

* ``Device(memtrace=True)`` — attach a
  :class:`~repro.memtrace.tracker.MemoryTracker` to one device;
* ``gpu_peel(graph, memtrace=True)`` /
  ``KCoreDecomposer(mode="simulate", memtrace=True)`` — the report
  lands on ``result.memtrace``;
* the system emulations (``gunrock_decompose(memtrace=True)``, ...)
  and ``multi_gpu_peel(memtrace=True)`` (one worker section per GPU);
* CLI ``--memtrace [FILE]`` for any algorithm in
  ``repro.api.CAPABILITIES["memtrace"]``.

Like every observability layer here, memtrace never perturbs the run:
simulated time, counters, core numbers, and the peak itself are
byte-identical with tracking on or off.  See the "Memory telemetry"
section of ``docs/OBSERVABILITY.md``.
"""

from repro.memtrace.report import (
    SCHEMA_VERSION,
    MemtraceReport,
    WorkerMemtrace,
    validate_memtrace,
    validate_memtrace_file,
)
from repro.memtrace.tracker import (
    AllocationRecord,
    MemoryTracker,
    PeakSnapshot,
    SharedFootprint,
)

__all__ = [
    "SCHEMA_VERSION",
    "AllocationRecord",
    "MemoryTracker",
    "MemtraceReport",
    "PeakSnapshot",
    "SharedFootprint",
    "WorkerMemtrace",
    "validate_memtrace",
    "validate_memtrace_file",
]
