"""Exception hierarchy for the ``repro`` package.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch a single base class at API boundaries.  Simulated-hardware
failures (device out-of-memory, block-buffer overflow, simulated-time
budget exceeded) are modelled as exceptions because the paper reports them
as experiment outcomes ("OOM", "> 1hr" in Tables III-V).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphFormatError(ReproError):
    """An input edge list or graph file could not be parsed."""


class GraphValidationError(ReproError):
    """A graph object violates a structural invariant (e.g. bad offsets)."""


class UnknownDatasetError(ReproError, KeyError):
    """A dataset name is not present in the dataset registry."""


class UnknownAlgorithmError(ReproError, KeyError):
    """An algorithm name is not present in the algorithm registry."""


class DeviceError(ReproError):
    """Base class for simulated-GPU failures."""


class DeviceSpecError(DeviceError, ValueError):
    """A :class:`~repro.gpusim.spec.DeviceSpec` is statically invalid.

    Raised at construction time (``__post_init__``) — for instance when
    the per-block shared buffers plus the SM/VP/EC staging arrays the
    kernel variants allocate cannot fit ``shared_memory_per_block_bytes``.
    Catching this at spec-build time replaces the late dynamic
    :class:`SharedMemoryExhaustedError` mid-run.  Also derives from
    :class:`ValueError` so callers that treated spec validation errors
    generically keep working.
    """


class DeviceOutOfMemoryError(DeviceError):
    """A ``malloc`` on the simulated device exceeded its global memory.

    Mirrors the "OOM" outcomes of Tables III and V in the paper.
    """

    def __init__(self, requested: int, in_use: int, capacity: int) -> None:
        self.requested = requested
        self.in_use = in_use
        self.capacity = capacity
        super().__init__(
            f"device OOM: requested {requested} B with {in_use} B already "
            f"allocated of {capacity} B capacity"
        )


class InvalidFreeError(DeviceError):
    """A ``free`` on the simulated device named no live allocation.

    ``kind`` is ``"double"`` when the name was allocated and already
    freed (a double free) and ``"unknown"`` when it was never allocated
    at all.  Mirrors the undefined behaviour a real ``cudaFree`` of a
    stale or garbage pointer invokes; the simulator diagnoses it as a
    typed error instead, and the memory tracker
    (:mod:`repro.memtrace`) additionally surfaces it as a
    ``double-free`` sanitizer finding.
    """

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        what = (
            "double free of device array"
            if kind == "double"
            else "free of unknown device array"
        )
        super().__init__(f"invalid free: {what} {name!r}")


class BufferOverflowError(DeviceError):
    """A per-block vertex buffer overflowed its fixed capacity.

    The paper's basic kernel asserts on this condition (Section IV-C);
    the ring-buffer organisation postpones but does not eliminate it.
    """

    def __init__(self, block: int, capacity: int) -> None:
        self.block = block
        self.capacity = capacity
        super().__init__(
            f"buffer of block {block} overflowed its capacity of "
            f"{capacity} vertex slots"
        )


class SharedMemoryExhaustedError(DeviceError, MemoryError):
    """A shared-memory allocation exceeded the block's capacity.

    The paper's SM variant sizes its buffer ``B`` against the 96 KB of
    shared memory a P100 block may use (Section IV-B); asking for more
    is a compile-time failure on the real device and this error on the
    simulator.  Also derives from :class:`MemoryError` so callers that
    treated the old untyped exception keep working.
    """

    def __init__(self, block: int, name: str, requested: int,
                 in_use: int, capacity: int) -> None:
        self.block = block
        self.name = name
        self.requested = requested
        self.in_use = in_use
        self.capacity = capacity
        super().__init__(
            f"block {block}: shared memory exhausted allocating {name!r} "
            f"({requested} B requested, {in_use} B in use of {capacity} B)"
        )


class SimulatedTimeLimitExceeded(ReproError):
    """A program exceeded its simulated-time budget.

    Mirrors the "> 1hr" force-terminations of Tables III and IV.
    """

    def __init__(self, elapsed_ms: float, budget_ms: float) -> None:
        self.elapsed_ms = elapsed_ms
        self.budget_ms = budget_ms
        # the shortest round-trip form: simulated runs here take well
        # under a millisecond, which a fixed precision would print as 0
        super().__init__(
            f"simulated time {float(elapsed_ms)!r} ms exceeded budget "
            f"{float(budget_ms)!r} ms"
        )


class SanitizerFindingsError(ReproError):
    """A sanitized run produced findings and the caller asked to fail.

    Raised by :meth:`repro.sanitize.SanitizerReport.raise_if_findings`;
    carries the report so CI logs show every finding, not just a count.
    """

    def __init__(self, report) -> None:
        self.report = report
        super().__init__(
            f"kernel sanitizer reported {len(report.findings)} finding(s):\n"
            + report.summary()
        )


class KernelDeadlockError(DeviceError):
    """The cooperative scheduler detected a barrier that can never be
    satisfied (e.g. some warps exited while others wait at
    ``__syncthreads``) — the failure mode the paper warns about when
    discussing Line 7/8 ordering of Algorithm 3."""
