"""Deterministic simulated shared-memory multicore.

CPU-parallel baselines (ParK, PKC, MPM) are *executed* sequentially for
determinism, but their work is attributed to simulated threads: each
algorithm tells the machine how many operations each thread performed
between barriers, and the machine charges each epoch the *maximum*
per-thread cost (the straggler) plus a synchronisation fee.  Load
imbalance, atomic contention and sync overhead — the reasons the
paper's CPU programs fall far short of 48x speedup — thus emerge from
the recorded counts rather than from nondeterministic real threading
(which the GIL would distort anyway).

Observability
-------------
When a process-wide tracer is active (:func:`repro.obs.start_tracing`)
at construction time, every barrier-delimited epoch becomes an
``epoch`` span on the ``cpu`` track of the shared timeline, annotated
with the straggler's op count and the epoch's atomic count.  The hooks
only *read* the clock; traced and untraced runs charge identical time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.multicore.costmodel import CpuCostModel
from repro.multicore.profile import (
    EpochProfile,
    MulticoreProfile,
    epoch_bound,
)
from repro.obs import active_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memtrace.tracker import MemoryTracker
    from repro.obs.tracer import Tracer

__all__ = ["SimulatedMulticore"]


class SimulatedMulticore:
    """Per-thread op accounting with barrier-delimited epochs.

    ``profile=True`` additionally records one
    :class:`~repro.multicore.profile.EpochProfile` per closed epoch
    (bound-class attribution); a ``memtracer`` receives the host-array
    allocation lifetimes reported via :meth:`track_alloc` /
    :meth:`track_free`.  Both are observability-only: they read the
    clock and the per-thread arrays without changing any charge.
    """

    def __init__(
        self,
        cost: CpuCostModel | None = None,
        threads: int | None = None,
        tracer: "Tracer | None" = None,
        profile: bool = False,
        memtracer: "MemoryTracker | None" = None,
    ) -> None:
        self.cost = cost or CpuCostModel()
        self.threads = threads if threads is not None else self.cost.threads
        self._epoch_ops = np.zeros(self.threads, dtype=np.float64)
        self._epoch_atomics = np.zeros(self.threads, dtype=np.float64)
        self.elapsed_ms = 0.0
        self.barriers = 0
        self.total_ops = 0.0
        self.total_atomics = 0.0
        self.tracer = tracer if tracer is not None else active_tracer()
        self._profile = bool(profile)
        self.epochs: List[EpochProfile] = []
        self.memtracer = memtracer

    def add_ops(self, thread: int, count: float) -> None:
        """Record ``count`` simple operations performed by ``thread``."""
        self._epoch_ops[thread] += count
        self.total_ops += count

    def add_atomics(self, thread: int, count: float) -> None:
        """Record ``count`` atomic read-modify-writes by ``thread``."""
        self._epoch_atomics[thread] += count
        self.total_atomics += count

    def spread_ops(self, count: float) -> None:
        """Record ``count`` operations divided evenly over all threads
        (for perfectly balanced phases like array initialisation)."""
        self._epoch_ops += count / self.threads
        self.total_ops += count

    def _close_epoch(self, sync: bool) -> None:
        epoch_ns = float(
            (self._epoch_ops * self.cost.op_ns
             + self._epoch_atomics * self.cost.atomic_ns).max()
        ) if self.threads else 0.0
        tr = self.tracer
        if tr is not None and (epoch_ns or sync):
            start_ms = self.elapsed_ms
            dur_ms = epoch_ns / 1e6 + (self.cost.sync_us / 1e3 if sync else 0)
            tr.span(
                "epoch", start_ms, dur_ms, cat="cpu", track="cpu",
                args={
                    "straggler_ops": float(self._epoch_ops.max())
                    if self.threads else 0.0,
                    "atomics": float(self._epoch_atomics.sum()),
                    "threads": self.threads,
                },
            )
        start_ms = self.elapsed_ms
        self.elapsed_ms += epoch_ns / 1e6
        if sync:
            self.elapsed_ms += self.cost.sync_us / 1e3
        if self._profile and (epoch_ns or sync):
            self._record_epoch(start_ms, self.elapsed_ms, sync)
        self._epoch_ops[:] = 0.0
        self._epoch_atomics[:] = 0.0

    def _record_epoch(self, start_ms: float, end_ms: float,
                      sync: bool) -> None:
        """Attribute the just-charged epoch (arrays not yet zeroed).

        The straggler's two terms are recomputed with the same float64
        operations that produced the charge, so ``compute_ns +
        atomic_ns`` reproduces the charged nanoseconds bit-for-bit —
        :func:`~repro.multicore.profile.validate_cpu_epochs` asserts
        exactly that.
        """
        if self.threads:
            combined = (self._epoch_ops * self.cost.op_ns
                        + self._epoch_atomics * self.cost.atomic_ns)
            straggler = int(combined.argmax())
            compute_ns = float(
                self._epoch_ops[straggler] * self.cost.op_ns
            )
            atomic_ns = float(
                self._epoch_atomics[straggler] * self.cost.atomic_ns
            )
        else:
            straggler, compute_ns, atomic_ns = 0, 0.0, 0.0
        self.epochs.append(EpochProfile(
            index=len(self.epochs),
            start_ms=start_ms,
            end_ms=end_ms,
            compute_ns=compute_ns,
            atomic_ns=atomic_ns,
            sync=sync,
            straggler=straggler,
            bound=epoch_bound(compute_ns, atomic_ns, sync, self.cost.sync_us),
        ))

    # -- host-array memory telemetry -----------------------------------------

    def track_alloc(self, name: str, nbytes: int) -> None:
        """Open an allocation lifetime on the attached memtracer."""
        mt = self.memtracer
        if mt is not None:
            mt.on_malloc(name, int(nbytes), self.elapsed_ms)

    def track_free(self, name: str) -> None:
        """Close an allocation lifetime on the attached memtracer."""
        mt = self.memtracer
        if mt is not None:
            mt.on_free(name, self.elapsed_ms)

    def barrier(self) -> None:
        """Close the epoch: charge the straggler thread plus sync fee."""
        self._close_epoch(sync=True)
        self.barriers += 1

    def finish(self) -> float:
        """Flush any open epoch (without a sync fee) and return total ms."""
        self._close_epoch(sync=False)
        tr = self.tracer
        if tr is not None:
            tr.add("cpu.barriers", self.barriers)
            tr.add("cpu.ops", self.total_ops)
            tr.add("cpu.atomics", self.total_atomics)
        if self.memtracer is not None:
            self.memtracer.finish(self.elapsed_ms)
        return self.elapsed_ms

    def profile_report(
        self, algorithm: Optional[str] = None
    ) -> MulticoreProfile:
        """The recorded epochs as a :class:`MulticoreProfile`."""
        return MulticoreProfile(
            algorithm=algorithm,
            threads=self.threads,
            op_ns=self.cost.op_ns,
            atomic_ns=self.cost.atomic_ns,
            sync_us=self.cost.sync_us,
            elapsed_ms=self.elapsed_ms,
            epochs=tuple(self.epochs),
        )

    def counters(self) -> Dict[str, float]:
        """Flat observability counters for this machine (``cpu.*``)."""
        return {
            "cpu.threads": float(self.threads),
            "cpu.barriers": float(self.barriers),
            "cpu.ops": float(self.total_ops),
            "cpu.atomics": float(self.total_atomics),
        }
