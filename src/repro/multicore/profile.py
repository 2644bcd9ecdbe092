"""Per-epoch bound-class attribution for the simulated multicore.

The GPU side has a roofline profiler (:mod:`repro.profile`) that labels
every kernel launch compute-, memory- or latency-bound.  This module is
the multicore counterpart: when a :class:`~repro.multicore.machine.
SimulatedMulticore` is built with ``profile=True`` it records one
:class:`EpochProfile` per barrier-delimited epoch, splitting the
straggler thread's charge into its plain-op and atomic components and
classifying the epoch as ``compute``-, ``atomic``- or ``sync``-bound
(ties resolve in that priority order).

The attribution is *reconstructive*, not sampled: ``compute_ns`` and
``atomic_ns`` are the exact straggler terms the machine summed when it
charged the epoch, so ``compute_ns + atomic_ns`` equals the epoch's
charged nanoseconds bit-for-bit, and the epoch interval
``[start_ms, end_ms)`` is read straight off the machine's clock.
:func:`validate_cpu_epochs` checks the record's shape against one spec
(:mod:`repro.obs.shape`) and keeps only the arithmetic that leans on
both: epochs must tile ``[0, elapsed_ms)`` contiguously, and every
epoch's end must re-derive from its start and its terms with **no
tolerance**, its bound through :func:`epoch_bound`, the function the
machine labels it with.
Profiling is observability-only — it reads the clock and the per-thread
arrays, and never changes what the machine charges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.shape import (
    BOOL,
    NAT,
    NONNEG,
    NUMBER,
    STR,
    MapOf,
    nullable,
    one_of,
    shape_problems,
)

__all__ = [
    "EpochProfile",
    "MulticoreProfile",
    "SCHEMA_VERSION",
    "validate_cpu_epochs",
]

SCHEMA_VERSION = "repro.cpu-epochs/v1"

#: bound classes in tie-break priority order
BOUND_CLASSES = ("compute", "atomic", "sync")


def epoch_bound(
    compute_ns: float, atomic_ns: float, sync: bool, sync_us: float
) -> str:
    """The largest of an epoch's three terms (the sync term is
    ``sync_us * 1000`` when the epoch ended at a barrier), ties
    resolving in :data:`BOUND_CLASSES` order."""
    sync_ns = sync_us * 1000.0 if sync else 0.0
    terms = zip(BOUND_CLASSES, (compute_ns, atomic_ns, sync_ns))
    return max(terms, key=lambda kv: kv[1])[0]


def _histogram(bounds: Iterable[str]) -> Dict[str, int]:
    hist = {name: 0 for name in BOUND_CLASSES}
    for bound in bounds:
        hist[bound] += 1
    return hist


@dataclass(frozen=True)
class EpochProfile:
    """One barrier-delimited epoch's attribution.

    ``compute_ns``/``atomic_ns`` are the straggler thread's two charge
    terms (``ops * op_ns`` and ``atomics * atomic_ns``); ``sync`` marks
    whether the epoch ended at a barrier and therefore also charged the
    cost model's sync fee.  ``bound`` is the largest of the three terms
    (sync term = ``sync_us * 1000``), ties resolving compute > atomic >
    sync.
    """

    index: int
    start_ms: float
    end_ms: float
    compute_ns: float
    atomic_ns: float
    sync: bool
    straggler: int
    bound: str

    def to_json(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "compute_ns": self.compute_ns,
            "atomic_ns": self.atomic_ns,
            "sync": self.sync,
            "straggler": self.straggler,
            "bound": self.bound,
        }


@dataclass(frozen=True)
class MulticoreProfile:
    """A run's epoch timeline plus the cost constants needed to check it."""

    algorithm: Optional[str]
    threads: int
    op_ns: float
    atomic_ns: float
    sync_us: float
    elapsed_ms: float
    epochs: Tuple[EpochProfile, ...]

    def bound_histogram(self) -> Dict[str, int]:
        """Epoch counts per bound class (all classes present, maybe 0)."""
        return _histogram(epoch.bound for epoch in self.epochs)

    def to_json(self) -> Dict[str, Any]:
        """The ``repro.cpu-epochs/v1`` record."""
        return {
            "schema": SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "threads": self.threads,
            "op_ns": self.op_ns,
            "atomic_ns": self.atomic_ns,
            "sync_us": self.sync_us,
            "elapsed_ms": self.elapsed_ms,
            "epochs": [e.to_json() for e in self.epochs],
            "bound_histogram": self.bound_histogram(),
        }

    def write(self, path: str) -> None:
        """Serialise :meth:`to_json` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=1)

    def render(self) -> str:
        """Console table: one row per epoch plus the bound histogram."""
        label = self.algorithm or "multicore run"
        lines = [
            f"Multicore epoch profile: {label} "
            f"({self.threads} thread(s), {len(self.epochs)} epoch(s), "
            f"{self.elapsed_ms:.3f} ms)",
            f"  {'epoch':>5} {'start ms':>10} {'dur ms':>10} "
            f"{'compute ns':>12} {'atomic ns':>11} {'sync':>5} "
            f"{'bound':<8}",
        ]
        for e in self.epochs:
            lines.append(
                f"  {e.index:>5} {e.start_ms:>10.4f} "
                f"{e.end_ms - e.start_ms:>10.4f} "
                f"{e.compute_ns:>12.1f} {e.atomic_ns:>11.1f} "
                f"{'yes' if e.sync else 'no':>5} {e.bound:<8}"
            )
        hist = self.bound_histogram()
        lines.append(
            "  bound classes: "
            + ", ".join(f"{k}={v}" for k, v in hist.items())
        )
        return "\n".join(lines)


_SHAPE = {
    "schema": one_of(SCHEMA_VERSION),
    "algorithm": nullable(STR),
    "threads": NAT,
    "op_ns": NONNEG,
    "atomic_ns": NONNEG,
    "sync_us": NONNEG,
    "elapsed_ms": NUMBER,
    "epochs": [{
        "index": NAT,
        "start_ms": NUMBER,
        "end_ms": NUMBER,
        "compute_ns": NONNEG,
        "atomic_ns": NONNEG,
        "sync": BOOL,
        "straggler": NAT,
        "bound": one_of(*BOUND_CLASSES),
    }],
    "bound_histogram": MapOf(NAT),
}


def validate_cpu_epochs(record: Any) -> List[str]:
    """Check a parsed ``repro.cpu-epochs/v1`` record; return problems.

    Every check is exact: the epochs tile ``[0, elapsed_ms)``, each
    epoch's end re-derives from its start, its straggler terms and the
    sync fee, and its bound and the histogram re-derive as the machine
    derived them.
    """
    problems = shape_problems(record, _SHAPE, "")
    if problems:
        return problems
    epochs, sync_us, clock = record["epochs"], record["sync_us"], 0.0
    for i, epoch in enumerate(epochs):
        here = f"epochs[{i}]"
        if epoch["index"] != i:
            problems.append(f"{here}: index {epoch['index']!r} != {i}")
        start = epoch["start_ms"]
        if start != clock:
            problems.append(
                f"{here}: starts at {start!r}, previous epoch ended at "
                f"{clock!r} (epochs must tile the timeline)"
            )
        end = start + (epoch["compute_ns"] + epoch["atomic_ns"]) / 1e6
        if epoch["sync"]:
            end += sync_us / 1e3
        if end != epoch["end_ms"]:
            problems.append(
                f"{here}: end_ms {epoch['end_ms']!r} does not "
                f"re-derive from start + straggler terms ({end!r})"
            )
        bound = epoch_bound(
            epoch["compute_ns"], epoch["atomic_ns"], epoch["sync"], sync_us
        )
        if epoch["bound"] != bound:
            problems.append(
                f"{here}: bound {epoch['bound']!r} != re-derived {bound!r}"
            )
        clock = epoch["end_ms"]
    if epochs and clock != record["elapsed_ms"]:
        problems.append(
            f"last epoch ends at {clock!r}, elapsed_ms is "
            f"{record['elapsed_ms']!r}"
        )
    derived = _histogram(epoch["bound"] for epoch in epochs)
    if record["bound_histogram"] != derived:
        problems.append(
            f"bound_histogram {record['bound_histogram']!r} != re-derived "
            f"{derived!r}"
        )
    return problems
