"""The ``repro.memtrace/v1`` report: schema, rendering, validation.

A :class:`MemtraceReport` wraps the telemetry of one run's
:class:`~repro.memtrace.tracker.MemoryTracker`\\ (s) — one *worker*
section per device, so multi-GPU runs keep per-worker provenance — and
is what ``gpu_peel(memtrace=True)`` attaches to ``result.memtrace``.

``to_json()`` emits the ``repro.memtrace/v1`` record: the headline
``peak_bytes`` plus one worker per device with its base (context)
bytes, its peak and that peak's attribution breakdown, per-round
high-water marks, allocation lifetimes, shared-memory footprints,
alloc/free counts and findings.  Its shape is one spec (``_SHAPE``,
checked by :mod:`repro.obs.shape`), and :func:`validate_memtrace` keeps
only the byte arithmetic of each worker whose shape holds — above all
that the breakdown sums **exactly** (integer bytes, no tolerance) to the
peak, which is how ``result.memtrace`` is guaranteed to explain
``device.peak_memory_bytes`` rather than approximate it — plus shares
of ``bytes / peak``, breakdown entries live at the peak with their
allocation's bytes, lifetimes and high-water marks in order, and a
record peak that is the busiest worker's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.memtrace.tracker import (
    CONTEXT_NAME,
    AllocationRecord,
    MemoryTracker,
    PeakSnapshot,
    SharedFootprint,
)
from repro.obs.shape import (
    INT,
    NAT,
    NONNEG,
    NUMBER,
    STR,
    TEXT,
    nullable,
    one_of,
    shape_problems,
)
from repro.sanitize.report import SanitizerFinding

__all__ = [
    "SCHEMA_VERSION",
    "WorkerMemtrace",
    "MemtraceReport",
    "validate_memtrace",
    "validate_memtrace_file",
]

SCHEMA_VERSION = "repro.memtrace/v1"

#: detectors a memtrace finding may carry
_MEMTRACE_DETECTORS = ("memory-leak", "double-free", "use-after-free")

#: absolute slack for the share-sum check (shares are derived floats;
#: the byte sums themselves are checked exactly)
_SHARE_TOL = 1e-9


@dataclass(frozen=True)
class WorkerMemtrace:
    """One device's memory telemetry within a report."""

    worker: str
    base_bytes: int
    peak: PeakSnapshot
    rounds: Tuple[Tuple[int, int], ...]
    allocations: Tuple[AllocationRecord, ...]
    shared: Tuple[SharedFootprint, ...]
    allocs: int
    frees: int
    findings: Tuple[SanitizerFinding, ...]

    def breakdown(self) -> Dict[str, int]:
        """The peak attribution as a ``name -> bytes`` mapping."""
        return dict(self.peak.breakdown)

    def to_json(self) -> Dict[str, Any]:
        return {
            "worker": self.worker,
            "base_bytes": self.base_bytes,
            "peak": self.peak.to_json(),
            "rounds": [
                {"round": k, "high_water_bytes": high}
                for k, high in self.rounds
            ],
            "allocations": [a.to_json() for a in self.allocations],
            "shared": [s.to_json() for s in self.shared],
            "allocs": self.allocs,
            "frees": self.frees,
            "findings": [
                {
                    "detector": f.detector,
                    "severity": f.severity,
                    "kernel": f.kernel,
                    "message": f.message,
                }
                for f in self.findings
            ],
        }


@dataclass(frozen=True)
class MemtraceReport:
    """The full memory telemetry of one run; see the module docstring."""

    algorithm: Optional[str]
    variant: Optional[str]
    dataset: Optional[str]
    workers: Tuple[WorkerMemtrace, ...]

    @classmethod
    def from_trackers(
        cls,
        trackers: Sequence[MemoryTracker],
        algorithm: Optional[str] = None,
        variant: Optional[str] = None,
        dataset: Optional[str] = None,
    ) -> "MemtraceReport":
        """Fold one tracker per device into a report (multi-GPU merge)."""
        labels: Dict[str, str] = {}
        for tracker in trackers:
            labels.update(tracker.labels)
        workers = tuple(
            WorkerMemtrace(
                worker=t.worker,
                base_bytes=t.base_bytes,
                peak=t.peak,
                rounds=t.rounds(),
                allocations=t.allocations(),
                shared=t.shared_footprints(),
                allocs=t.n_allocs,
                frees=t.n_frees,
                findings=tuple(t.findings),
            )
            for t in trackers
        )
        return cls(
            algorithm=algorithm or labels.get("algorithm"),
            variant=variant or labels.get("variant"),
            dataset=dataset or labels.get("dataset"),
            workers=workers,
        )

    # -- views ----------------------------------------------------------------

    @property
    def peak_bytes(self) -> int:
        """The busiest single worker's peak (the Table V figure)."""
        return max((w.peak.bytes for w in self.workers), default=0)

    @property
    def peak_worker(self) -> Optional[WorkerMemtrace]:
        """The worker whose peak is the report's peak."""
        if not self.workers:
            return None
        return max(self.workers, key=lambda w: w.peak.bytes)

    def breakdown(self) -> Dict[str, int]:
        """Attribution of the busiest worker's peak (``name -> bytes``)."""
        worker = self.peak_worker
        return worker.breakdown() if worker is not None else {}

    @property
    def findings(self) -> Tuple[SanitizerFinding, ...]:
        """Findings across every worker."""
        return tuple(f for w in self.workers for f in w.findings)

    @property
    def clean(self) -> bool:
        """True when no memory detector fired."""
        return not self.findings

    @property
    def errors(self) -> List[SanitizerFinding]:
        """Findings with severity ``error``."""
        return [f for f in self.findings if f.severity == "error"]

    # -- export ---------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """The ``repro.memtrace/v1`` record."""
        return {
            "schema": SCHEMA_VERSION,
            "algorithm": self.algorithm,
            "variant": self.variant,
            "dataset": self.dataset,
            "peak_bytes": self.peak_bytes,
            "workers": [w.to_json() for w in self.workers],
        }

    def write(self, path: "str | Path") -> None:
        """Serialise :meth:`to_json` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=1)

    # -- human-readable timeline ----------------------------------------------

    def render(self) -> str:
        """The ``--memtrace`` console report: timeline + attribution."""
        label = self.algorithm or "run"
        if self.dataset:
            label += f" on {self.dataset}"
        lines = [
            f"Memory telemetry: {label}",
            "=" * max(24, len(label) + 18),
        ]
        mib = 1024.0 * 1024.0
        for worker in self.workers:
            peak = worker.peak
            lines.append(
                f"{worker.worker}: peak {peak.bytes / mib:.2f} MB "
                f"({peak.bytes} B) at {peak.ts_ms:.3f} ms — "
                f"{worker.allocs} alloc(s), {worker.frees} free(s)"
            )
            shares = peak.shares()
            lines.append(
                f"  {'array':<22} {'bytes':>12} {'share':>7}  "
                f"{'scope':<14} {'lifetime (ms)':<18}"
            )
            lifetimes = {a.name: a for a in worker.allocations}
            for name, nbytes in peak.breakdown:
                record = lifetimes.get(name)
                if name == CONTEXT_NAME or record is None:
                    span = "whole run"
                    scope = "-"
                else:
                    end = (
                        f"{record.free_ms:.3f}"
                        if record.free_ms is not None
                        else "live"
                    )
                    span = f"{record.alloc_ms:.3f} – {end}"
                    scope = record.scope
                lines.append(
                    f"  {name:<22} {nbytes:>12} "
                    f"{100.0 * shares.get(name, 0.0):>6.1f}%  "
                    f"{scope:<14} {span:<18}"
                )
            if worker.rounds:
                highs = [high for _, high in worker.rounds]
                lines.append(
                    f"  rounds: {len(worker.rounds)}, high-water "
                    f"{min(highs)} – {max(highs)} B"
                )
            for footprint in worker.shared:
                lines.append(
                    f"  shared: {footprint.kernel}/{footprint.name} "
                    f"{footprint.bytes_per_block} B/block x "
                    f"{footprint.blocks} block(s)"
                )
        if self.clean:
            lines.append("findings: clean")
        else:
            lines.append(f"findings: {len(self.findings)}")
            for finding in self.findings:
                lines.append(f"  {finding}")
        return "\n".join(lines)


# -- validation ---------------------------------------------------------------


_WORKER = {
    "worker": TEXT,
    "base_bytes": NAT,
    "peak": {
        "bytes": NAT,
        "ts_ms": NONNEG,
        "breakdown": [{"name": TEXT, "bytes": NAT, "share": NUMBER}],
    },
    "rounds": [{"round": INT, "high_water_bytes": NAT}],
    "allocations": [{
        "name": TEXT,
        "bytes": NAT,
        "alloc_ms": NONNEG,
        "free_ms": nullable(NUMBER),
        "scope": TEXT,
        "round": nullable(INT),
        "index": NAT,
    }],
    "shared": [
        {"kernel": TEXT, "name": TEXT, "bytes_per_block": NAT, "blocks": NAT}
    ],
    "allocs": NAT,
    "frees": NAT,
    "findings": [{
        "detector": one_of(*_MEMTRACE_DETECTORS),
        "severity": STR,
        "kernel": STR,
        "message": STR,
    }],
}
_SHAPE = {
    "schema": one_of(SCHEMA_VERSION),
    "algorithm": nullable(STR),
    "variant": nullable(STR),
    "dataset": nullable(STR),
    "peak_bytes": NAT,
    "workers": [_WORKER],
}


def _worker_problems(worker: Dict[str, Any], where: str) -> List[str]:
    """The byte arithmetic of one worker section."""
    problems: List[str] = []
    base, peak = worker["base_bytes"], worker["peak"]
    peak_bytes, breakdown = peak["bytes"], peak["breakdown"]
    if peak_bytes < base:
        problems.append(
            f"{where}: peak.bytes ({peak_bytes}) below base_bytes ({base})"
        )
    for i, item in enumerate(breakdown):
        share = item["bytes"] / peak_bytes if peak_bytes else None
        if share is not None and abs(item["share"] - share) > _SHARE_TOL:
            problems.append(
                f"{where}: peak.breakdown[{i}].share ({item['share']}) != "
                f"bytes/peak ({share})"
            )
    names = [item["name"] for item in breakdown]
    if len(set(names)) != len(names):
        problems.append(f"{where}: duplicate names in peak.breakdown")
    # the headline invariant: attribution sums EXACTLY to the peak
    total = sum(item["bytes"] for item in breakdown)
    if total != peak_bytes:
        problems.append(
            f"{where}: breakdown sums to {total} B, not the peak "
            f"({peak_bytes} B) — attribution must be exact"
        )
    share_sum = sum(float(item["share"]) for item in breakdown)
    if peak_bytes and abs(share_sum - 1.0) > 1e-6:
        problems.append(
            f"{where}: breakdown shares sum to {share_sum}, not 1"
        )
    if base and CONTEXT_NAME not in names:
        problems.append(
            f"{where}: base_bytes > 0 but no {CONTEXT_NAME!r} entry in "
            "the breakdown"
        )
    for i, alloc in enumerate(worker["allocations"]):
        if alloc["free_ms"] is not None \
                and alloc["free_ms"] < alloc["alloc_ms"]:
            problems.append(
                f"{where}: allocations[{i}] freed ({alloc['free_ms']}) "
                f"before allocated ({alloc['alloc_ms']})"
            )
    # every non-context breakdown entry must be a recorded allocation
    # that was live at the peak timestamp, with matching bytes
    allocations = {alloc["name"]: alloc for alloc in worker["allocations"]}
    for item in breakdown:
        name, alloc = item["name"], allocations.get(item["name"])
        if name == CONTEXT_NAME:
            continue
        if alloc is None:
            problems.append(
                f"{where}: breakdown entry {name!r} has no allocation "
                "record"
            )
            continue
        if alloc["bytes"] != item["bytes"]:
            problems.append(
                f"{where}: breakdown entry {name!r} ({item['bytes']} B) "
                f"disagrees with its allocation record "
                f"({alloc['bytes']} B)"
            )
        if alloc["alloc_ms"] > peak["ts_ms"]:
            problems.append(
                f"{where}: breakdown entry {name!r} allocated after "
                "the peak"
            )
        if alloc["free_ms"] is not None and alloc["free_ms"] < peak["ts_ms"]:
            problems.append(
                f"{where}: breakdown entry {name!r} freed before "
                "the peak"
            )
    for i, item in enumerate(worker["rounds"]):
        if item["high_water_bytes"] > peak_bytes:
            problems.append(
                f"{where}: rounds[{i}] high-water "
                f"({item['high_water_bytes']}) above the peak "
                f"({peak_bytes})"
            )
    return problems


def validate_memtrace(record: Any) -> List[str]:
    """Check a parsed ``repro.memtrace/v1`` record; return problems."""
    shape = shape_problems(record, _SHAPE, "")
    workers = record.get("workers") if isinstance(record, dict) else None
    problems = list(shape)
    for i, worker in enumerate(workers if isinstance(workers, list) else []):
        if not shape_problems(worker, _WORKER, f"workers[{i}]"):
            problems += _worker_problems(worker, f"workers[{i}]")
    if shape:
        return problems
    expected = max((w["peak"]["bytes"] for w in workers), default=0)
    if workers and record["peak_bytes"] != expected:
        problems.append(
            f"peak_bytes ({record['peak_bytes']}) != max worker peak "
            f"({expected})"
        )
    names = [w["worker"] for w in workers]
    if len(set(names)) != len(names):
        problems.append("duplicate worker names")
    return problems


def validate_memtrace_file(path: "str | Path") -> List[str]:
    """Validate one exported memtrace JSON file."""
    path = Path(path)
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    return [f"{path.name}: {p}" for p in validate_memtrace(record)]
