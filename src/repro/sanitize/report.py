"""Structured findings produced by the kernel sanitizer.

A :class:`SanitizerFinding` is one diagnosed hazard — a dynamic race
observed by the racecheck monitor, or a rule violation found by the
static lint pass.  A :class:`SanitizerReport` aggregates the findings
of a whole run (every kernel launch of a device, or every module of a
lint sweep) and is what ``KCoreDecomposer(sanitize=True)`` attaches to
``result.sanitizer``.

Detector names are a stable surface (see ``docs/SANITIZER.md``):

========================  =======  ==========================================
detector                  kind     meaning
========================  =======  ==========================================
``shared-race``           dynamic  unsynchronised cross-warp conflict on
                                   block shared memory within one barrier
                                   epoch
``global-race``           dynamic  unsynchronised cross-warp conflict on
                                   global memory (cross-block, or same block
                                   without an intervening ``__syncthreads``)
``barrier-divergence``    dynamic  warps of one block retired having passed
                                   different numbers of barrier generations
``ballot-hazard``         dynamic  ``__ballot_sync`` on a predicate derived
                                   from an unsynchronised shared-memory read
``illegal-yield``         lint     a kernel yields something other than the
                                   ``ctx.BARRIER`` / ``ctx.STEP`` sentinels
``wall-clock``            lint     ``time.*`` / ``datetime.*`` inside a
                                   kernel (breaks simulated-time determinism)
``rng``                   lint     ``random`` / ``np.random`` inside a kernel
                                   (``ctx.should_preempt`` is the sanctioned
                                   nondeterminism hook)
``host-mutation``         lint     a kernel mutates a captured host/device
                                   array directly instead of through ``ctx``
``unsynced-shared``       lint     a shared-memory write is read back on a
                                   path with no intervening barrier
``static-bound``          static   a launch's measured ``KernelStats``
                                   exceeded the variant's static resource
                                   certificate (``docs/STATIC_ANALYSIS.md``)
``static-resource``       static   a certificate's shared-memory footprint
                                   cannot fit the device's per-block capacity
``uncertified-kernel``    static   a kernel function (or call edge) is not
                                   covered by the certifier's coverage map
``unproven-race-freedom`` static   the dataflow interpreter could not
                                   discharge a conflicting access pair —
                                   absence of a proof, not presence of a race
                                   (:mod:`repro.staticheck.dataflow`)
``divergence-bound``      static   a launch's measured divergence or
                                   coalescing efficiency escaped the static
                                   bracket the dataflow certificate predicts
``engine-precondition``   static   a launch was served by an execution-engine
                                   tier other than the one the static
                                   precondition analysis proved it must use
``memory-leak``           memory   a device array was still allocated when
                                   the traced program finished
                                   (:mod:`repro.memtrace`)
``double-free``           memory   ``cudaFree`` of an already-freed (or
                                   never-allocated) device array
``use-after-free``        memory   a freed device array was read back to the
                                   host
========================  =======  ==========================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.errors import SanitizerFindingsError

__all__ = ["SanitizerFinding", "SanitizerReport", "DETECTORS"]

#: every detector name the sanitizer can emit: dynamic, lint, the
#: static certifier's (``repro.staticheck``), then the memory
#: tracker's (``repro.memtrace``)
DETECTORS: Tuple[str, ...] = (
    "shared-race",
    "global-race",
    "barrier-divergence",
    "ballot-hazard",
    "illegal-yield",
    "wall-clock",
    "rng",
    "host-mutation",
    "unsynced-shared",
    "static-bound",
    "static-resource",
    "uncertified-kernel",
    "unproven-race-freedom",
    "divergence-bound",
    "engine-precondition",
    "memory-leak",
    "double-free",
    "use-after-free",
)


@dataclass(frozen=True)
class SanitizerFinding:
    """One diagnosed hazard.

    Attributes:
        detector: which detector fired (one of :data:`DETECTORS`).
        severity: ``"error"`` (a correctness hazard) or ``"warning"``
            (suspicious but possibly intentional).
        kernel: the kernel function (dynamic) or ``module:function``
            (lint) the finding belongs to.
        message: human-readable description of the hazard.
        sites: ``file.py:line`` provenance of every involved access —
            two entries for a race (the conflicting pair), one for a
            lint violation.
    """

    detector: str
    severity: str
    kernel: str
    message: str
    sites: Tuple[str, ...] = ()

    def __str__(self) -> str:
        where = f" [{' <-> '.join(self.sites)}]" if self.sites else ""
        return (
            f"{self.severity.upper()} {self.detector} in {self.kernel}: "
            f"{self.message}{where}"
        )


@dataclass
class SanitizerReport:
    """Aggregated sanitizer outcome of one run.

    ``launches_checked`` counts kernel launches the dynamic monitor
    observed; ``modules_linted`` counts files the static pass parsed.
    A report with no findings is *clean*.
    """

    findings: List[SanitizerFinding] = field(default_factory=list)
    launches_checked: int = 0
    modules_linted: int = 0

    @property
    def clean(self) -> bool:
        """True when no detector fired."""
        return not self.findings

    @property
    def errors(self) -> List[SanitizerFinding]:
        """Findings with severity ``error``."""
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[SanitizerFinding]:
        """Findings with severity ``warning``."""
        return [f for f in self.findings if f.severity == "warning"]

    def by_detector(self) -> Dict[str, List[SanitizerFinding]]:
        """Findings grouped by detector name."""
        grouped: Dict[str, List[SanitizerFinding]] = {}
        for finding in self.findings:
            grouped.setdefault(finding.detector, []).append(finding)
        return grouped

    def extend(self, findings: List[SanitizerFinding]) -> None:
        """Append findings (deduplicating exact repeats)."""
        seen = set(self.findings)
        for finding in findings:
            if finding not in seen:
                seen.add(finding)
                self.findings.append(finding)

    def merge(self, other: "SanitizerReport") -> None:
        """Fold another report into this one (multi-device runs)."""
        self.extend(other.findings)
        self.launches_checked += other.launches_checked
        self.modules_linted += other.modules_linted

    def summary(self, label: str = "sanitizer") -> str:
        """Multi-line human-readable report; ``label`` names the tool
        that produced it (the static certifier passes ``staticheck``)."""
        header = (
            f"{label}: {len(self.findings)} finding(s) over "
            f"{self.launches_checked} launch(es), "
            f"{self.modules_linted} module(s) linted"
        )
        if self.clean:
            return header + " — clean"
        lines = [header]
        for detector, group in sorted(self.by_detector().items()):
            lines.append(f"  {detector} ({len(group)}):")
            for finding in group:
                lines.append(f"    {finding}")
        return "\n".join(lines)

    def raise_if_findings(self) -> None:
        """Raise :class:`~repro.errors.SanitizerFindingsError` unless clean."""
        if not self.clean:
            raise SanitizerFindingsError(self)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly rendering (the body of a ``repro.findings/v1``
        artifact)."""
        return {
            "clean": self.clean,
            "launches_checked": self.launches_checked,
            "modules_linted": self.modules_linted,
            "findings": [
                {
                    "detector": f.detector,
                    "severity": f.severity,
                    "kernel": f.kernel,
                    "message": f.message,
                    "sites": list(f.sites),
                }
                for f in self.findings
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        """The :meth:`to_dict` rendering as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
