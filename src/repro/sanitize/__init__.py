"""Kernel sanitizer: race, barrier and determinism analysis.

The paper's peeling kernels are correct only under a subtle
atomic/barrier discipline — ballot-scan compaction, shared-memory
buffers, the two-stage EC compaction — and parallel peeling bugs are
silent: they produce wrong core numbers, not crashes.  This package
*checks* the discipline, two ways:

* **dynamic racecheck** (:mod:`repro.sanitize.racecheck`) — attach a
  :class:`KernelSanitizer` to a device (``Device(sanitize=True)``,
  ``gpu_peel(..., sanitize=True)``, ``KCoreDecomposer(sanitize=True)``
  or CLI ``--sanitize``) and every kernel launch keeps shadow access
  logs per barrier epoch, reporting shared- and global-memory races,
  barrier divergence and ballot hazards with ``file:line`` provenance;

* **static lint** (:mod:`repro.sanitize.lint`) — parse kernel modules
  and enforce the simulator's structural rules (legal yields, no wall
  clock, no RNG, no host-array mutation, barrier-separated shared
  read-back).  ``scripts/gate.py lint`` runs it over every shipped
  kernel in CI.

Both produce :class:`SanitizerReport` objects; a decomposition run
carries its report as ``result.sanitizer``.  See ``docs/SANITIZER.md``
for the detector catalogue and how to read or suppress findings.
"""

from repro.sanitize.lint import (
    default_kernel_paths,
    lint_file,
    lint_module,
    lint_paths,
    lint_repo,
    lint_source,
)
from repro.sanitize.findings import (
    FINDINGS_SCHEMA,
    findings_record,
    write_findings,
)
from repro.sanitize.racecheck import KernelSanitizer, LaunchMonitor
from repro.sanitize.report import DETECTORS, SanitizerFinding, SanitizerReport

__all__ = [
    "DETECTORS",
    "FINDINGS_SCHEMA",
    "KernelSanitizer",
    "LaunchMonitor",
    "SanitizerFinding",
    "SanitizerReport",
    "findings_record",
    "write_findings",
    "default_kernel_paths",
    "lint_file",
    "lint_module",
    "lint_paths",
    "lint_repo",
    "lint_source",
]
