"""Full-telemetry run reports over the small-graph matrix.

For each dataset the gate runs every matrix algorithm with *all* of its
telemetry on (trace + profile + memtrace, per the ``repro.api``
capability sets), merges the results into one unified
``repro.runreport/v1`` record (:mod:`repro.obs.runreport`), and fails
the build when:

1. **schema + invariants** — the report must validate: every
   cross-layer consistency invariant (memtrace peak == result peak,
   profile cycles == trace kernel-span cycles == host counters,
   multicore epochs tiling the timeline, disk page-in arithmetic) must
   hold *exactly* — no tolerance;
2. **byte-identity** — an uninstrumented rerun of each algorithm must
   produce byte-identical cores, simulated milliseconds and counters
   (telemetry is observability-only by contract);
3. **coverage** — each report must actually contain the verticals the
   matrix promises (a GPU section with kernels, a multicore section
   with epochs, a disk section with ``disk.*`` counters), so a silently
   dropped producer cannot pass.

The default matrix is ``web-Google`` x (``gpu-ours``, ``pkc``,
``semi-external``) — one GPU kernel run, one multicore baseline, one
semi-external disk run per report.  The trajectory payload is
``runreport``; the ``runreport.json`` artifact is the last dataset's
report.  See the "Run reports" section of ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from _bench_common import ConfigError, Outcome, check_byte_identity

from repro.graph.datasets import load as load_dataset
from repro.obs.runreport import collect_run_report

DEFAULT_DATASETS = ("web-Google",)
#: one GPU kernel run, one multicore baseline, one semi-external disk
#: run — the three telemetry verticals a unified report must merge
DEFAULT_ALGORITHMS = ("gpu-ours", "pkc", "semi-external")


def _invariant_count(record: Dict[str, Any]) -> int:
    """How many cross-layer checks the validator applied to ``record``.

    Mirrors the key-presence gating of
    :func:`repro.obs.runreport.validate_runreport` so the trajectory
    records how much was actually verified, not just that nothing
    failed.
    """
    count = 0
    for sec in record.get("sections", []):
        counters = sec.get("counters", {})
        count += 1  # host.rounds == rounds
        if sec.get("memtrace") is not None:
            count += 2  # memtrace validator + peak equality
        if sec.get("profile") is not None:
            count += 1  # profile validator
        if "kernel.scan.cycles" in counters:
            count += 6  # cycles x2 layers x2 kernels, launches, served
        if sec.get("critpath") is not None:
            count += 4  # critpath validator, clock, kernel agreement x2
        if sec.get("multicore") is not None:
            count += 4  # tiling, end re-derivation, bounds, barriers
        if "disk.passes" in counters:
            count += 3  # page-in arithmetic, stats, trace peak
    return count


def _check_coverage(
    record: Dict[str, Any], algorithms: List[str], where: str
) -> List[str]:
    """The report must contain the verticals the matrix promises."""
    problems: List[str] = []
    sections = {s.get("algorithm"): s for s in record.get("sections", [])}
    missing = [a for a in algorithms if a not in sections]
    if missing:
        problems.append(f"{where}: missing section(s): {missing}")
        return problems
    checks = (
        ("a GPU kernel profile",
         any(s.get("profile", {} ) and s["profile"].get("kernels")
             for s in sections.values() if s.get("profile"))),
        ("a multicore epoch profile",
         any(s.get("multicore", {}).get("epochs")
             for s in sections.values() if s.get("multicore"))),
        ("disk.* I/O counters",
         any("disk.passes" in s.get("counters", {})
             for s in sections.values())),
        ("memtrace attribution on every section",
         all(s.get("memtrace") is not None for s in sections.values())),
        ("a trace summary on every section",
         all(s.get("trace") is not None for s in sections.values())),
    )
    for label, present in checks:
        if not present:
            problems.append(f"{where}: report lacks {label}")
    return problems


def check(
    datasets: Sequence[str] = DEFAULT_DATASETS,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
) -> Outcome:
    names, algorithms = list(datasets), list(algorithms)
    if not names or not algorithms:
        raise ConfigError("need at least one dataset and one algorithm")

    problems: List[str] = []
    trajectory: Dict[str, Dict[str, Any]] = {}
    last_report = None
    checked = 0
    for dataset in names:
        try:
            graph = load_dataset(dataset)
        except Exception:
            raise ConfigError(f"unknown dataset {dataset!r}") from None
        report, results = collect_run_report(
            graph, algorithms, dataset=dataset
        )
        record = report.to_json()
        last_report = report
        problems.extend(
            f"{dataset}: {err}" for err in report.validate()
        )
        problems.extend(_check_coverage(record, algorithms, dataset))
        for result in results:
            problems.extend(check_byte_identity(
                graph, result.algorithm, result,
                f"{dataset}: {result.algorithm}", "telemetry",
            ))
        count = _invariant_count(record)
        checked += count
        trajectory[dataset] = {"runreport": {
            "sections": {
                sec["algorithm"]: {
                    "simulated_ms": round(sec["simulated_ms"], 4),
                    "peak_memory_bytes": sec["peak_memory_bytes"],
                }
                for sec in record.get("sections", [])
            },
            "invariants_checked": count,
        }}

    return Outcome(
        problems,
        f"run reports ({len(names)} dataset(s) x {len(algorithms)} "
        f"algorithm(s), {checked} invariant(s) checked): "
        f"{'FAIL (%d problem(s))' % len(problems) if problems else 'OK'}",
        trajectory=trajectory,
        artifacts={"runreport.json": last_report.write},
    )
