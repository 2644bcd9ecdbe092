"""Trace device memory and diff against the pinned baseline.

Re-runs every program pinned in the committed baseline
(``benchmarks/results/memory_baseline.json``) with memory telemetry
(:mod:`repro.memtrace`) and fails the build when the fresh
measurements drift from the committed ones:

1. **schema** — every fresh report must be a valid
   ``repro.memtrace/v1`` record; the validator enforces the headline
   invariant that the attribution breakdown sums *exactly* (integer
   equality) to the recorded peak;
2. **telemetry identity** — each report's peak must equal the device's
   own ``peak_memory_bytes`` (memtrace is observability-only);
3. **clean findings** — no leak / double-free / use-after-free
   findings in any traced program;
4. **exact peaks** — each program's peak bytes must equal the pinned
   value exactly; simulated memory is deterministic, so there is no
   tolerance — any drift is either a regression or a stale baseline
   (re-baseline with ``--update``);
5. **Table V ordering** — the buffering variants (Ours = SM = VP)
   must share the minimal footprint and every compaction variant must
   sit strictly above it, the paper's Table V shape;
6. **bench-JSON diff** — the fresh peaks must agree with the committed
   ``table5_memory.json`` cells (and its ``attribution`` block) for
   the baseline dataset, tying the gate to the published artefacts;
7. **OOM reproduction** — on the baseline's big graph every pinned
   system emulation must still fail fast (the paper's "N/A" cells)
   while the committed table shows the tailor-made kernel surviving
   (skipped by ``quick``, which exists for fast local runs and the
   doctored-baseline tests).

The trajectory payload is ``peaks``.  The ``memory_timelines.txt``
artifact holds the rendered allocation timelines and ``memtrace.json``
the Ours ``repro.memtrace/v1`` report.  ``update`` re-measures every
pinned program and re-pins the peaks, keeping ``ordering`` and
``oom``, instead of checking.  See the "Memory telemetry" section of
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

from _bench_common import (
    RESULTS_DIR,
    Baseline,
    Outcome,
    cells_by_dataset,
    load_record,
)

from repro.api import decompose
from repro.bench.runner import SIMULATED_HOUR_MS, run_program
from repro.graph import datasets
from repro.memtrace import MemtraceReport, validate_memtrace

BASELINE_SCHEMA = "repro.memory-baseline/v1"
_MIB = 1024 * 1024


def _measure(dataset: str, programs: List[str]) -> Dict[str, Dict[str, Any]]:
    """Run each program with memory telemetry; return peaks + reports."""
    graph = datasets.load(dataset)
    fresh: Dict[str, Dict[str, Any]] = {}
    for name in programs:
        result = decompose(graph, name, memtrace=True)
        report: MemtraceReport = result.memtrace
        fresh[name] = {
            "peak": int(report.peak_bytes),
            "device_peak": int(result.peak_memory_bytes),
            "report": report,
        }
    return fresh


def _check_program(
    name: str,
    fresh: Dict[str, Any],
    pinned: int,
    where: str,
) -> List[str]:
    problems: List[str] = []
    report: MemtraceReport = fresh["report"]
    schema_errors = validate_memtrace(report.to_json())
    problems.extend(
        f"{where}: {name}: invalid fresh memtrace: {err}"
        for err in schema_errors
    )
    if fresh["peak"] != fresh["device_peak"]:
        problems.append(
            f"{where}: {name}: telemetry peak {fresh['peak']} B disagrees "
            f"with the device's peak_memory_bytes {fresh['device_peak']} B"
        )
    for finding in report.findings:
        problems.append(
            f"{where}: {name}: memory finding: {finding}"
        )
    if fresh["peak"] != int(pinned):
        direction = (
            "memory regression" if fresh["peak"] > int(pinned)
            else "stale baseline, re-run with --update"
        )
        problems.append(
            f"{where}: {name}: peak {fresh['peak']} B != committed "
            f"{int(pinned)} B — {direction}"
        )
    return problems


def _check_ordering(
    ordering: Dict[str, Any],
    fresh: Dict[str, Dict[str, Any]],
    where: str,
) -> List[str]:
    """Table V shape: Ours = SM = VP minimal, compaction strictly above."""
    problems: List[str] = []
    tie = [n for n in ordering.get("minimal_tie", []) if n in fresh]
    above = [n for n in ordering.get("above", []) if n in fresh]
    if not tie:
        return [f"{where}: ordering.minimal_tie names no measured program"]
    tie_peaks = {n: fresh[n]["peak"] for n in tie}
    if len(set(tie_peaks.values())) != 1:
        problems.append(
            f"{where}: the buffering variants no longer tie on peak "
            f"bytes: {tie_peaks} — Table V's Ours=SM=VP column split"
        )
    floor = min(tie_peaks.values())
    for name in above:
        if fresh[name]["peak"] <= floor:
            problems.append(
                f"{where}: {name} ({fresh[name]['peak']} B) no longer "
                f"sits above the buffering variants ({floor} B) — "
                "Table V's compaction-scratch ordering flipped"
            )
    return problems


def _check_table5(
    dataset: str, fresh: Dict[str, Dict[str, Any]]
) -> List[str]:
    """Fresh peaks must agree with the committed Table V artefact."""
    table_path = RESULTS_DIR / "table5_memory.json"
    if not table_path.exists():
        return [f"table5: {table_path} missing"]
    record = load_record(table_path)
    cells = cells_by_dataset(record)
    row = cells.get(dataset)
    if row is None:
        return [f"table5: no committed row for dataset {dataset!r}"]
    problems: List[str] = []
    for name, figures in fresh.items():
        committed_text = row.get(name)
        if committed_text is None or committed_text == "N/A":
            continue
        measured_mb = f"{figures['peak'] / _MIB:.2f}"
        if measured_mb != committed_text:
            problems.append(
                f"table5: {dataset}: {name} measured {measured_mb} MB, "
                f"committed {committed_text} MB — bench JSON out of date"
            )
    attribution = record.get("attribution", {}).get(dataset, {})
    for name, entry in attribution.items():
        if name in fresh and entry.get("peak_bytes") != fresh[name]["peak"]:
            problems.append(
                f"table5: {dataset}: attribution pins {name} at "
                f"{entry.get('peak_bytes')} B, measured "
                f"{fresh[name]['peak']} B — attribution out of date"
            )
    return problems


def _check_oom(oom: Dict[str, Any]) -> List[str]:
    """The paper's N/A cells: systems fail fast on the big graph."""
    dataset = oom["dataset"]
    problems: List[str] = []
    table_path = RESULTS_DIR / "table5_memory.json"
    row: Dict[str, str] = {}
    if table_path.exists():
        row = cells_by_dataset(load_record(table_path)).get(dataset, {})
    if row and row.get("gpu-ours") in (None, "N/A"):
        problems.append(
            f"oom: {dataset}: committed table5 no longer shows gpu-ours "
            "surviving the biggest graph"
        )
    for name in oom.get("systems", []):
        outcome = run_program(name, dataset, budget_ms=SIMULATED_HOUR_MS)
        if outcome.status == "ok":
            problems.append(
                f"oom: {dataset}: {name} completed ({outcome.cell}) — the "
                "paper's failed-run (N/A) cell no longer reproduces"
            )
        if row and row.get(name) not in (None, "N/A"):
            problems.append(
                f"oom: {dataset}: committed table5 cell for {name} is "
                f"{row.get(name)!r}, expected 'N/A'"
            )
    return problems


def _artifacts(fresh: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    timelines = "\n\n".join(
        figures["report"].render() for figures in fresh.values()
    )
    name = "gpu-ours" if "gpu-ours" in fresh else next(iter(fresh))
    return {
        "memory_timelines.txt":
            lambda path: Path(path).write_text(timelines + "\n",
                                               encoding="utf-8"),
        "memtrace.json": fresh[name]["report"].write,
    }


def check(
    baseline: Baseline, quick: bool = False, update: bool = False
) -> Outcome:
    record = baseline.record
    dataset = record["dataset"]
    pinned_variants: Dict[str, int] = dict(record["variants"])
    pinned_systems: Dict[str, int] = dict(record.get("systems", {}))

    fresh_variants = _measure(dataset, list(pinned_variants))
    fresh_systems = _measure(dataset, list(pinned_systems))
    fresh = {**fresh_variants, **fresh_systems}

    if update:
        repinned = {
            **record,
            "variants": {n: f["peak"] for n, f in fresh_variants.items()},
            "systems": {n: f["peak"] for n, f in fresh_systems.items()},
        }
        return Outcome(
            [], f"wrote baseline for {len(fresh_variants)} variant(s) and "
            f"{len(fresh_systems)} system(s) to {baseline.path}",
            artifacts=_artifacts(fresh), baseline=repinned,
        )

    problems: List[str] = []
    for name, pinned in {**pinned_variants, **pinned_systems}.items():
        problems.extend(_check_program(name, fresh[name], pinned, dataset))
    problems.extend(
        _check_ordering(dict(record["ordering"]), fresh, dataset)
    )
    problems.extend(_check_table5(dataset, fresh))
    oom = record.get("oom")
    if oom is not None and not quick:
        problems.extend(_check_oom(dict(oom)))

    return Outcome(
        problems,
        f"memory regression vs {baseline.path.name} "
        f"({len(fresh)} program(s) on {dataset}): "
        f"{'FAIL (%d problem(s))' % len(problems) if problems else 'OK'}",
        trajectory={dataset: {"peaks": {
            name: figures["peak"] for name, figures in fresh.items()
        }}},
        artifacts=_artifacts(fresh),
    )
