"""The unified ``repro.runreport/v1`` per-run artifact.

A :class:`RunReport` merges every observability vertical — trace
counters, the roofline profile, the multicore epoch profile, memory
telemetry, sanitizer/staticheck findings, disk-I/O counters, and
engine/serving attribution — into one JSON record per run, with one
*section* per :class:`~repro.result.DecompositionResult`.  A single
report can therefore cover a GPU peel, a multicore baseline, and the
semi-external disk path side by side (``python -m repro --report
--algorithm gpu-ours,pkc,semi-external``).

What makes the report more than a bundle is
:func:`validate_runreport`: the validator re-derives every figure that
two layers report independently and requires them to agree **exactly**
(no tolerance).  The invariants only compare quantities produced by
the *same* float operations in the *same* order (or integer-valued
quantities), so exact equality is the correct contract — any drift
means an instrumentation bug, not rounding:

* ``memtrace.peak_bytes == peak_memory_bytes`` (and the embedded
  memtrace/profile records must pass their own validators);
* per-kernel profile cycles == the host's ``kernel.<k>.cycles``
  counters == the summed kernel-span cycles in the trace;
* scan+loop launch counters == ``device.kernel_launches`` == the sum
  of the per-tier ``engine.served.*`` attribution;
* multicore epochs tile ``[0, simulated_ms)`` contiguously, each
  epoch's end re-derives from its start + straggler terms + sync fee,
  and its bound class re-derives from the same terms;
* ``disk.page_in_bytes == disk.passes * disk.resident_peak_bytes``,
  and the traced ``disk.resident_bytes`` counter track peaks at
  exactly the resident high-water counter.

``repro obs diff OLD.json NEW.json`` (see :func:`diff_runreports`)
compares two reports section by section and flags regressions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SCHEMA_VERSION",
    "RunReport",
    "section_from_result",
    "validate_runreport",
    "render_runreport",
    "diff_runreports",
    "collect_run_report",
]

SCHEMA_VERSION = "repro.runreport/v1"

#: multicore epoch bound classes, in tie-break priority order (must
#: match :data:`repro.multicore.profile.BOUND_CLASSES`)
_EPOCH_BOUNDS = ("compute", "atomic", "sync")


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays and tuples to JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _findings_summary(report: Any) -> Dict[str, Any]:
    """Compress a SanitizerReport-shaped object into counts."""
    record = report.to_dict()
    findings = record.get("findings", [])
    return {
        "clean": bool(record.get("clean", not findings)),
        "findings": len(findings),
        "errors": sum(1 for f in findings if f.get("severity") == "error"),
        "detectors": sorted({f["detector"] for f in findings}),
    }


def _trace_summary(trace: Any) -> Dict[str, Any]:
    """Fold a Tracer's events into the cross-checkable totals.

    ``kernel_span_cycles`` accumulates each kernel's span ``cycles``
    args in emission order — the same left-fold the host loop uses for
    its ``kernel.*.cycles`` counters, so the validator can require
    exact equality.  ``counter_track_peaks`` keeps the max sample per
    counter track (e.g. ``disk.resident_bytes``).
    """
    spans = 0
    kernel_cycles: Dict[str, float] = {}
    track_peaks: Dict[str, float] = {}
    for event in trace.events:
        kind = event["kind"]
        if kind == "span":
            spans += 1
            if event.get("cat") == "kernel":
                name = event["name"]
                cycles = event["args"].get("cycles")
                if cycles is not None:
                    kernel_cycles[name] = (
                        kernel_cycles.get(name, 0.0) + cycles
                    )
        elif kind == "counter":
            name = event["name"]
            value = float(event["value"])
            if name not in track_peaks or value > track_peaks[name]:
                track_peaks[name] = value
    return {
        "events": len(trace.events),
        "spans": spans,
        "kernel_span_cycles": kernel_cycles,
        "counter_track_peaks": track_peaks,
    }


def section_from_result(result: Any) -> Dict[str, Any]:
    """One report section from a :class:`~repro.result.
    DecompositionResult` — pure observation, no re-computation."""
    counters = {str(k): float(v) for k, v in result.counters.items()}
    section: Dict[str, Any] = {
        "algorithm": result.algorithm,
        "simulated_ms": float(result.simulated_ms),
        "peak_memory_bytes": int(result.peak_memory_bytes),
        "rounds": int(result.rounds),
        "num_vertices": int(result.num_vertices),
        "kmax": int(result.kmax),
        "counters": counters,
        "stats": _jsonable(dict(result.stats)),
        "profile": None,
        "multicore": None,
        "memtrace": None,
        "sanitizer": None,
        "staticheck": None,
        "trace": None,
        "engine": None,
        "critpath": None,
    }
    profile = result.profile
    if profile is not None:
        record = profile.to_json()
        if record.get("schema") == "repro.cpu-epochs/v1":
            section["multicore"] = record
        else:
            section["profile"] = record
    if result.memtrace is not None:
        section["memtrace"] = result.memtrace.to_json()
    if result.critpath is not None:
        section["critpath"] = result.critpath.to_json()
    if result.sanitizer is not None:
        section["sanitizer"] = _findings_summary(result.sanitizer)
    if result.staticheck is not None:
        section["staticheck"] = _findings_summary(result.staticheck)
    if result.trace is not None:
        section["trace"] = _trace_summary(result.trace)
    served = {
        name.split("engine.served.", 1)[1]: value
        for name, value in counters.items()
        if name.startswith("engine.served.")
    }
    engine_name = result.stats.get("engine") if result.stats else None
    if engine_name is not None or served:
        section["engine"] = {"name": engine_name, "served": served}
    return section


@dataclass(frozen=True)
class RunReport:
    """The unified per-run artifact; see the module docstring."""

    dataset: Optional[str] = None
    sections: Tuple[Dict[str, Any], ...] = field(default_factory=tuple)

    @classmethod
    def from_result(
        cls, result: Any, dataset: Optional[str] = None
    ) -> "RunReport":
        """A single-section report for one result."""
        return cls.from_results([result], dataset=dataset)

    @classmethod
    def from_results(
        cls, results: Sequence[Any], dataset: Optional[str] = None
    ) -> "RunReport":
        """One section per result, in order."""
        return cls(
            dataset=dataset,
            sections=tuple(section_from_result(r) for r in results),
        )

    def section(self, algorithm: str) -> Optional[Dict[str, Any]]:
        """The first section for ``algorithm``, or ``None``."""
        for sec in self.sections:
            if sec["algorithm"] == algorithm:
                return sec
        return None

    def to_json(self) -> Dict[str, Any]:
        """The ``repro.runreport/v1`` record."""
        return {
            "schema": SCHEMA_VERSION,
            "dataset": self.dataset,
            "sections": [dict(sec) for sec in self.sections],
        }

    def validate(self) -> List[str]:
        """Problems with this report (empty == every invariant holds)."""
        return validate_runreport(self.to_json())

    def write(self, path: str) -> None:
        """Serialise :meth:`to_json` to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=1)

    def render(self) -> str:
        """The ``--report`` console rendering."""
        return render_runreport(self.to_json())


# -- validation ---------------------------------------------------------------

def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_gpu_section(
    sec: Dict[str, Any], where: str, errors: List[str]
) -> None:
    """Cross-layer invariants of a GPU peel section (all exact)."""
    counters = sec["counters"]
    profile = sec.get("profile")
    trace = sec.get("trace")
    for phase in ("scan", "loop"):
        cycles = counters.get(f"kernel.{phase}.cycles")
        if cycles is None:
            continue
        kernel = f"{phase}_kernel"
        if profile is not None:
            agg = profile.get("kernels", {}).get(kernel)
            if agg is None:
                errors.append(
                    f"{where}: profile has no kernel {kernel!r} despite "
                    f"counter kernel.{phase}.cycles"
                )
            elif agg["cycles"] != cycles:
                errors.append(
                    f"{where}: profile cycles for {kernel!r} "
                    f"({agg['cycles']!r}) != counter kernel.{phase}."
                    f"cycles ({cycles!r})"
                )
        if trace is not None:
            span_cycles = trace.get("kernel_span_cycles", {}).get(kernel)
            if span_cycles != cycles:
                errors.append(
                    f"{where}: traced span cycles for {kernel!r} "
                    f"({span_cycles!r}) != counter kernel.{phase}."
                    f"cycles ({cycles!r})"
                )
    launches = counters.get("device.kernel_launches")
    if launches is not None:
        scan = counters.get("kernel.scan.launches")
        loop = counters.get("kernel.loop.launches")
        if scan is not None and loop is not None and scan + loop != launches:
            errors.append(
                f"{where}: kernel.scan.launches + kernel.loop.launches "
                f"({scan + loop!r}) != device.kernel_launches "
                f"({launches!r})"
            )
        served = [
            value for name, value in counters.items()
            if name.startswith("engine.served.")
        ]
        if served and sum(served) != launches:
            errors.append(
                f"{where}: engine.served.* sums to {sum(served)!r}, "
                f"device.kernel_launches is {launches!r}"
            )
    total = counters.get("frontier.total")
    if total is not None and total != sec["num_vertices"]:
        errors.append(
            f"{where}: frontier.total ({total!r}) != num_vertices "
            f"({sec['num_vertices']})"
        )
    if (
        profile is not None
        and counters.get("device.cycles") is not None
        and profile.get("launches")
        and all(l.get("source") == "simt" for l in profile["launches"])
    ):
        summary_cycles = profile.get("summary", {}).get("cycles")
        if summary_cycles != counters["device.cycles"]:
            errors.append(
                f"{where}: profile summary cycles ({summary_cycles!r}) "
                f"!= device.cycles ({counters['device.cycles']!r})"
            )


def _check_multicore_section(
    sec: Dict[str, Any], where: str, errors: List[str]
) -> None:
    """Epoch-timeline invariants of a multicore section (all exact)."""
    record = sec["multicore"]
    counters = sec["counters"]
    epochs = record.get("epochs", [])
    sync_us = record.get("sync_us", 0.0)
    threads = counters.get("cpu.threads")
    if threads is not None and threads != record.get("threads"):
        errors.append(
            f"{where}: cpu.threads counter ({threads!r}) != multicore "
            f"profile threads ({record.get('threads')!r})"
        )
    clock = 0.0
    for i, epoch in enumerate(epochs):
        here = f"{where}.multicore.epochs[{i}]"
        if epoch.get("index") != i:
            errors.append(f"{here}: index {epoch.get('index')!r} != {i}")
        start = epoch.get("start_ms")
        if start != clock:
            errors.append(
                f"{here}: starts at {start!r}, previous epoch ended at "
                f"{clock!r} (epochs must tile the timeline)"
            )
        end = start + (epoch["compute_ns"] + epoch["atomic_ns"]) / 1e6
        if epoch.get("sync"):
            end += sync_us / 1e3
        if end != epoch.get("end_ms"):
            errors.append(
                f"{here}: end_ms {epoch.get('end_ms')!r} does not "
                f"re-derive from start + straggler terms ({end!r})"
            )
        sync_ns = sync_us * 1000.0 if epoch.get("sync") else 0.0
        terms = (
            ("compute", epoch["compute_ns"]),
            ("atomic", epoch["atomic_ns"]),
            ("sync", sync_ns),
        )
        bound = max(terms, key=lambda kv: kv[1])[0]
        if epoch.get("bound") != bound:
            errors.append(
                f"{here}: bound {epoch.get('bound')!r} != re-derived "
                f"{bound!r}"
            )
        if epoch.get("bound") not in _EPOCH_BOUNDS:
            errors.append(
                f"{here}: unknown bound class {epoch.get('bound')!r}"
            )
        clock = epoch.get("end_ms", end)
    if epochs and clock != record.get("elapsed_ms"):
        errors.append(
            f"{where}: last epoch ends at {clock!r}, profile elapsed_ms "
            f"is {record.get('elapsed_ms')!r}"
        )
    if epochs and record.get("elapsed_ms") != sec["simulated_ms"]:
        errors.append(
            f"{where}: multicore elapsed_ms ({record.get('elapsed_ms')!r})"
            f" != section simulated_ms ({sec['simulated_ms']!r})"
        )
    barriers = counters.get("cpu.barriers")
    if barriers is not None:
        syncs = sum(1 for e in epochs if e.get("sync"))
        if syncs != barriers:
            errors.append(
                f"{where}: {syncs} sync epoch(s) but cpu.barriers is "
                f"{barriers!r}"
            )
    hist = record.get("bound_histogram")
    if hist is not None:
        derived: Dict[str, int] = {name: 0 for name in _EPOCH_BOUNDS}
        for epoch in epochs:
            bound = epoch.get("bound")
            if bound in derived:
                derived[bound] += 1
        if hist != derived:
            errors.append(
                f"{where}: bound_histogram {hist!r} != re-derived "
                f"{derived!r}"
            )


def _check_critpath_section(
    sec: Dict[str, Any], where: str, errors: List[str]
) -> None:
    """Critical-path invariants of a section (all exact): the embedded
    ``repro.critpath/v1`` record must pass its own validator, agree
    with the section clock, and re-state the host's per-kernel cycle
    and launch counters bit-for-bit (both sides accumulate the same
    per-launch ``stats.cycles`` in the same order)."""
    record = sec["critpath"]
    from repro.obs.critpath import validate_critpath

    problems = validate_critpath(record)
    errors.extend(f"{where}: critpath: {problem}" for problem in problems)
    if problems:  # the cross-checks below read a well-formed record
        return
    if record.get("elapsed_ms") != sec.get("simulated_ms"):
        errors.append(
            f"{where}: critpath elapsed_ms "
            f"({record.get('elapsed_ms')!r}) != section simulated_ms "
            f"({sec.get('simulated_ms')!r})"
        )
    counters = sec.get("counters", {})
    for name, agg in record.get("kernels", {}).items():
        short = name[: -len("_kernel")] if name.endswith("_kernel") else name
        cycles = counters.get(f"kernel.{short}.cycles")
        if cycles is not None and cycles != agg.get("cycles"):
            errors.append(
                f"{where}: critpath cycles for {name!r} "
                f"({agg.get('cycles')!r}) != counter kernel.{short}."
                f"cycles ({cycles!r})"
            )
        launches = counters.get(f"kernel.{short}.launches")
        if launches is not None and launches != agg.get("launches"):
            errors.append(
                f"{where}: critpath launches for {name!r} "
                f"({agg.get('launches')!r}) != counter kernel.{short}."
                f"launches ({launches!r})"
            )
    if record.get("kind") == "single":
        device_cycles = counters.get("device.cycles")
        total = record.get("accounting", {}).get("total_cycles")
        if device_cycles is not None and total != device_cycles:
            errors.append(
                f"{where}: critpath accounting total_cycles ({total!r}) "
                f"!= device.cycles ({device_cycles!r})"
            )
    else:
        stats = sec.get("stats", {})
        if "num_devices" in stats \
                and stats["num_devices"] != record.get("num_devices"):
            errors.append(
                f"{where}: critpath num_devices "
                f"({record.get('num_devices')!r}) != stats num_devices "
                f"({stats['num_devices']!r})"
            )


def _check_disk_section(
    sec: Dict[str, Any], where: str, errors: List[str]
) -> None:
    """Disk-I/O invariants of a semi-external section (all exact)."""
    counters = sec["counters"]
    passes = counters.get("disk.passes")
    page_in = counters.get("disk.page_in_bytes")
    resident = counters.get("disk.resident_peak_bytes")
    if passes is None or page_in is None or resident is None:
        errors.append(f"{where}: incomplete disk.* counters")
        return
    if page_in != passes * resident:
        errors.append(
            f"{where}: disk.page_in_bytes ({page_in!r}) != passes * "
            f"resident high-water ({passes * resident!r})"
        )
    stats = sec.get("stats", {})
    if "passes" in stats and stats["passes"] != passes:
        errors.append(
            f"{where}: disk.passes counter ({passes!r}) != stats passes "
            f"({stats['passes']!r})"
        )
    trace = sec.get("trace")
    if trace is not None:
        peak = trace.get("counter_track_peaks", {}).get(
            "disk.resident_bytes"
        )
        if peak is not None and peak != resident:
            errors.append(
                f"{where}: traced disk.resident_bytes peak ({peak!r}) "
                f"!= disk.resident_peak_bytes counter ({resident!r})"
            )


def validate_runreport(record: Any) -> List[str]:
    """Validate a parsed ``repro.runreport/v1`` record.

    Returns a list of problems; an empty list means the schema holds
    and every cross-layer consistency invariant holds **exactly**.
    """
    errors: List[str] = []
    if not isinstance(record, dict):
        return ["run report must be a JSON object"]
    if record.get("schema") != SCHEMA_VERSION:
        errors.append(
            f"schema must be {SCHEMA_VERSION!r}, got "
            f"{record.get('schema')!r}"
        )
    dataset = record.get("dataset")
    if dataset is not None and not isinstance(dataset, str):
        errors.append("'dataset' must be a string or null")
    sections = record.get("sections")
    if not isinstance(sections, list) or not sections:
        errors.append("'sections' must be a non-empty list")
        return errors
    for index, sec in enumerate(sections):
        where = f"sections[{index}]"
        if not isinstance(sec, dict):
            errors.append(f"{where}: not an object")
            continue
        algorithm = sec.get("algorithm")
        if not isinstance(algorithm, str) or not algorithm:
            errors.append(f"{where}: missing 'algorithm'")
        else:
            where = f"sections[{index}] ({algorithm})"
        for key in ("simulated_ms", "peak_memory_bytes", "rounds",
                    "num_vertices", "kmax"):
            if not _is_number(sec.get(key)):
                errors.append(f"{where}: {key!r} must be a number")
        counters = sec.get("counters")
        if not isinstance(counters, dict):
            errors.append(f"{where}: 'counters' must be an object")
            continue
        for name, value in counters.items():
            if not _is_number(value):
                errors.append(
                    f"{where}: counter {name!r} is not numeric"
                )
        rounds = counters.get("host.rounds")
        if rounds is not None and rounds != sec.get("rounds"):
            errors.append(
                f"{where}: host.rounds counter ({rounds!r}) != rounds "
                f"({sec.get('rounds')!r})"
            )
        memtrace = sec.get("memtrace")
        if memtrace is not None:
            from repro.memtrace.report import validate_memtrace

            for problem in validate_memtrace(memtrace):
                errors.append(f"{where}: memtrace: {problem}")
            if memtrace.get("peak_bytes") != sec.get("peak_memory_bytes"):
                errors.append(
                    f"{where}: memtrace peak_bytes "
                    f"({memtrace.get('peak_bytes')!r}) != section "
                    f"peak_memory_bytes ({sec.get('peak_memory_bytes')!r})"
                )
        profile = sec.get("profile")
        if profile is not None:
            from repro.profile.report import validate_profile

            for problem in validate_profile(profile):
                errors.append(f"{where}: profile: {problem}")
        if "kernel.scan.cycles" in counters:
            _check_gpu_section(sec, where, errors)
        if sec.get("critpath") is not None:
            _check_critpath_section(sec, where, errors)
        if sec.get("multicore") is not None:
            _check_multicore_section(sec, where, errors)
        if "disk.passes" in counters:
            _check_disk_section(sec, where, errors)
    return errors


# -- rendering ----------------------------------------------------------------

def _fmt_bytes(nbytes: float) -> str:
    return f"{nbytes / (1024.0 * 1024.0):.2f} MB"


def render_runreport(record: Dict[str, Any]) -> str:
    """Console rendering of a run report (one block per section)."""
    dataset = record.get("dataset")
    title = "Run report"
    if dataset:
        title += f": {dataset}"
    lines = [title, "=" * max(24, len(title))]
    for sec in record.get("sections", []):
        counters = sec.get("counters", {})
        lines.append(
            f"\n[{sec.get('algorithm')}]  "
            f"{sec.get('simulated_ms', 0.0):.3f} ms simulated, "
            f"{sec.get('rounds')} round(s), kmax={sec.get('kmax')}, "
            f"peak {_fmt_bytes(sec.get('peak_memory_bytes', 0))}"
        )
        engine = sec.get("engine")
        if engine and engine.get("name"):
            served = engine.get("served", {})
            attribution = ", ".join(
                f"{tier}={int(count)}" for tier, count in sorted(
                    served.items()
                )
            )
            lines.append(
                f"  engine: {engine['name']}"
                + (f" (served: {attribution})" if attribution else "")
            )
        profile = sec.get("profile")
        if profile is not None:
            for name, agg in profile.get("kernels", {}).items():
                lines.append(
                    f"  kernel {name}: {agg['launches']} launch(es), "
                    f"{agg['cycles']:.0f} cycles, {agg['bound']}-bound"
                )
        multicore = sec.get("multicore")
        if multicore is not None:
            hist = multicore.get("bound_histogram", {})
            lines.append(
                f"  multicore: {multicore.get('threads')} thread(s), "
                f"{len(multicore.get('epochs', []))} epoch(s) — "
                + ", ".join(
                    f"{k}={v}" for k, v in hist.items()
                )
            )
        if "disk.passes" in counters:
            lines.append(
                "  disk: "
                f"{int(counters.get('disk.passes', 0))} pass(es), "
                f"{_fmt_bytes(counters.get('disk.page_in_bytes', 0))} "
                "paged in, "
                f"{_fmt_bytes(counters.get('disk.page_out_bytes', 0))} "
                "paged out, resident high-water "
                f"{_fmt_bytes(counters.get('disk.resident_peak_bytes', 0))}"
            )
        critpath = sec.get("critpath")
        if critpath is not None:
            whatif = critpath.get("whatif") or []
            top = whatif[0] if whatif else None
            line = (
                f"  critpath: {len(critpath.get('nodes', []))} node(s), "
                f"{len(critpath.get('critical_path', []))} on path"
            )
            if top is not None:
                line += (
                    f"; best ceiling {top['speedup_ceiling']:.3f}x "
                    f"({top['scenario']})"
                )
            lines.append(line)
            bounds = critpath.get("round_bounds")
            if bounds:
                lines.append(
                    "  round attribution: " + ", ".join(
                        f"{k}={v}" for k, v in bounds.items()
                    )
                )
        memtrace = sec.get("memtrace")
        if memtrace is not None:
            workers = memtrace.get("workers", [])
            allocs = sum(w.get("allocs", 0) for w in workers)
            lines.append(
                f"  memory: peak {_fmt_bytes(memtrace.get('peak_bytes', 0))}"
                f" across {len(workers)} worker(s), {allocs} allocation(s)"
            )
        for label in ("sanitizer", "staticheck"):
            summary = sec.get(label)
            if summary is not None:
                verdict = "clean" if summary.get("clean") else (
                    f"{summary.get('findings')} finding(s): "
                    + ", ".join(summary.get("detectors", []))
                )
                lines.append(f"  {label}: {verdict}")
        trace = sec.get("trace")
        if trace is not None:
            lines.append(
                f"  trace: {trace.get('events')} event(s), "
                f"{trace.get('spans')} span(s)"
            )
    return "\n".join(lines)


# -- diffing ------------------------------------------------------------------

def diff_runreports(
    old: Dict[str, Any], new: Dict[str, Any]
) -> Tuple[str, bool]:
    """Compare two run reports; returns ``(rendered, has_regressions)``.

    A regression is any section where simulated time, device cycles or
    peak memory grew, or where a kernel/epoch bound class flipped.
    """
    lines: List[str] = []
    regressions = False
    old_secs = {s["algorithm"]: s for s in old.get("sections", [])}
    new_secs = {s["algorithm"]: s for s in new.get("sections", [])}
    for name in sorted(set(old_secs) | set(new_secs)):
        if name not in old_secs:
            lines.append(f"[{name}] only in NEW report")
            continue
        if name not in new_secs:
            lines.append(f"[{name}] only in OLD report")
            continue
        a, b = old_secs[name], new_secs[name]
        section_lines: List[str] = []
        metrics = [
            ("simulated_ms", a.get("simulated_ms"), b.get("simulated_ms"),
             "ms"),
            ("peak_memory_bytes", a.get("peak_memory_bytes"),
             b.get("peak_memory_bytes"), "B"),
            ("device.cycles", a.get("counters", {}).get("device.cycles"),
             b.get("counters", {}).get("device.cycles"), "cycles"),
            ("rounds", a.get("rounds"), b.get("rounds"), "rounds"),
        ]
        for label, old_v, new_v, unit in metrics:
            if old_v is None or new_v is None or old_v == new_v:
                continue
            pct = (
                100.0 * (new_v - old_v) / old_v if old_v else float("inf")
            )
            marker = "regressed" if new_v > old_v else "improved"
            if new_v > old_v:
                regressions = True
            section_lines.append(
                f"  {label}: {old_v!r} -> {new_v!r} {unit} "
                f"({pct:+.2f}%, {marker})"
            )
        old_bounds = {
            k: v.get("bound")
            for k, v in (a.get("profile") or {}).get("kernels", {}).items()
        }
        new_bounds = {
            k: v.get("bound")
            for k, v in (b.get("profile") or {}).get("kernels", {}).items()
        }
        for kernel in sorted(set(old_bounds) & set(new_bounds)):
            if old_bounds[kernel] != new_bounds[kernel]:
                regressions = True
                section_lines.append(
                    f"  kernel {kernel}: bound flipped "
                    f"{old_bounds[kernel]} -> {new_bounds[kernel]}"
                )
        old_whatif = {
            row["scenario"]: row.get("speedup_ceiling")
            for row in (a.get("critpath") or {}).get("whatif", [])
            if isinstance(row, dict)
        }
        new_whatif = {
            row["scenario"]: row.get("speedup_ceiling")
            for row in (b.get("critpath") or {}).get("whatif", [])
            if isinstance(row, dict)
        }
        for scenario in sorted(set(old_whatif) & set(new_whatif)):
            if old_whatif[scenario] != new_whatif[scenario]:
                # informational: a moved ceiling is a shifted bottleneck,
                # not by itself a regression
                section_lines.append(
                    f"  whatif {scenario}: ceiling "
                    f"{old_whatif[scenario]:.3f}x -> "
                    f"{new_whatif[scenario]:.3f}x"
                )
        old_rb = (a.get("critpath") or {}).get("round_bounds")
        new_rb = (b.get("critpath") or {}).get("round_bounds")
        if old_rb is not None and new_rb is not None and old_rb != new_rb:
            section_lines.append(
                f"  critpath round bounds: {old_rb!r} -> {new_rb!r}"
            )
        old_hist = (a.get("multicore") or {}).get("bound_histogram")
        new_hist = (b.get("multicore") or {}).get("bound_histogram")
        if old_hist is not None and new_hist is not None \
                and old_hist != new_hist:
            section_lines.append(
                f"  multicore bound histogram: {old_hist!r} -> "
                f"{new_hist!r}"
            )
        if section_lines:
            lines.append(f"[{name}]")
            lines.extend(section_lines)
        else:
            lines.append(f"[{name}] unchanged")
    if not lines:
        lines.append("no common sections")
    header = "Run-report diff" + (
        " — REGRESSIONS" if regressions else " — no regressions"
    )
    return "\n".join([header, "=" * len(header)] + lines), regressions


# -- collection ---------------------------------------------------------------

def collect_run_report(
    graph: Any,
    algorithms: Sequence[str],
    dataset: Optional[str] = None,
    trace: bool = True,
) -> Tuple["RunReport", List[Any]]:
    """Run ``algorithms`` over ``graph`` with full telemetry and merge
    the results into one report.

    Each algorithm gets every observability vertical it supports
    (profile, memtrace, critpath — per :data:`repro.api.CAPABILITIES`),
    plus a fresh process-wide tracer per run when ``trace`` is on so
    the report's trace cross-checks are exercised; all of it is
    observability-only, so the results are byte-identical to plain
    runs.  Returns ``(report, results)``.
    """
    from repro import api  # lazy: api imports the world
    from repro.obs.tracer import start_tracing, stop_tracing

    results = []
    for name in algorithms:
        kwargs: Dict[str, Any] = {
            key: True for key in ("profile", "memtrace", "critpath")
            if name in api.CAPABILITIES[key]
        }
        if trace:
            start_tracing()  # a fresh tracer per run: no cross-talk
            try:
                results.append(api.decompose(graph, name, **kwargs))
            finally:
                stop_tracing()
        else:
            results.append(api.decompose(graph, name, **kwargs))
    return RunReport.from_results(results, dataset=dataset), results
