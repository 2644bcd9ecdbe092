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
:func:`validate_runreport`.  The shape of the record and of each section
is one spec (``_SHAPE``, ``_SECTION``, checked by
:mod:`repro.obs.shape`); each embedded record goes to its own format's
validator (profile, memtrace, critpath, and the multicore
``repro.cpu-epochs/v1`` record to
:func:`~repro.multicore.profile.validate_cpu_epochs`).  What the
validator keeps is the cross-layer equalities, run on a section whose
shape holds and over the embedded records their validators accepted,
each required to hold **exactly** (no tolerance).  They only compare
quantities produced by the *same* float operations in the *same* order
(or integer-valued quantities), so exact equality is the correct
contract — any drift means an instrumentation bug, not rounding:

* ``memtrace.peak_bytes == peak_memory_bytes``;
* per-kernel profile cycles == the host's ``kernel.<k>.cycles``
  counters == the summed kernel-span cycles in the trace;
* scan+loop launch counters == ``device.kernel_launches`` == the sum
  of the per-tier ``engine.served.*`` attribution;
* the multicore epoch timeline ends at ``simulated_ms``, and the
  ``cpu.threads`` and ``cpu.barriers`` counters re-state its thread
  count and its sync epochs;
* critpath elapsed time == ``simulated_ms``, and its per-kernel cycles
  and launches == the host's counters;
* ``disk.page_in_bytes == disk.passes * disk.resident_peak_bytes``,
  and the traced ``disk.resident_bytes`` counter track peaks at
  exactly the resident high-water counter.

``repro obs diff OLD.json NEW.json`` (see :func:`diff_runreports`)
compares two reports section by section and flags regressions; it
names and skips a section whose shape does not hold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.critpath import validate_critpath
from repro.obs.shape import (
    BOOL,
    INT,
    NAT,
    NONNEG,
    NUMBER,
    OBJECT,
    STR,
    TEXT,
    Leaf,
    MapOf,
    nullable,
    one_of,
    shape_problems,
)

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

_SECTIONS = Leaf(lambda v: isinstance(v, list) and v != [], "a non-empty list")
_SHAPE = {
    "schema": one_of(SCHEMA_VERSION),
    "dataset": nullable(STR),
    "sections": _SECTIONS,
}
_FINDINGS = nullable(
    {"clean": BOOL, "findings": NAT, "errors": NAT, "detectors": [STR]}
)
#: one section; the embedded records are checked by their own validators
_SECTION = {
    "algorithm": TEXT,
    "simulated_ms": NONNEG,
    "peak_memory_bytes": NAT,
    "rounds": NAT,
    "num_vertices": NAT,
    "kmax": INT,
    "counters": MapOf(NUMBER),
    "stats": OBJECT,
    "profile": nullable(OBJECT),
    "multicore": nullable(OBJECT),
    "memtrace": nullable(OBJECT),
    "sanitizer": _FINDINGS,
    "staticheck": _FINDINGS,
    "trace": nullable({
        "events": NAT,
        "spans": NAT,
        "kernel_span_cycles": MapOf(NUMBER),
        "counter_track_peaks": MapOf(NUMBER),
    }),
    "engine": nullable({"name": nullable(STR), "served": MapOf(NUMBER)}),
    "critpath": nullable(OBJECT),
}


def _check_gpu_section(
    sec: Dict[str, Any], profile: Optional[Dict[str, Any]], where: str,
    errors: List[str],
) -> None:
    """Cross-layer invariants of a GPU peel section (all exact);
    ``profile`` is the section's profile if its validator accepted it."""
    counters = sec["counters"]
    trace = sec["trace"]
    for phase in ("scan", "loop"):
        cycles = counters.get(f"kernel.{phase}.cycles")
        if cycles is None:
            continue
        kernel = f"{phase}_kernel"
        if profile is not None:
            agg = profile["kernels"].get(kernel)
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
            span_cycles = trace["kernel_span_cycles"].get(kernel)
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
        and profile["launches"]
        and all(entry["source"] == "simt" for entry in profile["launches"])
        and profile["summary"]["cycles"] != counters["device.cycles"]
    ):
        errors.append(
            f"{where}: profile summary cycles "
            f"({profile['summary']['cycles']!r}) != device.cycles "
            f"({counters['device.cycles']!r})"
        )


def _check_multicore_section(
    sec: Dict[str, Any], record: Dict[str, Any], where: str,
    errors: List[str],
) -> None:
    """What ties an accepted ``repro.cpu-epochs/v1`` record to its
    section (all exact): the clock and the thread and barrier
    counters."""
    counters = sec["counters"]
    threads = counters.get("cpu.threads")
    if threads is not None and threads != record["threads"]:
        errors.append(
            f"{where}: cpu.threads counter ({threads!r}) != multicore "
            f"profile threads ({record['threads']!r})"
        )
    epochs = record["epochs"]
    if epochs and record["elapsed_ms"] != sec["simulated_ms"]:
        errors.append(
            f"{where}: multicore elapsed_ms ({record['elapsed_ms']!r})"
            f" != section simulated_ms ({sec['simulated_ms']!r})"
        )
    barriers = counters.get("cpu.barriers")
    syncs = sum(1 for epoch in epochs if epoch["sync"])
    if barriers is not None and syncs != barriers:
        errors.append(
            f"{where}: {syncs} sync epoch(s) but cpu.barriers is "
            f"{barriers!r}"
        )


def _check_critpath_section(
    sec: Dict[str, Any], record: Dict[str, Any], where: str,
    errors: List[str],
) -> None:
    """What ties an accepted ``repro.critpath/v1`` record to its
    section (all exact): the section clock and the host's per-kernel
    cycle and launch counters, bit for bit (both sides accumulate the
    same per-launch ``stats.cycles`` in the same order)."""
    if record["elapsed_ms"] != sec["simulated_ms"]:
        errors.append(
            f"{where}: critpath elapsed_ms "
            f"({record['elapsed_ms']!r}) != section simulated_ms "
            f"({sec['simulated_ms']!r})"
        )
    counters = sec["counters"]
    for name, agg in record["kernels"].items():
        short = name[: -len("_kernel")] if name.endswith("_kernel") else name
        cycles = counters.get(f"kernel.{short}.cycles")
        if cycles is not None and cycles != agg["cycles"]:
            errors.append(
                f"{where}: critpath cycles for {name!r} "
                f"({agg['cycles']!r}) != counter kernel.{short}."
                f"cycles ({cycles!r})"
            )
        launches = counters.get(f"kernel.{short}.launches")
        if launches is not None and launches != agg["launches"]:
            errors.append(
                f"{where}: critpath launches for {name!r} "
                f"({agg['launches']!r}) != counter kernel.{short}."
                f"launches ({launches!r})"
            )
    if record["kind"] == "single":
        device_cycles = counters.get("device.cycles")
        total = record["accounting"]["total_cycles"]
        if device_cycles is not None and total != device_cycles:
            errors.append(
                f"{where}: critpath accounting total_cycles ({total!r}) "
                f"!= device.cycles ({device_cycles!r})"
            )
    else:
        stats = sec["stats"]
        if "num_devices" in stats \
                and stats["num_devices"] != record["num_devices"]:
            errors.append(
                f"{where}: critpath num_devices "
                f"({record['num_devices']!r}) != stats num_devices "
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
    stats = sec["stats"]
    if "passes" in stats and stats["passes"] != passes:
        errors.append(
            f"{where}: disk.passes counter ({passes!r}) != stats passes "
            f"({stats['passes']!r})"
        )
    trace = sec["trace"]
    if trace is not None:
        peak = trace["counter_track_peaks"].get("disk.resident_bytes")
        if peak is not None and peak != resident:
            errors.append(
                f"{where}: traced disk.resident_bytes peak ({peak!r}) "
                f"!= disk.resident_peak_bytes counter ({resident!r})"
            )


def _check_section(
    sec: Dict[str, Any], where: str, errors: List[str]
) -> None:
    """Every embedded record through its own validator, then the
    cross-layer equalities over the records they accepted."""
    # lazy: these packages import repro.obs themselves
    from repro.memtrace.report import validate_memtrace
    from repro.multicore.profile import validate_cpu_epochs
    from repro.profile.report import validate_profile

    counters = sec["counters"]
    rounds = counters.get("host.rounds")
    if rounds is not None and rounds != sec["rounds"]:
        errors.append(
            f"{where}: host.rounds counter ({rounds!r}) != rounds "
            f"({sec['rounds']!r})"
        )
    accepted: Dict[str, Dict[str, Any]] = {}
    for key, validate in (
        ("memtrace", validate_memtrace),
        ("profile", validate_profile),
        ("critpath", validate_critpath),
        ("multicore", validate_cpu_epochs),
    ):
        if sec[key] is None:
            continue
        found = validate(sec[key])
        errors.extend(f"{where}: {key} {problem}" for problem in found)
        if not found:
            accepted[key] = sec[key]
    memtrace = accepted.get("memtrace")
    if memtrace is not None \
            and memtrace["peak_bytes"] != sec["peak_memory_bytes"]:
        errors.append(
            f"{where}: memtrace peak_bytes ({memtrace['peak_bytes']!r}) "
            f"!= section peak_memory_bytes ({sec['peak_memory_bytes']!r})"
        )
    if "kernel.scan.cycles" in counters:
        _check_gpu_section(sec, accepted.get("profile"), where, errors)
    if "critpath" in accepted:
        _check_critpath_section(sec, accepted["critpath"], where, errors)
    if "multicore" in accepted:
        _check_multicore_section(sec, accepted["multicore"], where, errors)
    if "disk.passes" in counters:
        _check_disk_section(sec, where, errors)


def validate_runreport(record: Any) -> List[str]:
    """Validate a parsed ``repro.runreport/v1`` record.

    Returns a list of problems; an empty list means the schema holds
    and every cross-layer consistency invariant holds **exactly**.
    """
    if not isinstance(record, dict):
        return ["run report must be a JSON object"]
    errors = shape_problems(record, _SHAPE, "")
    if not _SECTIONS.test(record.get("sections")):
        return errors
    for index, sec in enumerate(record["sections"]):
        where = f"sections[{index}]"
        shape = shape_problems(sec, _SECTION, where)
        errors.extend(shape)
        if not shape:
            _check_section(sec, f"{where} ({sec['algorithm']})", errors)
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

#: what :func:`diff_runreports` reads of a section
_COMPARED = {
    **_SECTION,
    "profile": nullable({"kernels": MapOf({"bound": STR})}),
    "critpath": nullable(
        {"whatif": [{"scenario": STR, "speedup_ceiling": NUMBER}]}
    ),
}


def _comparable(
    record: Any, side: str, lines: List[str]
) -> Dict[str, Dict[str, Any]]:
    """The sections of ``record`` the diff can read, by algorithm; a
    line in ``lines`` names each one skipped."""
    problems = shape_problems(record, _SHAPE, "")
    if problems:
        lines.append(f"skipped the malformed {side} report: {problems[0]}")
        return {}
    comparable: Dict[str, Dict[str, Any]] = {}
    for index, sec in enumerate(record["sections"]):
        problems = shape_problems(sec, _COMPARED, f"sections[{index}]")
        if problems:
            lines.append(f"skipped a malformed {side} section: {problems[0]}")
        else:
            comparable[sec["algorithm"]] = sec
    return comparable


def diff_runreports(
    old: Dict[str, Any], new: Dict[str, Any]
) -> Tuple[str, bool]:
    """Compare two run reports; returns ``(rendered, has_regressions)``.

    A regression is any section where simulated time, device cycles or
    peak memory grew, or where a kernel/epoch bound class flipped.  A
    section whose shape does not hold is named and skipped.
    """
    lines: List[str] = []
    regressions = False
    old_secs = _comparable(old, "OLD", lines)
    new_secs = _comparable(new, "NEW", lines)
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
            row["scenario"]: row["speedup_ceiling"]
            for row in (a.get("critpath") or {}).get("whatif", [])
        }
        new_whatif = {
            row["scenario"]: row["speedup_ceiling"]
            for row in (b.get("critpath") or {}).get("whatif", [])
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
