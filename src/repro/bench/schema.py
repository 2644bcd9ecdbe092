"""Machine-readable bench results: the ``repro.bench/v1`` record.

Every table bench persists, next to its fixed-width ``.txt`` artefact,
a JSON file with the same rows in a stable schema so downstream tools
(regression dashboards, the paper-comparison notebook) never have to
parse the pretty-printed text:

.. code-block:: json

    {
      "schema": "repro.bench/v1",
      "name": "table3_gpu",
      "title": "Table III: computation time of GPU programs ...",
      "columns": ["dataset", "gpu-ours", "vetga", ...],
      "rows": [{"dataset": "web-Google", "cells": ["12.4", "318.0", ...]}],
      "qualitative": {"ours_always_wins": true}
    }

``cells`` are kept as the rendered strings (they carry non-numeric
outcomes such as ``"OOM"`` and ``"> 1hr"`` exactly as the paper prints
them); ``qualitative`` is a free-form dict of booleans/numbers that a
bench uses to record the shape claims its assertions checked.

:func:`validate_record` returns a list of problems (empty = valid);
``scripts/gate.py bench_json`` and the tier-1 test
``tests/test_bench_json.py`` are thin wrappers around it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence

__all__ = [
    "SCHEMA_VERSION",
    "SIBLING_SCHEMAS",
    "build_record",
    "validate_record",
    "validate_file",
    "validate_results_dir",
]

SCHEMA_VERSION = "repro.bench/v1"

#: the three speed-of-light bound classes a profile baseline may pin
_BOUND_CLASSES = ("compute", "memory", "latency")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_profile_baseline(record: Dict[str, Any]) -> List[str]:
    """Structural check of a ``repro.profile-baseline/v1`` record.

    The deep arithmetic checks live with the profiler
    (:mod:`repro.profile.report`); here we only keep the committed
    baseline well-formed enough for the ``perf`` gate of
    ``scripts/gate.py``.
    """
    errors: List[str] = []
    if not isinstance(record.get("dataset"), str) or not record["dataset"]:
        errors.append("dataset must be a non-empty string")
    tolerance = record.get("tolerance")
    if not _is_number(tolerance) or not (0.0 < float(tolerance) <= 1.0):
        errors.append(f"tolerance must be a number in (0, 1], got {tolerance!r}")
    variants = record.get("variants")
    if not isinstance(variants, dict) or not variants:
        return errors + ["variants must be a non-empty object"]
    for name, pinned in variants.items():
        if not isinstance(pinned, dict):
            errors.append(f"variants[{name}] must be an object")
            continue
        if not _is_number(pinned.get("cycles")) or pinned["cycles"] <= 0:
            errors.append(f"variants[{name}].cycles must be a positive number")
        bounds = pinned.get("bounds")
        if not isinstance(bounds, dict):
            errors.append(f"variants[{name}].bounds must be an object")
            continue
        for kernel, bound in bounds.items():
            if bound not in _BOUND_CLASSES:
                errors.append(
                    f"variants[{name}].bounds[{kernel}] must be one of "
                    f"{_BOUND_CLASSES}, got {bound!r}"
                )
    return errors


def _validate_trajectory(record: Dict[str, Any]) -> List[str]:
    """Structural check of a ``repro.bench-trajectory/v1`` record.

    An entry carries ``cycles`` (the perf gate's per-variant kernel
    cycles), ``peaks`` (the memory gate's per-program peak bytes),
    ``engine_speedup`` (a dated host wall-clock comparison of the
    execution engines, see ``docs/SIMULATOR.md``), ``runreport`` (the
    run-report gate's per-algorithm summary, see
    ``scripts/gate.py runreport``), ``critpath`` (the critical-path
    gate's per-program speedup ceilings and multi-GPU round
    attribution, see ``scripts/gate.py critpath``), or any
    combination — at least one must be present.
    """
    errors: List[str] = []
    entries = record.get("records")
    if not isinstance(entries, list):
        return ["records must be a list"]
    payload_keys = (
        "cycles", "peaks", "engine_speedup", "runreport", "critpath",
    )
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            errors.append(f"records[{i}] must be an object")
            continue
        for key in ("date", "dataset"):
            if not isinstance(entry.get(key), str) or not entry.get(key):
                errors.append(f"records[{i}].{key} must be a non-empty string")
        if not any(key in entry for key in payload_keys):
            errors.append(
                f"records[{i}] needs a payload: one of "
                f"{', '.join(payload_keys)}"
            )
        for key in ("cycles", "peaks"):
            if key not in entry:
                continue
            values = entry[key]
            if not isinstance(values, dict) or not all(
                _is_number(v) for v in values.values()
            ):
                errors.append(
                    f"records[{i}].{key} must map programs to numbers"
                )
        if "engine_speedup" in entry:
            es = entry["engine_speedup"]
            if not isinstance(es, dict):
                errors.append(
                    f"records[{i}].engine_speedup must be an object"
                )
            else:
                speedup = es.get("speedup")
                if not isinstance(speedup, dict) or not speedup or not all(
                    _is_number(v) for v in speedup.values()
                ):
                    errors.append(
                        f"records[{i}].engine_speedup.speedup must map "
                        f"variants to numbers"
                    )
                if not _is_number(es.get("geomean")):
                    errors.append(
                        f"records[{i}].engine_speedup.geomean must be "
                        f"a number"
                    )
                for side in ("reference_ms", "vectorized_ms"):
                    if side in es and (
                        not isinstance(es[side], dict) or not all(
                            _is_number(v) for v in es[side].values()
                        )
                    ):
                        errors.append(
                            f"records[{i}].engine_speedup.{side} must "
                            f"map variants to numbers"
                        )
        if "runreport" in entry:
            rr = entry["runreport"]
            if not isinstance(rr, dict):
                errors.append(f"records[{i}].runreport must be an object")
            else:
                sections = rr.get("sections")
                if not isinstance(sections, dict) or not sections or not all(
                    isinstance(s, dict)
                    and _is_number(s.get("simulated_ms"))
                    and _is_number(s.get("peak_memory_bytes"))
                    for s in sections.values()
                ):
                    errors.append(
                        f"records[{i}].runreport.sections must map "
                        f"algorithms to objects with numeric "
                        f"simulated_ms and peak_memory_bytes"
                    )
                if not _is_number(rr.get("invariants_checked")):
                    errors.append(
                        f"records[{i}].runreport.invariants_checked "
                        f"must be a number"
                    )
        if "critpath" in entry:
            cp = entry["critpath"]
            if not isinstance(cp, dict):
                errors.append(f"records[{i}].critpath must be an object")
            else:
                programs = cp.get("programs")
                if not isinstance(programs, dict) or not programs or not all(
                    isinstance(p, dict)
                    and isinstance(p.get("best_scenario"), str)
                    and _is_number(p.get("best_ceiling"))
                    for p in programs.values()
                ):
                    errors.append(
                        f"records[{i}].critpath.programs must map "
                        f"programs to objects with a best_scenario "
                        f"string and a numeric best_ceiling"
                    )
                bounds = cp.get("round_bounds", {})
                if not isinstance(bounds, dict) or not all(
                    isinstance(hist, dict) and all(
                        _is_number(v) for v in hist.values()
                    )
                    for hist in bounds.values()
                ):
                    errors.append(
                        f"records[{i}].critpath.round_bounds must map "
                        f"programs to bound-class histograms"
                    )
                if not _is_number(cp.get("invariants_checked")):
                    errors.append(
                        f"records[{i}].critpath.invariants_checked "
                        f"must be a number"
                    )
        if not isinstance(entry.get("ok"), bool):
            errors.append(f"records[{i}].ok must be a boolean")
    return errors


def _validate_memory_baseline(record: Dict[str, Any]) -> List[str]:
    """Structural check of a ``repro.memory-baseline/v1`` record.

    Pins the exact peak bytes of every kernel variant and system
    emulation on one dataset, plus Table V's ordering claims; consumed
    by ``scripts/gate.py memory``.
    """
    errors: List[str] = []
    if not isinstance(record.get("dataset"), str) or not record["dataset"]:
        errors.append("dataset must be a non-empty string")
    for group in ("variants", "systems"):
        peaks = record.get(group)
        if not isinstance(peaks, dict) or not peaks:
            errors.append(f"{group} must be a non-empty object")
            continue
        for name, value in peaks.items():
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value <= 0:
                errors.append(
                    f"{group}[{name}] must be a positive integer "
                    f"(exact peak bytes), got {value!r}"
                )
    ordering = record.get("ordering")
    if not isinstance(ordering, dict):
        errors.append("ordering must be an object")
    else:
        variants = record.get("variants")
        known = set(variants) if isinstance(variants, dict) else None
        for key in ("minimal_tie", "above"):
            names = ordering.get(key)
            if not isinstance(names, list) or not names or not all(
                isinstance(n, str) for n in names
            ):
                errors.append(
                    f"ordering.{key} must be a non-empty list of strings"
                )
            elif known is not None:
                for n in names:
                    if n not in known:
                        errors.append(
                            f"ordering.{key} names unknown variant {n!r}"
                        )
    oom = record.get("oom")
    if oom is not None:
        if not isinstance(oom, dict):
            errors.append("oom must be an object when present")
        else:
            if not isinstance(oom.get("dataset"), str) or not oom["dataset"]:
                errors.append("oom.dataset must be a non-empty string")
            systems = oom.get("systems")
            if not isinstance(systems, list) or not systems or not all(
                isinstance(s, str) for s in systems
            ):
                errors.append("oom.systems must be a non-empty list of strings")
    return errors


#: non-table records that may live next to the bench tables under
#: ``benchmarks/results/``, with their structural validators
SIBLING_SCHEMAS = {
    "repro.profile-baseline/v1": _validate_profile_baseline,
    "repro.bench-trajectory/v1": _validate_trajectory,
    "repro.memory-baseline/v1": _validate_memory_baseline,
}


def build_record(
    name: str,
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    qualitative: Mapping[str, Any] | None = None,
    attribution: Mapping[str, Any] | None = None,
) -> Dict[str, Any]:
    """Assemble a schema-conforming record from ``render_table`` inputs.

    ``rows`` are the same row lists handed to
    :func:`repro.bench.tables.render_table`: first element the dataset
    name, the rest the cell values (stringified here).

    ``attribution`` is the optional per-allocation memory breakdown a
    memory bench records behind its cells:
    ``{dataset: {algorithm: {"peak_bytes": int, "arrays": {name: bytes}}}}``
    where the arrays (including the ``"(context)"`` base) sum exactly
    to ``peak_bytes`` — :func:`validate_record` enforces the identity.
    """
    record = {
        "schema": SCHEMA_VERSION,
        "name": str(name),
        "title": str(title),
        "columns": [str(c) for c in columns],
        "rows": [
            {"dataset": str(row[0]), "cells": [str(c) for c in row[1:]]}
            for row in rows
        ],
        "qualitative": dict(qualitative) if qualitative else {},
    }
    if attribution is not None:
        record["attribution"] = {
            dataset: {algo: dict(entry) for algo, entry in per_algo.items()}
            for dataset, per_algo in attribution.items()
        }
    return record


def validate_record(record: Any) -> List[str]:
    """Check a parsed record against ``repro.bench/v1``; return problems."""
    errors: List[str] = []
    if not isinstance(record, dict):
        return [f"record must be an object, got {type(record).__name__}"]
    if record.get("schema") != SCHEMA_VERSION:
        errors.append(
            f"schema must be {SCHEMA_VERSION!r}, got {record.get('schema')!r}"
        )
    for key in ("name", "title"):
        if not isinstance(record.get(key), str) or not record.get(key):
            errors.append(f"{key} must be a non-empty string")
    columns = record.get("columns")
    if (
        not isinstance(columns, list)
        or not columns
        or not all(isinstance(c, str) for c in columns)
    ):
        errors.append("columns must be a non-empty list of strings")
        columns = None
    rows = record.get("rows")
    if not isinstance(rows, list):
        errors.append("rows must be a list")
        rows = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append(f"rows[{i}] must be an object")
            continue
        if not isinstance(row.get("dataset"), str) or not row.get("dataset"):
            errors.append(f"rows[{i}].dataset must be a non-empty string")
        cells = row.get("cells")
        if not isinstance(cells, list) or not all(
            isinstance(c, str) for c in cells
        ):
            errors.append(f"rows[{i}].cells must be a list of strings")
        elif columns is not None and len(cells) != len(columns) - 1:
            errors.append(
                f"rows[{i}] has {len(cells)} cells for "
                f"{len(columns) - 1} value columns"
            )
    if "qualitative" in record and not isinstance(
        record["qualitative"], dict
    ):
        errors.append("qualitative must be an object when present")
    if "attribution" in record:
        errors.extend(
            _validate_attribution(record["attribution"], columns, rows)
        )
    return errors


def _validate_attribution(
    attribution: Any, columns: Any, rows: List[Any]
) -> List[str]:
    """Check a bench record's memory-attribution block.

    The headline invariant: every entry's arrays sum *exactly* (integer
    equality, no tolerance) to its ``peak_bytes`` — an attribution that
    does not add up is worse than none.
    """
    errors: List[str] = []
    if not isinstance(attribution, dict):
        return ["attribution must be an object when present"]
    datasets = {
        row.get("dataset")
        for row in rows
        if isinstance(row, dict) and isinstance(row.get("dataset"), str)
    }
    algorithms = set(columns[1:]) if isinstance(columns, list) else None
    for dataset, per_algo in attribution.items():
        if datasets and dataset not in datasets:
            errors.append(
                f"attribution[{dataset}] does not match any row dataset"
            )
        if not isinstance(per_algo, dict) or not per_algo:
            errors.append(f"attribution[{dataset}] must be a non-empty object")
            continue
        for algo, entry in per_algo.items():
            where = f"attribution[{dataset}][{algo}]"
            if algorithms is not None and algo not in algorithms:
                errors.append(f"{where} does not match any value column")
            if not isinstance(entry, dict):
                errors.append(f"{where} must be an object")
                continue
            peak = entry.get("peak_bytes")
            if not isinstance(peak, int) or isinstance(peak, bool) or peak < 0:
                errors.append(f"{where}.peak_bytes must be a non-negative int")
                continue
            arrays = entry.get("arrays")
            if not isinstance(arrays, dict) or not arrays or not all(
                isinstance(v, int) and not isinstance(v, bool) and v >= 0
                for v in arrays.values()
            ):
                errors.append(
                    f"{where}.arrays must map names to non-negative ints"
                )
                continue
            total = sum(arrays.values())
            if total != peak:
                errors.append(
                    f"{where}: arrays sum to {total}, not peak_bytes {peak}"
                )
    return errors


def validate_file(path: str | Path) -> List[str]:
    """Validate one ``.json`` artefact; parse errors become problems."""
    path = Path(path)
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if isinstance(record, dict) and record.get("schema") in SIBLING_SCHEMAS:
        sibling = SIBLING_SCHEMAS[record["schema"]]
        return [f"{path.name}: {p}" for p in sibling(record)]
    problems = validate_record(record)
    if isinstance(record, dict) and record.get("name"):
        expected = f"{record['name']}.json"
        if path.name != expected:
            problems.append(
                f"file name {path.name!r} does not match record "
                f"name ({expected!r})"
            )
    return [f"{path.name}: {p}" for p in problems]


def validate_results_dir(directory: str | Path) -> List[str]:
    """Validate every ``*.json`` under a results directory.

    Also flags a ``.txt`` table that has no ``.json`` sibling, so a
    bench that forgot the JSON writer fails the tier-1 check.
    """
    directory = Path(directory)
    problems: List[str] = []
    for path in sorted(directory.glob("*.json")):
        problems.extend(validate_file(path))
    for txt in sorted(directory.glob("*.txt")):
        if not txt.with_suffix(".json").exists():
            problems.append(f"{txt.name}: missing JSON sibling")
    return problems
