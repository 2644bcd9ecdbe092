"""Machine-readable bench results: the ``repro.bench/v1`` record.

Every table bench persists, next to its fixed-width ``.txt`` artefact,
a JSON file with the same rows in a stable schema so downstream tools
(regression dashboards, the paper-comparison notebook) never have to
parse the pretty-printed text: a ``name``, a ``title``, the
``columns`` (``"dataset"`` first), one row per dataset with its
``cells``, a ``qualitative`` dict and, for memory tables, a
per-allocation ``attribution`` (see :func:`build_record`).

``cells`` are kept as the rendered strings (they carry non-numeric
outcomes such as ``"OOM"`` and ``"> 1hr"`` exactly as the paper prints
them); ``qualitative`` is a free-form dict of booleans/numbers that a
bench uses to record the shape claims its assertions checked.

Each format here — the table record and the profile-baseline,
trajectory and memory-baseline records that live next to it — declares
its shape once, as a spec checked by :mod:`repro.obs.shape`; its
validator keeps only what a spec cannot state: a row's cell count
against the columns, attribution keys naming a row and a column and
arrays summing exactly to their peak, a trajectory entry carrying a
payload, and a memory baseline's ordering naming pinned variants.
:func:`validate_record` returns a list of problems (empty = valid);
``scripts/gate.py bench_json`` and the tier-1 test
``tests/test_bench_json.py`` are thin wrappers around it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence

from repro.obs.shape import (
    BOOL,
    NAT,
    NUMBER,
    OBJECT,
    STR,
    TEXT,
    Leaf,
    MapOf,
    nonempty,
    nullable,
    one_of,
    optional,
    shape_problems,
)

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

_NUMBERS = MapOf(NUMBER)
_PROFILE_BASELINE = {
    "dataset": TEXT,
    "tolerance": Leaf(
        lambda v: NUMBER.test(v) and 0.0 < v <= 1.0, "a number in (0, 1]"
    ),
    "variants": nonempty(MapOf({
        "cycles": Leaf(lambda v: NUMBER.test(v) and v > 0, "positive"),
        "bounds": MapOf(one_of(*_BOUND_CLASSES)),
    })),
}
_TRAJECTORY = {
    "records": [{
        "date": TEXT,
        "dataset": TEXT,
        "ok": BOOL,
        "cycles": optional(_NUMBERS),
        "peaks": optional(_NUMBERS),
        "engine_speedup": optional({
            "speedup": nonempty(_NUMBERS),
            "geomean": NUMBER,
            "reference_ms": optional(_NUMBERS),
            "vectorized_ms": optional(_NUMBERS),
        }),
        "runreport": optional({
            "sections": nonempty(MapOf(
                {"simulated_ms": NUMBER, "peak_memory_bytes": NUMBER}
            )),
            "invariants_checked": NUMBER,
        }),
        "critpath": optional({
            "programs": nonempty(MapOf(
                {"best_scenario": STR, "best_ceiling": NUMBER}
            )),
            "round_bounds": optional(MapOf(_NUMBERS)),
            "invariants_checked": NUMBER,
        }),
    }],
}
#: the payloads of a trajectory entry, which carries at least one
_PAYLOADS = ("cycles", "peaks", "engine_speedup", "runreport", "critpath")
_PEAKS = nonempty(MapOf(
    Leaf(lambda v: NAT.test(v) and v > 0, "a positive integer (exact bytes)")
))
_NAMES = nonempty([STR])
_MEMORY_BASELINE = {
    "dataset": TEXT,
    "variants": _PEAKS,
    "systems": _PEAKS,
    "ordering": {"minimal_tie": _NAMES, "above": _NAMES},
    "oom": optional(nullable({"dataset": TEXT, "systems": _NAMES})),
}
_ROW = {"dataset": TEXT, "cells": [STR]}
_RECORD = {
    "schema": one_of(SCHEMA_VERSION),
    "name": TEXT,
    "title": TEXT,
    "columns": _NAMES,
    "rows": [_ROW],
    "qualitative": optional(OBJECT),
    "attribution": optional(MapOf(nonempty(MapOf(
        {"peak_bytes": NAT, "arrays": nonempty(MapOf(NAT))}
    )))),
}


def _validate_profile_baseline(record: Dict[str, Any]) -> List[str]:
    """Structural check of a ``repro.profile-baseline/v1`` record, the
    committed baseline of the ``perf`` gate of ``scripts/gate.py`` (the
    deep arithmetic checks live with the profiler)."""
    return shape_problems(record, _PROFILE_BASELINE, "")


def _validate_trajectory(record: Dict[str, Any]) -> List[str]:
    """Check a ``repro.bench-trajectory/v1`` record; each entry carries
    at least one payload its spec names: the perf gate's ``cycles``, the
    memory gate's ``peaks``, a dated host wall-clock ``engine_speedup``
    (see ``docs/SIMULATOR.md``), or the ``runreport`` and ``critpath``
    gates' summaries."""
    problems = shape_problems(record, _TRAJECTORY, "")
    if problems:
        return problems
    return [
        f"records[{i}] needs a payload: one of {', '.join(_PAYLOADS)}"
        for i, entry in enumerate(record["records"])
        if not any(key in entry for key in _PAYLOADS)
    ]


def _validate_memory_baseline(record: Dict[str, Any]) -> List[str]:
    """Check a ``repro.memory-baseline/v1`` record: the exact peak bytes
    of every kernel variant and system emulation on one dataset, plus
    Table V's ordering claims over pinned variants; consumed by
    ``scripts/gate.py memory``."""
    problems = shape_problems(record, _MEMORY_BASELINE, "")
    if problems:
        return problems
    return [
        f"ordering.{key} names unknown variant {name!r}"
        for key in ("minimal_tie", "above")
        for name in record["ordering"][key]
        if name not in record["variants"]
    ]


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
    shape = shape_problems(record, _RECORD, "")
    if not isinstance(record, dict):
        return shape
    problems = list(shape)
    columns, rows = record.get("columns"), record.get("rows")
    if not shape_problems(columns, _NAMES, "") and isinstance(rows, list):
        problems += [
            f"rows[{i}] has {len(row['cells'])} cells for "
            f"{len(columns) - 1} value columns"
            for i, row in enumerate(rows)
            if not shape_problems(row, _ROW, "")
            and len(row["cells"]) != len(columns) - 1
        ]
    if not shape and "attribution" in record:
        problems += _validate_attribution(
            record["attribution"], columns, rows
        )
    return problems


def _validate_attribution(
    attribution: Dict[str, Any], columns: List[str], rows: List[Any]
) -> List[str]:
    """Check a bench record's memory-attribution block against its
    table.

    The headline invariant: every entry's arrays sum *exactly* (integer
    equality, no tolerance) to its ``peak_bytes`` — an attribution that
    does not add up is worse than none.
    """
    problems: List[str] = []
    datasets = {row["dataset"] for row in rows}
    for dataset, per_algo in attribution.items():
        if datasets and dataset not in datasets:
            problems.append(
                f"attribution[{dataset}] does not match any row dataset"
            )
        for algo, entry in per_algo.items():
            where = f"attribution[{dataset}][{algo}]"
            if algo not in columns[1:]:
                problems.append(f"{where} does not match any value column")
            total = sum(entry["arrays"].values())
            if total != entry["peak_bytes"]:
                problems.append(
                    f"{where}: arrays sum to {total}, not peak_bytes "
                    f"{entry['peak_bytes']}"
                )
    return problems


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
