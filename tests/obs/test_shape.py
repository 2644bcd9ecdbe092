"""Every ``repro.*/v1`` validator reports malformed input, never raises.

A deterministic single-leaf tamper sweep: each leaf of a small valid
record is replaced once per tamper value (a bool by its negation; a
number by ``v + 1``, ``-1``, ``"x"`` and ``None``; a string by
``v + "x"``, ``""`` and ``1``; ``None`` by ``1`` and ``"x"``), and each
non-root container by ``"x"``, ``None`` and the empty container of the
other kind.  Every validator call must return a list; for run reports,
``diff_runreports(valid, tampered)`` must return too.  The run-report
sweep is subsampled with a fixed seed to keep the test fast.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

import pytest

from repro import api
from repro.bench.schema import SIBLING_SCHEMAS, build_record, validate_record
from repro.core.host import gpu_peel
from repro.graph import generators as gen
from repro.memtrace import validate_memtrace
from repro.obs.runreport import (
    collect_run_report,
    diff_runreports,
    validate_runreport,
)
from repro.profile import validate_profile

RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

#: the run-report sweep is subsampled to this many tampers (fixed seed)
RUNREPORT_TAMPERS = 400


def _tampers(value):
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, (int, float)):
        return [value + 1, -1, "x", None]
    if isinstance(value, str):
        return [value + "x", "", 1]
    if value is None:
        return [1, "x"]
    return ["x", None, [] if isinstance(value, dict) else {}]


def _slots(node):
    """``(container, key)`` of every non-root value, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        yield node, key
        if isinstance(child, (dict, list)):
            yield from _slots(child)


def _small_graph():
    return gen.planted_core(
        60, core_size=10, core_degree=5, background_degree=2.0, seed=7
    )


def _profile():
    record = gpu_peel(_small_graph(), variant="vp", profile=True)
    return record.profile.to_json(), validate_profile


def _memtrace():
    result = api.decompose(_small_graph(), "gpu-multi2", memtrace=True)
    return result.memtrace.to_json(), validate_memtrace


def _runreport():
    report, _ = collect_run_report(
        _small_graph(), ["gpu-ours", "pkc", "semi-external", "gpu-multi2"]
    )
    return report.to_json(), validate_runreport


def _bench():
    record = build_record(
        "table9_sample", "Table IX: a sample", ["dataset", "ours", "other"],
        [["web-Google", 12.5, "OOM"], ["trackers", 3, 4]],
        qualitative={"ours_wins": True},
        attribution={"trackers": {
            "ours": {"peak_bytes": 12, "arrays": {"(context)": 4, "deg": 8}},
        }},
    )
    return record, validate_record


def _sibling(name):
    def load():
        record = json.loads((RESULTS / name).read_text())
        return record, SIBLING_SCHEMAS[record["schema"]]

    return load


FORMATS = {
    "profile": _profile,
    "memtrace": _memtrace,
    "runreport": _runreport,
    "bench": _bench,
    "trajectory": _sibling("BENCH_trajectory.json"),
    "memory-baseline": _sibling("memory_baseline.json"),
    "profile-baseline": _sibling("profile_baseline.json"),
}


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_no_validator_raises(name):
    record, validate = FORMATS[name]()
    assert validate(record) == []
    valid = copy.deepcopy(record)
    tampers = [
        (container, key, bad)
        for container, key in _slots(record)
        for bad in _tampers(container[key])
    ]
    if name == "runreport":
        tampers = random.Random(0).sample(tampers, RUNREPORT_TAMPERS)
    for container, key, bad in tampers:
        original, container[key] = container[key], bad
        try:
            assert isinstance(validate(record), list)
            if name == "runreport":
                assert isinstance(diff_runreports(valid, record)[0], str)
        finally:
            container[key] = original
    assert record == valid
