"""The unified run report: schema, invariants, rendering, diffing.

A clean full-telemetry run must produce a ``repro.runreport/v1`` record
that validates with zero problems, and the validator must detect every
tampered cross-layer invariant — each test below breaks exactly one
figure and asserts the corresponding check fires.  The fixture runs the
same three-vertical matrix the CI gate uses (one GPU peel, one
multicore baseline, one semi-external disk run) on a small graph.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.graph import generators as gen
from repro.obs.runreport import (
    SCHEMA_VERSION,
    RunReport,
    collect_run_report,
    diff_runreports,
    render_runreport,
    validate_runreport,
)

ALGORITHMS = ("gpu-ours", "pkc", "semi-external")


@pytest.fixture(scope="module")
def full_report():
    """One report covering all three telemetry verticals, plus results."""
    graph = gen.planted_core(120, core_size=15, core_degree=7, seed=3)
    report, results = collect_run_report(
        graph, list(ALGORITHMS), dataset="planted-120"
    )
    return report, results


@pytest.fixture
def record(full_report):
    """A deep copy of the validated record, safe to tamper with."""
    report, _ = full_report
    return copy.deepcopy(report.to_json())


def _section(record, algorithm):
    for sec in record["sections"]:
        if sec["algorithm"] == algorithm:
            return sec
    raise AssertionError(f"no section for {algorithm!r}")


# -- the clean path ----------------------------------------------------------

def test_clean_report_validates(full_report):
    report, _ = full_report
    assert report.validate() == []


def test_report_shape_and_section_lookup(full_report):
    report, results = full_report
    assert len(report.sections) == len(results)
    record = report.to_json()
    assert record["schema"] == SCHEMA_VERSION
    assert record["dataset"] == "planted-120"
    for name in ALGORITHMS:
        sec = report.section(name)
        assert sec is not None and sec["algorithm"] == name
    assert report.section("nope") is None


def test_every_vertical_is_covered(full_report):
    report, _ = full_report
    gpu = report.section("gpu-ours")
    assert gpu["profile"] is not None and gpu["profile"]["kernels"]
    assert gpu["engine"] is not None
    multicore = report.section("pkc")
    assert multicore["multicore"] is not None
    assert multicore["multicore"]["epochs"]
    disk = report.section("semi-external")
    assert "disk.passes" in disk["counters"]
    for sec in report.sections:
        assert sec["memtrace"] is not None
        assert sec["trace"] is not None


def test_write_roundtrips_through_json(full_report, tmp_path):
    report, _ = full_report
    path = tmp_path / "report.json"
    report.write(str(path))
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert loaded == report.to_json()
    assert validate_runreport(loaded) == []


def test_render_mentions_each_vertical(full_report):
    report, _ = full_report
    text = report.render()
    assert "Run report: planted-120" in text
    assert "[gpu-ours]" in text and "[pkc]" in text
    assert "kernel scan_kernel" in text
    assert "multicore:" in text
    assert "disk:" in text
    assert "memory: peak" in text
    assert "trace:" in text
    assert render_runreport(report.to_json()) == text


# -- validator failure modes (one tampered invariant each) -------------------

def _expect_problem(record, fragment):
    problems = validate_runreport(record)
    assert any(fragment in p for p in problems), (
        f"expected a problem mentioning {fragment!r}, got {problems!r}"
    )


def test_rejects_wrong_schema(record):
    record["schema"] = "repro.runreport/v0"
    _expect_problem(record, "schema")


def test_rejects_non_object_and_empty_sections(record):
    assert validate_runreport([]) == ["run report must be a JSON object"]
    record["sections"] = []
    _expect_problem(record, "non-empty")


def test_rejects_non_numeric_core_fields(record):
    _section(record, "gpu-ours")["simulated_ms"] = "fast"
    _expect_problem(record, "simulated_ms")


def test_rejects_non_numeric_counter(record):
    _section(record, "gpu-ours")["counters"]["device.cycles"] = "many"
    _expect_problem(record, "not numeric")


def test_detects_rounds_counter_mismatch(record):
    _section(record, "gpu-ours")["counters"]["host.rounds"] += 1
    _expect_problem(record, "host.rounds")


def test_detects_tampered_memtrace_peak(record):
    sec = _section(record, "gpu-ours")
    sec["memtrace"]["peak_bytes"] += 64
    _expect_problem(record, "memtrace peak_bytes")


def test_detects_tampered_kernel_cycles(record):
    sec = _section(record, "gpu-ours")
    sec["counters"]["kernel.scan.cycles"] += 1.0
    problems = validate_runreport(record)
    # both the profile and the trace disagree with the tampered counter
    assert any("profile cycles" in p for p in problems)
    assert any("traced span cycles" in p for p in problems)


def test_detects_tampered_launch_attribution(record):
    sec = _section(record, "gpu-ours")
    sec["counters"]["device.kernel_launches"] += 1.0
    problems = validate_runreport(record)
    assert any("device.kernel_launches" in p for p in problems)
    assert any("engine.served" in p for p in problems)


def test_detects_tampered_frontier_total(record):
    _section(record, "gpu-ours")["counters"]["frontier.total"] += 1.0
    _expect_problem(record, "frontier.total")


def test_detects_broken_epoch_tiling(record):
    sec = _section(record, "pkc")
    sec["multicore"]["epochs"][1]["start_ms"] += 0.25
    _expect_problem(record, "tile the timeline")


def test_detects_non_rederivable_epoch_end(record):
    sec = _section(record, "pkc")
    epoch = sec["multicore"]["epochs"][0]
    epoch["end_ms"] += 0.5
    _expect_problem(record, "re-derive")


def test_detects_wrong_bound_class(record):
    sec = _section(record, "pkc")
    epoch = sec["multicore"]["epochs"][0]
    epoch["bound"] = (
        "atomic" if epoch["bound"] != "atomic" else "compute"
    )
    _expect_problem(record, "bound")


def test_detects_bound_histogram_mismatch(record):
    sec = _section(record, "pkc")
    hist = sec["multicore"]["bound_histogram"]
    hist["compute"] = hist.get("compute", 0) + 1
    _expect_problem(record, "bound_histogram")


def test_detects_barrier_counter_mismatch(record):
    sec = _section(record, "pkc")
    sec["counters"]["cpu.barriers"] += 1.0
    _expect_problem(record, "cpu.barriers")


def test_detects_broken_disk_arithmetic(record):
    sec = _section(record, "semi-external")
    sec["counters"]["disk.page_in_bytes"] += 4096.0
    _expect_problem(record, "disk.page_in_bytes")


def test_detects_incomplete_disk_counters(record):
    sec = _section(record, "semi-external")
    del sec["counters"]["disk.page_in_bytes"]
    _expect_problem(record, "incomplete disk")


def test_detects_traced_resident_peak_mismatch(record):
    sec = _section(record, "semi-external")
    sec["trace"]["counter_track_peaks"]["disk.resident_bytes"] += 1.0
    _expect_problem(record, "disk.resident_bytes")


def _set(algorithm, path, value):
    """A tamper that sets ``path`` (keys from the section down) to
    ``value`` in the ``algorithm`` section."""
    def tamper(record):
        node = _section(record, algorithm)
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return tamper


#: malformed sections, each reported as a problem, never raised
MALFORMED = {
    "profile-string": _set("gpu-ours", ["profile"], "x"),
    "profile-list": _set("gpu-ours", ["profile"], []),
    "memtrace-string": _set("pkc", ["memtrace"], "x"),
    "multicore-list": _set("pkc", ["multicore"], ["x"]),
    "trace-string": _set("semi-external", ["trace"], "x"),
    "profile-launches": _set("gpu-ours", ["profile", "launches"], "x"),
    "profile-kernels": _set("gpu-ours", ["profile", "kernels"], []),
    "profile-summary": _set("gpu-ours", ["profile", "summary"], None),
    "epochs-not-a-list": _set("pkc", ["multicore", "epochs"], "x"),
    "launch-dominated": _set(
        "gpu-ours", ["profile", "launches", 0, "dominated", "compute"], "x"
    ),
    "kernel-dominated": _set(
        "gpu-ours",
        ["profile", "kernels", "scan_kernel", "dominated", "memory"], None,
    ),
    "round-dominated": _set(
        "gpu-ours", ["profile", "rounds", 0, "dominated", "latency"], "x"
    ),
    "summary-dominated": _set(
        "gpu-ours", ["profile", "summary", "dominated", "compute"], [],
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_section_is_reported(record, case):
    MALFORMED[case](record)
    assert validate_runreport(record) != []


# -- diffing -----------------------------------------------------------------

def test_diff_of_identical_reports_is_clean(record):
    rendered, regressions = diff_runreports(record, record)
    assert not regressions
    assert "no regressions" in rendered
    assert "unchanged" in rendered


def test_diff_flags_grown_time_as_regression(record):
    worse = copy.deepcopy(record)
    _section(worse, "gpu-ours")["simulated_ms"] *= 2.0
    rendered, regressions = diff_runreports(record, worse)
    assert regressions
    assert "REGRESSIONS" in rendered
    assert "simulated_ms" in rendered and "regressed" in rendered


def test_diff_improvement_is_not_a_regression(record):
    better = copy.deepcopy(record)
    _section(better, "gpu-ours")["simulated_ms"] *= 0.5
    rendered, regressions = diff_runreports(record, better)
    assert not regressions
    assert "improved" in rendered


def test_diff_flags_kernel_bound_flip(record):
    flipped = copy.deepcopy(record)
    kernels = _section(flipped, "gpu-ours")["profile"]["kernels"]
    name, agg = next(iter(kernels.items()))
    agg["bound"] = "latency" if agg["bound"] != "latency" else "compute"
    rendered, regressions = diff_runreports(record, flipped)
    assert regressions
    assert f"kernel {name}: bound flipped" in rendered


def test_diff_reports_one_sided_sections(record):
    only_gpu = copy.deepcopy(record)
    only_gpu["sections"] = [_section(only_gpu, "gpu-ours")]
    rendered, _ = diff_runreports(only_gpu, record)
    assert "only in NEW report" in rendered


# -- single-result construction ----------------------------------------------

def test_from_result_matches_collected_section(full_report):
    _, results = full_report
    single = RunReport.from_result(results[0])
    assert len(single.sections) == 1
    assert single.sections[0]["algorithm"] == results[0].algorithm
    assert single.validate() == []
