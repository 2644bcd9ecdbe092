"""Memory-regression gate tests: passes fresh, fails on doctored input.

Drives the ``memory`` gate of ``scripts/gate.py`` — the runner CI
uses — against small purpose-built baselines (three variants + one
system on the smallest dataset) so the failure modes the acceptance
criteria demand — an injected 2x peak and a flipped Table V ordering —
are demonstrated by tests, not just by hand.
"""

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "benchmarks" / "results" / "memory_baseline.json"


@pytest.fixture(scope="module")
def committed_baseline():
    return json.loads(BASELINE.read_text())


def small_baseline(committed, **overrides):
    """The committed baseline trimmed to a fast four-program subset."""
    record = {
        "schema": "repro.memory-baseline/v1",
        "dataset": committed["dataset"],
        "variants": {
            name: committed["variants"][name]
            for name in ("gpu-ours", "gpu-sm", "gpu-vp", "gpu-ec")
        },
        "systems": {"gswitch": committed["systems"]["gswitch"]},
        "ordering": {
            "minimal_tie": ["gpu-ours", "gpu-sm", "gpu-vp"],
            "above": ["gpu-ec"],
        },
    }
    record.update(overrides)
    return record


def write(tmp_path, record):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(record))
    return str(path)


def run(gate, path, **options):
    options.setdefault("trajectory", None)
    return gate.run_gate("memory", baseline=path, quick=True, **options)


def test_committed_baseline_is_schema_valid(committed_baseline):
    from repro.bench.schema import SIBLING_SCHEMAS

    validator = SIBLING_SCHEMAS["repro.memory-baseline/v1"]
    assert validator(committed_baseline) == []
    assert set(committed_baseline["ordering"]["minimal_tie"]) == {
        "gpu-ours", "gpu-sm", "gpu-vp"
    }
    assert committed_baseline["oom"]["dataset"] == "it-2004"


def test_gate_passes_on_fresh_measurements(
    gate, committed_baseline, tmp_path, capsys
):
    path = write(tmp_path, small_baseline(committed_baseline))
    assert run(gate, path) == 0
    assert "OK" in capsys.readouterr().out


def test_gate_fails_on_injected_2x_peak(
    gate, committed_baseline, tmp_path, capsys
):
    record = small_baseline(committed_baseline)
    record["variants"]["gpu-ours"] *= 2
    assert run(gate, write(tmp_path, record)) == 1
    assert "peak" in capsys.readouterr().err


def test_gate_fails_on_flipped_ordering(
    gate, committed_baseline, tmp_path, capsys
):
    record = small_baseline(committed_baseline)
    record["ordering"] = {
        "minimal_tie": ["gpu-ours", "gpu-sm", "gpu-vp", "gpu-ec"],
        "above": [],
    }
    assert run(gate, write(tmp_path, record)) == 1
    assert "no longer tie" in capsys.readouterr().err


def test_gate_writes_artifacts(gate, committed_baseline, tmp_path):
    from repro.memtrace import validate_memtrace_file

    path = write(tmp_path, small_baseline(committed_baseline))
    report = tmp_path / "memory_timelines.txt"
    memjson = tmp_path / "memtrace.json"
    assert run(gate, path, artifacts=tmp_path) == 0
    assert "Memory telemetry" in report.read_text()
    assert validate_memtrace_file(memjson) == []


def test_gate_appends_peaks_trajectory(gate, committed_baseline, tmp_path):
    from repro.bench.schema import SIBLING_SCHEMAS

    baseline = write(tmp_path, small_baseline(committed_baseline))
    trajectory = tmp_path / "trajectory.json"
    assert run(gate, baseline, trajectory=trajectory) == 0
    record = json.loads(trajectory.read_text())
    assert SIBLING_SCHEMAS["repro.bench-trajectory/v1"](record) == []
    (entry,) = record["records"]
    assert entry["peaks"]["gpu-ours"] > 0
    assert entry["ok"] is True


def test_gate_rejects_missing_or_invalid_baseline(gate, tmp_path):
    assert run(gate, tmp_path / "missing.json") == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope"}))
    assert run(gate, bad) == 2
