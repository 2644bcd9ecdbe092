"""CI-gate tests: the ``perf`` gate of scripts/gate.py passes on the
committed baseline and demonstrably fails on doctored budgets."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
RESULTS = REPO_ROOT / "benchmarks" / "results"
BASELINE = RESULTS / "profile_baseline.json"


def run(gate, baseline, **options):
    options.setdefault("trajectory", None)
    return gate.run_gate("perf", baseline=baseline, **options)


def _doctor(tmp_path, mutate, only=("ours",)):
    """A doctored baseline restricted to ``only`` (keeps tests fast)."""
    record = json.loads(BASELINE.read_text())
    record["variants"] = {
        name: record["variants"][name] for name in only
    }
    record.pop("vp_check", None)
    mutate(record)
    path = tmp_path / "profile_baseline.json"
    path.write_text(json.dumps(record))
    return str(path)


def test_gate_passes_on_committed_baseline(gate, tmp_path, capsys):
    trajectory = tmp_path / "trajectory.json"
    assert run(gate, BASELINE, trajectory=trajectory) == 0
    assert "OK" in capsys.readouterr().out
    record = json.loads(trajectory.read_text())
    assert record["schema"] == gate.TRAJECTORY_SCHEMA
    assert len(record["records"]) == 1
    entry = record["records"][0]
    assert entry["ok"] is True
    assert set(entry["cycles"]) == set(
        json.loads(BASELINE.read_text())["variants"]
    )


def test_gate_fails_on_2x_slowdown(gate, tmp_path, capsys):
    # halving the committed budget makes the fresh run look 2x slower
    def halve_budget(record):
        record["variants"]["ours"]["cycles"] /= 2.0

    baseline = _doctor(tmp_path, halve_budget)
    assert run(gate, baseline, quick=True) == 1
    assert "performance regression" in capsys.readouterr().err


def test_gate_fails_on_stale_baseline(gate, tmp_path, capsys):
    def double_budget(record):
        record["variants"]["ours"]["cycles"] *= 2.0

    baseline = _doctor(tmp_path, double_budget)
    assert run(gate, baseline, quick=True) == 1
    assert "stale baseline" in capsys.readouterr().err


def test_gate_fails_on_flipped_bound_class(gate, tmp_path, capsys):
    def flip_bound(record):
        bounds = record["variants"]["ours"]["bounds"]
        assert bounds["loop_kernel"] != "memory"
        bounds["loop_kernel"] = "memory"

    baseline = _doctor(tmp_path, flip_bound)
    assert run(gate, baseline, quick=True) == 1
    assert "roofline balance moved" in capsys.readouterr().err


def test_gate_writes_ci_artifacts(gate, tmp_path, capsys):
    report = tmp_path / "artifacts" / "sol_report.txt"
    flame = tmp_path / "artifacts" / "profile.folded"
    baseline = _doctor(tmp_path, lambda record: None)
    assert run(gate, baseline, quick=True,
               artifacts=tmp_path / "artifacts") == 0
    assert "Speed-of-Light" in report.read_text()
    folded = flame.read_text().strip().splitlines()
    assert folded and all(
        line.rsplit(" ", 1)[1].isdigit() for line in folded
    )


def test_gate_appends_to_existing_trajectory(gate, tmp_path):
    trajectory = tmp_path / "trajectory.json"
    baseline = _doctor(tmp_path, lambda record: None)
    assert run(gate, baseline, quick=True, trajectory=trajectory) == 0
    assert run(gate, baseline, quick=True, trajectory=trajectory) == 0
    record = json.loads(trajectory.read_text())
    assert len(record["records"]) == 2


@pytest.mark.parametrize("history", [
    {"schema": "repro.bench-trajectory/v0", "records": [{}] * 37},
    {"schema": "repro.bench-trajectory/v1", "records": {"0": {}}},
], ids=["other-schema", "non-list-records"])
def test_gate_refuses_to_overwrite_foreign_trajectory(
    gate, tmp_path, capsys, history
):
    trajectory = tmp_path / "trajectory.json"
    trajectory.write_text(json.dumps(history))
    before = trajectory.read_bytes()
    baseline = _doctor(tmp_path, lambda record: None)
    assert run(gate, baseline, quick=True, trajectory=trajectory) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert trajectory.read_bytes() == before


def test_update_keeps_every_pinned_block(gate, tmp_path):
    baseline = tmp_path / "profile_baseline.json"
    baseline.write_bytes(BASELINE.read_bytes())
    assert run(gate, baseline, quick=True, update=True) == 0
    repinned = json.loads(baseline.read_text())
    committed = json.loads(BASELINE.read_text())
    assert list(repinned) == list(committed)
    assert repinned["vp_check"] == committed["vp_check"]


def test_gate_exits_2_for_missing_baseline(gate, capsys):
    assert run(gate, "/nonexistent/profile_baseline.json") == 2
    assert "no such file" in capsys.readouterr().err
