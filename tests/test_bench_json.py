"""The bench JSON artefact schema and its validator.

Tier-1 guard for the machine-readable side of the bench harness: the
``repro.bench/v1`` records written next to every ``.txt`` table must
round-trip through :mod:`repro.bench.schema`, and the ``bench_json``
gate of ``scripts/gate.py`` must agree with the library.
"""

import json
from pathlib import Path

from repro.bench.schema import (
    SCHEMA_VERSION,
    build_record,
    validate_file,
    validate_record,
    validate_results_dir,
)
from repro.bench import tables

REPO_ROOT = Path(__file__).resolve().parents[1]


def sample_record():
    return build_record(
        "table9_sample",
        "Table IX: a sample",
        ["dataset", "ours", "other"],
        [["web-Google", 12.5, "OOM"], ["trackers", 3, 4]],
        qualitative={"ours_wins": True},
    )


def test_build_record_shape():
    record = sample_record()
    assert record["schema"] == SCHEMA_VERSION
    assert record["columns"] == ["dataset", "ours", "other"]
    assert record["rows"][0] == {
        "dataset": "web-Google", "cells": ["12.5", "OOM"]
    }
    assert record["qualitative"] == {"ours_wins": True}


def test_valid_record_passes():
    assert validate_record(sample_record()) == []


def test_validator_catches_problems():
    record = sample_record()
    record["schema"] = "repro.bench/v0"
    record["rows"][0]["cells"].append("extra")
    del record["rows"][1]["dataset"]
    problems = validate_record(record)
    assert any("schema" in p for p in problems)
    assert any("cells" in p and "columns" in p for p in problems)
    assert any("dataset" in p for p in problems)
    assert validate_record([]) != []


def test_write_json_roundtrip(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tables, "results_dir", lambda: tmp_path)
    path = tables.write_json(
        "table9_sample", "Table IX: a sample",
        ["dataset", "ours", "other"],
        [["web-Google", 12.5, "OOM"]],
    )
    assert path == tmp_path / "table9_sample.json"
    assert validate_file(path) == []
    assert validate_results_dir(tmp_path) == []


def test_txt_without_json_is_flagged(tmp_path):
    (tmp_path / "table9_sample.txt").write_text("Table IX\n")
    problems = validate_results_dir(tmp_path)
    assert problems and "missing JSON sibling" in problems[0]


def test_file_name_must_match_record_name(tmp_path):
    path = tmp_path / "wrong_name.json"
    path.write_text(json.dumps(sample_record()))
    problems = validate_file(path)
    assert any("does not match" in p for p in problems)


def test_checker_script_ok_and_fail(gate, tmp_path, capsys):
    good = tmp_path / "table9_sample.json"
    good.write_text(json.dumps(sample_record()))
    returncode = gate.run_gate("bench_json", targets=[good])
    out, err = capsys.readouterr()
    assert returncode == 0, err
    assert "OK" in out

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert gate.run_gate("bench_json", targets=[bad]) == 1
    assert "unreadable" in capsys.readouterr().err


def test_checked_in_results_validate():
    """Any committed benchmarks/results/*.json must conform."""
    results = REPO_ROOT / "benchmarks" / "results"
    problems = [
        p for path in sorted(results.glob("*.json"))
        for p in validate_file(path)
    ]
    assert problems == []


def sample_trajectory_entry():
    return {
        "date": "2026-08-08",
        "dataset": "web-Google",
        "runreport": {
            "sections": {
                "gpu-ours": {
                    "simulated_ms": 12.5, "peak_memory_bytes": 1024,
                },
                "pkc": {
                    "simulated_ms": 31.0, "peak_memory_bytes": 2048,
                },
            },
            "invariants_checked": 23,
        },
        "ok": True,
        "problems": 0,
    }


def validate_trajectory(record):
    from repro.bench.schema import SIBLING_SCHEMAS

    return SIBLING_SCHEMAS["repro.bench-trajectory/v1"](record)


def test_trajectory_runreport_payload_validates():
    record = {"schema": "repro.bench-trajectory/v1",
              "records": [sample_trajectory_entry()]}
    assert validate_trajectory(record) == []


def test_trajectory_runreport_payload_problems():
    broken_sections = sample_trajectory_entry()
    broken_sections["runreport"]["sections"]["gpu-ours"] = {
        "simulated_ms": "fast", "peak_memory_bytes": 1024,
    }
    missing_count = sample_trajectory_entry()
    del missing_count["runreport"]["invariants_checked"]
    not_an_object = sample_trajectory_entry()
    not_an_object["runreport"] = [1, 2]
    record = {
        "schema": "repro.bench-trajectory/v1",
        "records": [broken_sections, missing_count, not_an_object],
    }
    problems = validate_trajectory(record)
    assert any("records[0].runreport.sections" in p for p in problems)
    assert any("records[1].runreport.invariants_checked" in p
               for p in problems)
    assert any("records[2].runreport must be an object" in p
               for p in problems)


def test_trajectory_runreport_counts_as_a_payload():
    entry = sample_trajectory_entry()
    del entry["runreport"]
    record = {"schema": "repro.bench-trajectory/v1", "records": [entry]}
    problems = validate_trajectory(record)
    assert any("needs a" in p for p in problems)
