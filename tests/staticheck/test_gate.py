"""CI-gate tests: the ``static_bounds`` gate of scripts/gate.py passes
on the committed bench JSON and demonstrably fails on doctored data;
the ``admission`` gate's verdict depends only on the call it is in."""

from __future__ import annotations

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
RESULTS = REPO_ROOT / "benchmarks" / "results"


def run(gate, *tables):
    names = ("table2", "table5")
    return gate.run_gate("static_bounds", **dict(zip(names, tables)))


def _doctor(tmp_path, name, mutate):
    record = json.loads((RESULTS / f"{name}.json").read_text())
    mutate(record)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(record))
    return str(path)


def test_gate_passes_on_committed_json(gate, capsys):
    assert run(gate) == 0
    assert "OK" in capsys.readouterr().out


def test_gate_fails_when_ours_bc_ec_ordering_shifts(gate, tmp_path, capsys):
    def swap_ours_and_ec(record):
        columns = record["columns"]
        i_ours, i_ec = columns.index("ours") - 1, columns.index("ec") - 1
        cells = record["rows"][5]["cells"]
        cells[i_ours], cells[i_ec] = cells[i_ec], cells[i_ours]

    table2 = _doctor(tmp_path, "table2_ablation", swap_ours_and_ec)
    assert run(gate, table2) == 1
    err = capsys.readouterr().err
    assert "ordering shifted" in err


def test_gate_fails_when_trackers_winner_shifts(gate, tmp_path, capsys):
    def ours_wins_trackers(record):
        columns = record["columns"]
        i_ours, i_vp = columns.index("ours") - 1, columns.index("vp") - 1
        for row in record["rows"]:
            if row["dataset"] == "trackers":
                row["cells"][i_ours] = row["cells"][i_vp]  # tie: vp no
                # longer strictly wins

    table2 = _doctor(tmp_path, "table2_ablation", ours_wins_trackers)
    assert run(gate, table2) == 1
    assert "latency-boundness" in capsys.readouterr().err


def test_gate_fails_when_certificate_ceiling_is_violated(gate, tmp_path,
                                                         capsys):
    def absurd_time(record):
        record["rows"][0]["cells"][0] = "999999.0"

    table2 = _doctor(tmp_path, "table2_ablation", absurd_time)
    assert run(gate, table2) == 1
    err = capsys.readouterr().err
    assert "ceiling" in err


def test_gate_fails_when_memory_row_breaks_certificate(gate, tmp_path,
                                                       capsys):
    def inflate_sm(record):
        columns = record["columns"]
        i_sm = columns.index("gpu-sm") - 1
        record["rows"][0]["cells"][i_sm] = "9.99"

    table5 = _doctor(tmp_path, "table5_memory", inflate_sm)
    assert run(gate, RESULTS / "table2_ablation.json", table5) == 1
    assert "certified" in capsys.readouterr().err


def test_gate_exits_2_for_missing_file(gate, capsys):
    assert run(gate, "/nonexistent/table2.json") == 2


def test_admission_failure_does_not_leak_into_the_next_call(
    gate, monkeypatch, capsys
):
    monkeypatch.setattr(gate.admission, "certify_program", lambda name: {})
    assert gate.run_gate("admission", quick=True) == 1
    assert "certified zero variants" in capsys.readouterr().err
    monkeypatch.undo()
    assert gate.run_gate("admission", quick=True) == 0
