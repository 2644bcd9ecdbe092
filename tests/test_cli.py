"""Command-line interface tests."""

import json

import pytest

from repro.cli import main


def test_decompose_file_summary(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n0 2\n2 3\n")
    assert main(["--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "k_max (degeneracy): 2" in out
    assert "vertices: 4" in out


def test_output_file(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n")
    dst = tmp_path / "cores.tsv"
    assert main(["--input", str(src), "--output", str(dst)]) == 0
    lines = dst.read_text().splitlines()
    assert lines == ["0\t2", "1\t2", "2\t2"]


def test_dataset_source(capsys):
    assert main(["--dataset", "amazon0601", "--algorithm", "bz"]) == 0
    out = capsys.readouterr().out
    assert "algorithm: bz" in out


def test_shells_and_top(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n0 2\n2 3\n")
    assert main(["--input", str(path), "--shells", "--top", "2"]) == 0
    out = capsys.readouterr().out
    assert "k=2: 3" in out
    assert "top 2 vertices" in out


def test_simulated_algorithm_reports_metrics(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n0 2\n")
    assert main(["--input", str(path), "--algorithm", "gpu-ours"]) == 0
    out = capsys.readouterr().out
    assert "simulated time" in out


def test_list_algorithms(capsys):
    assert main(["--list-algorithms"]) == 0
    out = capsys.readouterr().out
    assert "gpu-ours" in out
    assert "pkc" in out


def test_list_datasets(capsys):
    assert main(["--list-datasets"]) == 0
    out = capsys.readouterr().out
    assert "trackers" in out


def test_unknown_algorithm_exit_code(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n")
    assert main(["--input", str(path), "--algorithm", "nope"]) == 2
    assert "unknown algorithm" in capsys.readouterr().err


def test_unknown_dataset_exit_code(capsys):
    assert main(["--dataset", "nope"]) == 2
    assert "unknown dataset" in capsys.readouterr().err


def test_source_required():
    with pytest.raises(SystemExit):
        main([])


def test_sanitize_clean_run(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n0 2\n")
    assert main(["--input", str(path), "--algorithm", "gpu-ours",
                 "--sanitize"]) == 0
    out = capsys.readouterr().out
    assert "sanitizer:" in out
    assert "clean" in out


@pytest.mark.parametrize("flags", [
    ["--sanitize"], ["--staticheck"], ["--dataflow"], ["--ncu"],
    ["--engine", "reference"], ["--memtrace"], ["--critpath"],
], ids=lambda flags: flags[0])
def test_unsupported_algorithm(tmp_path, capsys, flags):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n")
    assert main(["--input", str(src), "--algorithm", "bz", *flags]) == 2
    err = capsys.readouterr().err
    assert flags[0] in err
    assert "supported: " in err


def test_staticheck_without_source_dumps_certificates(capsys):
    assert main(["--staticheck"]) == 0
    out = capsys.readouterr().out
    assert "variant ours:" in out
    assert "variant vw4:" in out
    assert "issued" in out


def test_staticheck_clean_run(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n0 2\n")
    assert main(["--input", str(path), "--algorithm", "gpu-ec+vp",
                 "--staticheck"]) == 0
    out = capsys.readouterr().out
    assert "staticheck:" in out
    assert "clean" in out


def test_staticheck_dump_writes_findings_artifact(tmp_path, capsys):
    out = tmp_path / "findings.json"
    assert main(["--staticheck", "--json", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["schema"] == "repro.findings/v1"
    assert record["tool"] == "cli-staticheck"
    assert record["report"]["findings"] == []


def test_dataflow_dump_writes_findings_artifact(tmp_path, capsys):
    out = tmp_path / "findings.json"
    assert main(["--dataflow", "--json", str(out)]) == 0
    assert "race-free" in capsys.readouterr().out
    record = json.loads(out.read_text())
    assert record["schema"] == "repro.findings/v1"
    assert record["tool"] == "cli-dataflow"
    assert record["report"]["findings"] == []
    # the dump iterates the contract registry, not a kernel list
    assert record["report"]["modules_linted"] > 22


def test_staticheck_run_writes_findings_artifact(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n0 2\n")
    out = tmp_path / "findings.json"
    assert main(["--input", str(path), "--algorithm", "gpu-ours",
                 "--staticheck", "--json", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["tool"] == "cli-staticheck"
    assert record["report"]["launches_checked"] > 0


def test_json_unwritable_path_fails_cleanly(tmp_path, capsys):
    missing = tmp_path / "nope"
    missing.write_text("a file, not a directory")
    out = missing / "findings.json"
    assert main(["--staticheck", "--json", str(out)]) == 1
    assert "cannot write findings" in capsys.readouterr().err


def test_profile_creates_missing_parent_dirs(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n")
    out = tmp_path / "deep" / "nested" / "trace.json"
    assert main(["--input", str(src), "--algorithm", "gpu-ours",
                 "--profile", str(out)]) == 0
    assert out.exists()
    assert "wrote trace" in capsys.readouterr().out


def test_profile_unwritable_path_is_a_clear_error(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a *file* where a directory is needed
    assert main(["--input", str(src), "--algorithm", "gpu-ours",
                 "--profile", str(blocker / "trace.json")]) == 1
    err = capsys.readouterr().err
    assert "cannot write trace" in err
    assert "Traceback" not in err


def test_ncu_prints_sol_table(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n2 3\n")
    assert main(["--input", str(src), "--algorithm", "gpu-ours",
                 "--ncu"]) == 0
    out = capsys.readouterr().out
    assert "Speed-of-Light" in out
    assert "scan_kernel" in out and "loop_kernel" in out


def test_ncu_writes_profile_and_flamegraph(tmp_path, capsys):
    from repro.profile import validate_profile

    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n2 3\n")
    out = tmp_path / "reports" / "profile.json"
    assert main(["--input", str(src), "--algorithm", "gpu-sm",
                 "--ncu", str(out)]) == 0
    record = json.loads(out.read_text())
    assert validate_profile(record) == []
    assert record["algorithm"] == "gpu-sm"
    folded = (tmp_path / "reports" / "profile.json.folded").read_text()
    assert folded.strip()
    assert "wrote profile" in capsys.readouterr().out


def test_ncu_unwritable_path_is_a_clear_error(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["--input", str(src), "--algorithm", "gpu-ours",
                 "--ncu", str(blocker / "p.json")]) == 1
    err = capsys.readouterr().err
    assert "cannot write profile" in err
    assert "Traceback" not in err


def test_memtrace_prints_timeline(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n2 3\n")
    assert main(["--input", str(src), "--algorithm", "gpu-ours",
                 "--memtrace"]) == 0
    out = capsys.readouterr().out
    assert "Memory telemetry: gpu-ours" in out
    assert "(context)" in out
    assert "findings: clean" in out


def test_memtrace_writes_valid_report(tmp_path, capsys):
    from repro.memtrace import validate_memtrace

    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n2 3\n")
    out = tmp_path / "reports" / "mt.json"
    assert main(["--input", str(src), "--algorithm", "gpu-sm",
                 "--memtrace", str(out)]) == 0
    record = json.loads(out.read_text())
    assert validate_memtrace(record) == []
    assert record["algorithm"] == "gpu-sm"
    assert "wrote memtrace" in capsys.readouterr().out


def test_memtrace_works_for_system_emulations(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n2 3\n")
    assert main(["--input", str(src), "--algorithm", "gswitch",
                 "--memtrace"]) == 0
    out = capsys.readouterr().out
    assert "Memory telemetry: gswitch" in out
    assert "gswitch.init" in out


# -- unified run reports (--report) ------------------------------------------

def test_report_prints_and_validates(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n2 3\n")
    assert main(["--input", str(src), "--algorithm", "gpu-ours",
                 "--report"]) == 0
    out = capsys.readouterr().out
    assert "Run report" in out
    assert "[gpu-ours]" in out
    assert "kernel scan_kernel" in out


def test_report_writes_valid_artifact(tmp_path, capsys):
    from repro.obs.runreport import SCHEMA_VERSION, validate_runreport

    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n2 3\n")
    out = tmp_path / "reports" / "rr.json"
    assert main(["--input", str(src),
                 "--algorithm", "gpu-ours,pkc,semi-external",
                 "--report", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["schema"] == SCHEMA_VERSION
    assert validate_runreport(record) == []
    assert [s["algorithm"] for s in record["sections"]] == [
        "gpu-ours", "pkc", "semi-external"
    ]
    assert "wrote run report (3 section(s))" in capsys.readouterr().out


def test_report_rejects_other_telemetry_flags(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n")
    assert main(["--input", str(src), "--algorithm", "gpu-ours",
                 "--report", "--sanitize", "--memtrace"]) == 2
    err = capsys.readouterr().err
    assert "--report" in err and "--sanitize" in err
    assert "--memtrace" in err


def test_report_rejects_unknown_algorithm(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n")
    assert main(["--input", str(src), "--algorithm", "gpu-ours,nope",
                 "--report"]) == 2
    assert "'nope'" in capsys.readouterr().err


def test_comma_list_without_report_hints(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n")
    assert main(["--input", str(src),
                 "--algorithm", "gpu-ours,pkc"]) == 2
    assert "comma-separated lists need --report" in capsys.readouterr().err


def test_report_unwritable_path_is_a_clear_error(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n0 2\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["--input", str(src), "--algorithm", "gpu-ours",
                 "--report", str(blocker / "rr.json")]) == 1
    err = capsys.readouterr().err
    assert "cannot write run report" in err
    assert "Traceback" not in err


# -- repro obs diff ----------------------------------------------------------

def _write_report(tmp_path, name, src_text="0 1\n1 2\n0 2\n2 3\n"):
    src = tmp_path / "g.txt"
    src.write_text(src_text)
    out = tmp_path / name
    assert main(["--input", str(src), "--algorithm", "gpu-ours",
                 "--report", str(out)]) == 0
    return out


def test_obs_diff_identical_reports(tmp_path, capsys):
    path = _write_report(tmp_path, "rr.json")
    capsys.readouterr()
    assert main(["obs", "diff", str(path), str(path)]) == 0
    out = capsys.readouterr().out
    assert "no regressions" in out
    assert "[gpu-ours] unchanged" in out


def test_obs_diff_flags_regression(tmp_path, capsys):
    path = _write_report(tmp_path, "old.json")
    record = json.loads(path.read_text())
    record["sections"][0]["simulated_ms"] *= 2.0
    worse = tmp_path / "new.json"
    worse.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["obs", "diff", str(path), str(worse)]) == 1
    captured = capsys.readouterr()
    assert "REGRESSIONS" in captured.out
    assert "regressed" in captured.out


def test_obs_diff_usage_errors(tmp_path, capsys):
    assert main(["obs", "diff", "only-one.json"]) == 2
    assert "usage" in capsys.readouterr().err
    assert main(["obs", "diff", str(tmp_path / "a.json"),
                 str(tmp_path / "b.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_obs_diff_warns_on_invalid_report(tmp_path, capsys):
    path = _write_report(tmp_path, "old.json")
    record = json.loads(path.read_text())
    record["sections"][0]["counters"]["kernel.scan.cycles"] += 1.0
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(record))
    capsys.readouterr()
    main(["obs", "diff", str(path), str(broken)])
    assert "warning" in capsys.readouterr().err
