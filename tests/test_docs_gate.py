"""The ``docs`` gate of scripts/gate.py: pages name only real scripts
and call ``repro`` functions with real keywords."""

from __future__ import annotations


def test_docs_gate_flags_a_phantom_script(gate, tmp_path, capsys):
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "gate.py").write_text("")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "GUIDE.md").write_text(
        "Run `python scripts/gate.py`, not `python scripts/check_old.py`.\n"
    )
    # history pages may name scripts that no longer exist
    (tmp_path / "CHANGES.md").write_text("Removed scripts/check_old.py.\n")
    assert gate.run_gate("docs", root=tmp_path) == 1
    err = capsys.readouterr().err
    assert "docs/GUIDE.md:1: no such script scripts/check_old.py" in err
    assert "CHANGES.md" not in err
    assert "scripts/gate.py" not in err


def test_docs_gate_flags_a_phantom_keyword(gate, tmp_path, capsys):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "GUIDE.md").write_text(
        "```python\n"
        "from repro.core.multigpu import multi_gpu_peel\n"
        "result = multi_gpu_peel(graph, num_devices=2)\n"
        "result = multi_gpu_peel(graph, num_gpus=4, sanitize=True)\n"
        "```\n"
        "```python\n"
        "not python at all\n"
        "```\n"
    )
    assert gate.run_gate("docs", root=tmp_path) == 1
    err = capsys.readouterr().err
    assert "docs/GUIDE.md:4: multi_gpu_peel() has no keyword num_gpus=" in err
    assert "num_devices" not in err
