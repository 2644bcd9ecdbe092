"""Smoke tests: every example script must run end to end.

Each script runs in-process once; the output checks below reuse that
run.
"""

import contextlib
import functools
import io
import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
SCRIPTS = sorted(path.name for path in EXAMPLES.glob("*.py"))


@functools.lru_cache(maxsize=None)
def _output(name: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("name", SCRIPTS)
def test_example_runs(name):
    assert _output(name).strip(), name


def test_quickstart():
    out = _output("quickstart.py")
    assert "Core numbers:" in out
    assert "Simulated GPU run" in out
    assert "web-Google analogue" in out


def test_gpu_anatomy():
    out = _output("gpu_anatomy.py")
    assert "Ablation (Table II, this graph):" in out
    assert "Buffer overflow" in out


def test_examples_have_docstrings_and_main():
    for script in EXAMPLES.glob("*.py"):
        text = script.read_text()
        assert text.lstrip().startswith(('#!/usr/bin/env python3', '"""')), script
        assert '__main__' in text, script
        assert 'def main(' in text, script


def test_example_count():
    """The deliverable requires at least three runnable examples."""
    assert len(list(EXAMPLES.glob("*.py"))) >= 3
