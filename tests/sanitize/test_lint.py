"""Static lint: every rule fires on its fixture, shipped kernels pass."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.sanitize import lint_file, lint_repo, lint_source
from repro.sanitize.lint import default_kernel_paths, lint_paths

FIXTURES = Path(__file__).parent / "bad_kernels.py"
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def findings_by_function():
    grouped = {}
    for finding in lint_file(FIXTURES):
        grouped.setdefault(finding.kernel.split(":")[-1], []).append(finding)
    return grouped


class TestRulesFire:
    def test_illegal_yield(self, findings_by_function):
        found = findings_by_function["illegal_yield_kernel"]
        assert any(f.detector == "illegal-yield" for f in found)
        finding = next(f for f in found if f.detector == "illegal-yield")
        assert "'sync'" in finding.message
        assert finding.sites[0].startswith("bad_kernels.py:")

    def test_wall_clock(self, findings_by_function):
        found = findings_by_function["wall_clock_kernel"]
        hits = [f for f in found if f.detector == "wall-clock"]
        # time.time() twice + datetime.datetime.now() once
        assert len(hits) == 3
        assert any("time.time" in f.message for f in hits)
        assert any("datetime" in f.message for f in hits)

    def test_rng(self, findings_by_function):
        found = findings_by_function["rng_kernel"]
        hits = [f for f in found if f.detector == "rng"]
        assert any("random.random" in f.message for f in hits)
        assert any("np.random" in f.message for f in hits)

    def test_host_mutation(self, findings_by_function):
        found = findings_by_function["host_mutation_kernel"]
        hits = [f for f in found if f.detector == "host-mutation"]
        # deg[0] = ..., out.data[1] = ..., deg += 1
        mutated = {f.message.split("'")[1] for f in hits}
        assert mutated == {"deg", "out"}
        assert len(hits) == 3

    def test_unsynced_shared(self, findings_by_function):
        found = findings_by_function["unsynced_shared_kernel"]
        hits = [f for f in found if f.detector == "unsynced-shared"]
        assert len(hits) == 1
        assert hits[0].severity == "warning"
        assert "'head'" in hits[0].message
        # provenance carries both the read and the write line
        assert len(hits[0].sites) == 2

    def test_clean_kernel_has_no_findings(self, findings_by_function):
        assert "clean_kernel" not in findings_by_function

    def test_racecheck_fixtures_not_flagged_for_structure(
        self, findings_by_function
    ):
        """Dynamic fixtures whose bug is invisible statically (global
        races, barrier divergence) pass the lint; the shared-memory ones
        are statically suspicious too and earn the warning."""
        for name in ("global_write_race", "barrier_divergence",
                     "global_race_fixed", "ballot_fixed"):
            assert name not in findings_by_function, name
        for name in ("shared_write_write_race", "ballot_after_unsynced_write"):
            assert [f.detector for f in findings_by_function[name]] == [
                "unsynced-shared"
            ]


class TestLintMechanics:
    def test_non_ctx_functions_ignored(self):
        assert lint_source(
            "import time\n"
            "def host_side(graph):\n"
            "    return time.time()\n"
        ) == []

    def test_barrier_clears_pending_writes(self):
        source = (
            "def kernel(ctx):\n"
            "    if ctx.warp_id == 0:\n"
            "        ctx.smem_set('x', 1)\n"
            "    yield ctx.BARRIER\n"
            "    ctx.smem_get('x')\n"
        )
        assert lint_source(source) == []

    def test_missing_barrier_flagged(self):
        source = (
            "def kernel(ctx):\n"
            "    if ctx.warp_id == 0:\n"
            "        ctx.smem_set('x', 1)\n"
            "    ctx.smem_get('x')\n"
            "    yield ctx.STEP\n"
        )
        findings = lint_source(source)
        assert [f.detector for f in findings] == ["unsynced-shared"]

    def test_loop_wraparound_detected(self):
        source = (
            "def kernel(ctx):\n"
            "    while True:\n"
            "        ctx.smem_get('tail')\n"
            "        if ctx.warp_id == 0:\n"
            "            ctx.smem_set('tail', 0)\n"
            "        yield ctx.STEP\n"
        )
        findings = lint_source(source)
        assert any(f.detector == "unsynced-shared" for f in findings)

    def test_suppression_comment(self):
        source = (
            "def kernel(ctx):\n"
            "    yield 'custom'  # sanitize: ok\n"
        )
        assert lint_source(source) == []

    def test_helper_without_yield_is_checked_too(self):
        source = (
            "import time\n"
            "def warp_helper(ctx, buf):\n"
            "    buf[0] = time.time()\n"
        )
        detectors = {f.detector for f in lint_source(source)}
        assert detectors == {"wall-clock", "host-mutation"}


class TestShippedKernelsPass:
    def test_default_paths_cover_core_and_systems(self):
        paths = default_kernel_paths()
        names = {p.parent.name for p in paths}
        assert names == {"core", "systems"}
        stems = {p.stem for p in paths}
        assert {"scan_kernel", "loop_kernel", "gunrock", "medusa"} <= stems

    def test_lint_repo_clean(self):
        report = lint_repo()
        assert report.clean, report.summary()
        assert report.modules_linted >= 10

    def test_lint_paths_counts_modules(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "def kernel(ctx):\n    yield 'bad'\n", encoding="utf-8"
        )
        (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
        report = lint_paths([tmp_path])
        assert report.modules_linted == 2
        assert [f.detector for f in report.findings] == ["illegal-yield"]

    def test_cli_script_clean_on_repo(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "gate.py"), "lint"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_cli_script_fails_on_fixtures(self, gate, capsys):
        assert gate.run_gate("lint", paths=[FIXTURES]) == 1
        assert "illegal-yield" in capsys.readouterr().out
