"""Self-test of the benchmark: one pass of every workload on its
smallest input, untraced and traced.

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict

import numpy as np
import pytest

import layers
import run
import workloads
from repro.cpu.bz import bz_core_numbers
from repro.graph import datasets

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _one_pass(workload: str, traced: bool):
    calls = workloads.workload_calls(workload, smallest_only=True)
    recorder = layers.Recorder() if traced else None
    if recorder is not None:
        recorder.install()
    try:
        inputs = workloads.build_inputs(calls, seed=0)
        oracle = {d: bz_core_numbers(g) for d, g in inputs.items()}
        if recorder is not None:
            recorder.end_setup()
            recorder.enabled = True
        out = workloads.measure(calls, inputs, oracle, seed=0, passes=1)
        metrics = None
        if recorder is not None:
            recorder.enabled = False
            metrics = recorder.metrics(calls, inputs, out, passes=1)
        return workloads.summarize(calls, inputs, out), out, recorder, metrics
    finally:
        if recorder is not None:
            recorder.uninstall()


@pytest.fixture(scope="module", params=run.WORKLOADS)
def passes(request):
    return (request.param, _one_pass(request.param, traced=False),
            _one_pass(request.param, traced=True))


def test_names_and_units_match_benchmark_json(passes):
    _, (summary, *_), (_, _, _, per_layer) = passes
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        run.END_TO_END_UNITS.items()
    )
    setup = {"setup_s": 1.0, "setup_reference_s": run.REFERENCE_S}
    printed = run.end_to_end(summary, [setup])
    assert list(printed) == list(run.END_TO_END_UNITS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        layers.PER_LAYER_UNITS.items()
    )
    assert list(per_layer) == list(layers.PER_LAYER_UNITS)


def test_every_call_agrees_with_bz(passes):
    _, (untraced, *_), (traced, *_) = passes
    assert untraced["failures"] == [] and traced["failures"] == []


def test_traced_pass_is_byte_identical_to_untraced(passes):
    _, (untraced, *_), (traced, *_) = passes
    assert None not in untraced["digests"]
    assert traced["digests"] == untraced["digests"]


def test_self_times_sum_to_root_call_time(passes):
    _, _, (_, out, recorder, per_layer) = passes
    self_time = recorder.self_times()
    per_call = defaultdict(float)
    for span in recorder.spans:
        per_call[span[2]] += self_time[span[0]]
    roots = [s for s in recorder.spans if s[1] is None]
    assert len(roots) == len(out.samples)
    for root in roots:
        assert per_call[root[0]] == pytest.approx(root[5] - root[4], rel=0.01)
    shares = sum(per_layer[f"{layer}.self_share"]
                 for layer in layers.SELF_TIME_LAYERS)
    assert shares == pytest.approx(1.0, rel=0.01)


def test_seed0_ablation_matches_committed_table2():
    table = json.loads(
        (run.ROOT / "benchmarks/results/table2_ablation.json").read_text()
    )
    columns = table["columns"][1:]
    cells = {row["dataset"]: dict(zip(columns, row["cells"]))
             for row in table["rows"]}
    calls = workloads.workload_calls("ablation", smallest_only=True)
    inputs = workloads.build_inputs(calls, seed=0)
    for call in calls:
        result = workloads.run_call(call, inputs[call.dataset])
        variant = call.algorithm.removeprefix("gpu-")
        assert f"{result.simulated_ms:.3f}" == cells[call.dataset][variant]


def test_seed1_relabelling_keeps_core_multiset():
    names = sorted({c.dataset for w in run.WORKLOADS
                    for c in workloads.workload_calls(w)})
    for name in names:
        graph = datasets.load(name)
        moved = workloads.relabel(graph, 1, name)
        assert moved != graph
        np.testing.assert_array_equal(
            np.sort(bz_core_numbers(moved)), np.sort(bz_core_numbers(graph))
        )


def test_run_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark exits non-zero, no result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "ablation"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
