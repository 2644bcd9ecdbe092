"""The shared single-device run driver (``repro.core.run``).

``gpu_peel`` and ``gpu_bfs`` wire their instruments through one
:class:`~repro.core.run.DeviceRun`, and every instrument has one route:
its keyword argument.
"""

from dataclasses import fields

from repro.core.bfs_kernel import gpu_bfs
from repro.core.decomposer import KCoreDecomposer
from repro.core.host import GpuPeelOptions, gpu_peel
from repro.gpusim.device import Device
from repro.graph.examples import fig1_graph


def test_bfs_attaches_instruments_to_a_prebuilt_device():
    graph, _ = fig1_graph()
    result = gpu_bfs(graph, device=Device(), sanitize=True, memtrace=True)
    assert result.sanitizer is not None and result.sanitizer.clean
    assert result.sanitizer.launches_checked == result.stats[
        "kernel_launches"
    ]
    assert result.memtrace is not None
    assert result.memtrace.peak_bytes == result.peak_memory_bytes


def test_dataflow_predicts_the_fuzzing_of_the_device_that_runs():
    # a preempting device routes every launch to the reference
    # interpreter; the engine-precondition prediction must know that
    graph, _ = fig1_graph()
    device = Device(preempt_prob=0.3, seed=1)
    result = gpu_peel(graph, device=device, dataflow=True)
    assert result.staticheck.clean, result.staticheck.summary()
    assert result.staticheck.launches_checked == result.stats[
        "kernel_launches"
    ]
    assert result.counters["engine.served.reference"] \
        == result.stats["kernel_launches"]


def test_simulate_mode_instruments_land_on_the_result():
    # options carry tunables only; instruments are keywords, so a
    # decomposer holding both can no longer drop one for the other
    assert [f.name for f in fields(GpuPeelOptions)] == [
        "variant", "buffer_capacity", "time_budget_ms", "preempt_prob",
        "seed",
    ]
    graph, expected = fig1_graph()
    result = KCoreDecomposer(
        mode="simulate", options=GpuPeelOptions(variant="vp"),
        sanitize=True, staticheck=True, profile=True, memtrace=True,
        critpath=True,
    ).decompose(graph)
    assert result.algorithm == "gpu-vp"
    assert result.core.tolist() == [expected[v] for v in sorted(expected)]
    assert result.sanitizer is not None and result.sanitizer.clean
    assert result.staticheck is not None and result.staticheck.clean
    assert result.profile is not None
    assert result.memtrace is not None
    assert result.critpath is not None
