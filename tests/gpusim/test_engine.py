"""Unit tests for the execution-engine layer (`repro.gpusim.engine`)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.fastsim  # noqa: F401  (registers vectorized executors)
from repro.core.host import gpu_peel
from repro.core.loop_kernel import loop_kernel
from repro.core.scan_kernel import scan_kernel
from repro.errors import ReproError
from repro.gpusim.device import Device
from repro.gpusim.engine import (
    DEFAULT_ENGINE,
    ExecutionEngine,
    ReferenceEngine,
    VectorizedEngine,
    _VECTORIZED_KERNELS,
    available_engines,
    get_engine,
)
from repro.graph.examples import fig1_graph


def test_available_engines_reference_first():
    names = available_engines()
    assert names[0] == "reference"
    assert names == ("reference", "vectorized")
    assert DEFAULT_ENGINE in names


def test_get_engine_resolves_names_and_caches():
    ref = get_engine("reference")
    assert isinstance(ref, ReferenceEngine)
    assert ref is get_engine("reference")  # cached singleton
    assert isinstance(get_engine("vectorized"), VectorizedEngine)


def test_get_engine_none_is_the_default():
    assert get_engine(None).name == DEFAULT_ENGINE
    assert get_engine().name == DEFAULT_ENGINE


def test_get_engine_passes_instances_through():
    engine = VectorizedEngine()
    assert get_engine(engine) is engine


def test_get_engine_unknown_name():
    with pytest.raises(ValueError, match="unknown execution engine"):
        get_engine("cuda")


def test_engine_repr_carries_name():
    assert "vectorized" in repr(get_engine("vectorized"))


def test_abstract_engine_run_is_not_implemented():
    graph, _ = fig1_graph()
    with pytest.raises(NotImplementedError):
        gpu_peel(graph, engine=ExecutionEngine())


def test_both_kernels_have_registered_executors():
    assert scan_kernel in _VECTORIZED_KERNELS
    assert loop_kernel in _VECTORIZED_KERNELS


def test_device_records_engine_name():
    assert Device().engine.name == DEFAULT_ENGINE
    assert Device(engine="reference").engine.name == "reference"


def test_result_attribution_counter_stats_and_span():
    graph, _ = fig1_graph()
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    result = gpu_peel(graph, engine="vectorized", tracer=tracer)
    assert result.counters.get("engine.vectorized") == 1.0
    assert result.stats["engine"] == "vectorized"
    kernel_spans = [e for e in tracer.events
                    if e.get("cat") == "kernel" and "args" in e]
    assert kernel_spans, "expected kernel spans on the trace"
    assert all(
        s["args"].get("engine") == "vectorized" for s in kernel_spans
    )


def test_virtual_warp_variants_fall_back_to_reference():
    """vw2/vw4 decline vectorization but still succeed byte-identically."""
    graph, _ = fig1_graph()
    for variant in ("vw2", "vw4"):
        ref = gpu_peel(graph, variant=variant, engine="reference")
        vec = gpu_peel(graph, variant=variant, engine="vectorized")
        assert np.array_equal(vec.core, ref.core)
        assert ref.simulated_ms == vec.simulated_ms
        # `engine.*` attribution records the *selected* engine; the
        # per-launch `engine.served.*` counters record which tier
        # actually executed each launch (the structural fallback here)
        assert vec.stats["engine"] == "vectorized"
        rounds = vec.counters["host.rounds"]
        # scan launches vectorize; every loop launch structurally
        # declines (cfg.virtual_warps > 1) and is served by reference
        assert vec.counters["engine.served.vectorized"] == rounds
        assert vec.counters["engine.served.reference"] == rounds


def test_ring_buffer_variant_serves_every_launch_by_reference():
    """Both executors decline ring addressing before touching state."""
    import dataclasses

    from repro.core.variants import get_variant

    graph, expected = fig1_graph()
    ring = dataclasses.replace(
        get_variant("ours"), name="ours+ring", ring_buffer=True
    )
    result = gpu_peel(graph, variant=ring, engine="vectorized")
    assert [int(c) for c in result.core] == [
        expected[v] for v in range(graph.num_vertices)
    ]
    launches = result.counters["kernel.scan.launches"] \
        + result.counters["kernel.loop.launches"]
    assert result.counters["engine.served.reference"] == launches
    assert "engine.served.vectorized" not in result.counters


def test_monitored_launches_are_served_by_reference():
    """A sanitizer monitor needs the shadow log only the interpreter
    produces, so every monitored launch carries its serving stamp."""
    graph, _ = fig1_graph()
    result = gpu_peel(graph, engine="vectorized", sanitize=True)
    launches = result.counters["kernel.scan.launches"] \
        + result.counters["kernel.loop.launches"]
    assert result.counters["engine.served.reference"] == launches
    assert "engine.served.vectorized" not in result.counters


def test_preempting_launches_are_served_by_reference():
    """preempt_prob > 0 must interleave at the interpreter's yields."""
    from repro.core.host import GpuPeelOptions

    graph, _ = fig1_graph()
    result = gpu_peel(
        graph, engine="vectorized",
        options=GpuPeelOptions(preempt_prob=0.05, seed=7),
    )
    launches = result.counters["kernel.scan.launches"] \
        + result.counters["kernel.loop.launches"]
    assert result.counters["engine.served.reference"] == launches
    assert "engine.served.vectorized" not in result.counters


def test_duplicate_adjacency_routes_loop_launches_to_reference():
    """Parallel edges defeat the replay's per-vertex dedup assumption:
    the loop executor declines dynamically, scan still vectorizes."""
    from repro.graph.csr import CSRGraph

    # `from_*` constructors deduplicate, so build the multigraph's CSR
    # arrays directly: vertex 0 and 1 each list the other twice.
    graph = CSRGraph(
        offsets=np.array([0, 3, 6, 8]),
        neighbors=np.array([1, 1, 2, 0, 0, 2, 0, 1]),
    )
    ref = gpu_peel(graph, engine="reference")
    vec = gpu_peel(graph, engine="vectorized")
    assert np.array_equal(vec.core, ref.core)
    assert ref.simulated_ms == vec.simulated_ms
    assert vec.counters["engine.served.vectorized"] \
        == vec.counters["kernel.scan.launches"]
    assert vec.counters["engine.served.reference"] \
        == vec.counters["kernel.loop.launches"]


def test_predicted_overflow_raises_the_reference_error():
    """An overflowing buffer is declined up front, and the reference
    interpreter raises the same typed error the contract demands."""
    from repro.core.host import GpuPeelOptions
    from repro.errors import BufferOverflowError
    from repro.graph.generators import ring_of_cliques

    graph = ring_of_cliques(num_cliques=4, clique_size=8)
    for engine in ("reference", "vectorized"):
        with pytest.raises(BufferOverflowError):
            gpu_peel(
                graph, engine=engine,
                options=GpuPeelOptions(buffer_capacity=1),
            )


def test_sanitized_run_is_identical_under_vectorized_engine():
    """A monitor routes launches to the interpreter; results match."""
    graph, _ = fig1_graph()
    plain = gpu_peel(graph, engine="vectorized")
    sanitized = gpu_peel(graph, engine="vectorized", sanitize=True)
    assert sanitized.sanitizer is not None
    assert sanitized.sanitizer.clean
    assert plain.simulated_ms == sanitized.simulated_ms
    assert np.array_equal(plain.core, sanitized.core)


def test_unknown_engine_name_via_gpu_peel():
    graph, _ = fig1_graph()
    with pytest.raises((ValueError, ReproError), match="unknown"):
        gpu_peel(graph, engine="warp-drive")
