"""Unit tests for the execution-engine layer (`repro.gpusim.engine`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fastsim import native_flush_available
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
from tests.conftest import needs_cc
from tests.properties.test_engines import (
    assert_byte_identical,
    assert_worker_launches_identical,
    multi_gpu_launches,
)


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


@needs_cc
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


@needs_cc
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
    left = {}
    for engine in ("reference", "vectorized"):
        device = Device(engine=engine)
        with pytest.raises(BufferOverflowError):
            gpu_peel(
                graph, device=device,
                options=GpuPeelOptions(buffer_capacity=1),
            )
        left[engine] = [
            device.memory.get(name).data.copy()
            for name in ("buf", "buf_tails")
        ]
    # the declined launch wrote nothing before the reference re-ran it:
    # the partial state is the reference interpreter's, slot for slot
    for ref, vec in zip(left["reference"], left["vectorized"]):
        assert np.array_equal(ref, vec)


@pytest.mark.parametrize(
    "warp_size", (16, pytest.param(32, marks=needs_cc), 64)
)
def test_other_warp_sizes_are_served_by_reference(warp_size):
    """Both executors count lanes, trips and scan chunks in 32-lane
    warps, so at any other warp size each launch declines and the
    reference interpreter serves it."""
    from repro.gpusim.spec import DeviceSpec
    from repro.graph.generators import barabasi_albert

    graph = barabasi_albert(300, 3, seed=1)
    spec = DeviceSpec(warp_size=warp_size, default_block_dim=128)
    ref = gpu_peel(graph, spec=spec, engine="reference")
    vec = gpu_peel(graph, spec=spec, engine="vectorized")
    assert_byte_identical(ref, vec)
    launches = vec.counters["kernel.scan.launches"] \
        + vec.counters["kernel.loop.launches"]
    tier = "vectorized" if warp_size == 32 else "reference"
    assert vec.counters[f"engine.served.{tier}"] == launches


@pytest.mark.parametrize("costs, tier", [
    pytest.param({"global_load_latency": 13.75, "global_atomic_base": 5.5},
                 "vectorized", marks=needs_cc),
    ({"shared_access_cycles": 2.0}, "reference"),
    ({"shared_atomic_base": 4.0}, "reference"),
    ({"shared_atomic_conflict": 0.5}, "reference"),
    ({"global_load_latency": 13.7}, "reference"),
    ({"global_atomic_base": 5.9}, "reference"),
])
def test_cost_models_off_the_replayed_charges_are_served_by_reference(
    costs, tier
):
    """Both executors hard-code the shared charges and fold the global
    load and atomic charges in bulk, which is exact only on the
    quarter-integer grid: a cost model off those charges declines every
    launch, and one on them is replayed."""
    from repro.gpusim.costmodel import CostModel
    from repro.graph.generators import barabasi_albert

    graph = barabasi_albert(300, 4, seed=1)
    cost = CostModel(**costs)
    ref = gpu_peel(graph, engine="reference", cost_model=cost)
    vec = gpu_peel(graph, engine="vectorized", cost_model=cost)
    assert_byte_identical(ref, vec)
    launches = vec.counters["kernel.scan.launches"] \
        + vec.counters["kernel.loop.launches"]
    assert vec.counters[f"engine.served.{tier}"] == launches


def test_a_zero_issue_width_raises_as_the_reference_does():
    """The reference's roofline divides by the issue width and raises;
    the C fold would not, so such a launch declines and the
    interpreter raises."""
    from repro.gpusim.costmodel import CostModel

    graph, _ = fig1_graph()
    for engine in ("reference", "vectorized"):
        with pytest.raises(ZeroDivisionError):
            gpu_peel(graph, engine=engine,
                     cost_model=CostModel(issue_width=0.0))


@needs_cc
@pytest.mark.parametrize("num_sms", (1, 3, 8))
def test_the_fold_matches_reference_per_sm_count(num_sms):
    """Four blocks on one SM, on three (SM 0 runs blocks 0 and 3) and
    on eight (four idle SMs): every launch's stats, cycles included,
    are the reference's."""
    from repro.gpusim.spec import DeviceSpec
    from repro.graph.generators import barabasi_albert
    from tests.properties.test_engines import assert_launches_identical

    graph = barabasi_albert(300, 4, seed=1)
    devices = [
        Device(spec=DeviceSpec(num_sms=num_sms), engine=engine)
        for engine in ("reference", "vectorized")
    ]
    ref, vec = (gpu_peel(graph, device=device) for device in devices)
    assert_byte_identical(ref, vec)
    assert_launches_identical(*devices)
    assert all(s.served_by == "vectorized" for s in devices[1].launch_log)


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


@pytest.fixture(scope="module")
def big_hub():
    """One hub with 5,399 edges: a loop flush sweeps over 5,000 edges."""
    from repro.graph import generators as gen

    return gen.hub_and_spokes(
        6000, num_hubs=1, hub_degree_fraction=0.9, tail_degree=6.0, seed=11
    )


def _assert_every_launch_vectorized(graph, variant):
    """The vectorized executors serve every launch and match the
    reference."""
    ref = gpu_peel(graph, variant=variant, engine="reference")
    vec = gpu_peel(graph, variant=variant, engine="vectorized")
    assert_byte_identical(ref, vec)
    launches = vec.counters["kernel.scan.launches"] \
        + vec.counters["kernel.loop.launches"]
    assert vec.counters["engine.served.vectorized"] == launches


@needs_cc
@pytest.mark.parametrize("variant", ("ours", "sm", "vp", "ec+sm"))
def test_big_hub_flush_matches_reference(big_hub, variant):
    _assert_every_launch_vectorized(big_hub, variant)


@pytest.fixture(scope="module")
def big_matching():
    """A perfect matching on 12,000 vertices: the scan at k = 1 finds
    every vertex, far more hits than any Table I analogue's scan."""
    from repro.graph.csr import CSRGraph

    graph = CSRGraph.from_edges([(2 * i, 2 * i + 1) for i in range(6000)])
    assert graph.num_vertices == 12_000 and graph.max_degree == 1
    return graph


@needs_cc
@pytest.mark.parametrize("variant", ("ours", "bc", "ec"))
def test_big_scan_matches_reference(big_matching, variant):
    """One variant per compaction scheme (per-lane atomics, warp
    ballot, block scan) through the scan's walk over 12,000 hits."""
    _assert_every_launch_vectorized(big_matching, variant)


def test_big_hub_multi_gpu_matches_reference(big_hub):
    """Both workers' scans (the second at ``vertex_lo > 0``) and loops,
    launch by launch, all served by the C replays where ``cc`` is."""
    ref, ref_log = multi_gpu_launches(big_hub, 2, "ours", "reference")
    vec, vec_log = multi_gpu_launches(big_hub, 2, "ours", "vectorized")
    assert_byte_identical(ref, vec)
    assert_worker_launches_identical(ref_log, vec_log)
    if native_flush_available():
        assert all(stats.served_by == "vectorized" for _, stats in vec_log)
