"""Cross-engine byte-identity (hypothesis).

The execution-engine contract (``docs/SIMULATOR.md``): every engine
produces byte-identical simulated results — core numbers, simulated
milliseconds, rounds, memory peaks, counters and stats — and may
differ only in host wall-clock time.  The reference interpreter is
ground truth; these properties pin the vectorized engine against it,
run totals and every launch's stats, on generated graphs across
every kernel variant, including the ones the vectorized engine serves
via structural fallback (``vw2``/``vw4``, ring buffers), and under
cost models the vectorized executors decline as well as ones they
replay.  Every vectorized launch runs the compiled C replay and
fold, so these properties pin them against the interpreter.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.host import GpuPeelOptions, gpu_peel
from repro.core.multigpu import multi_gpu_peel
from repro.core.variants import EXTENSION_VARIANTS, VARIANTS
from repro.gpusim.costmodel import CostModel
from repro.gpusim.device import Device
from repro.graph import generators as gen

ALL_VARIANTS = tuple(VARIANTS) + tuple(EXTENSION_VARIANTS)

#: the default model, two the executors replay off its values, and
#: four they decline: shared charges they hard-code, and folded global
#: charges off the quarter-integer grid
COST_MODELS = (
    CostModel(),
    CostModel(global_load_latency=13.75, global_atomic_base=5.5),
    CostModel(global_atomic_conflict=3.0),
    CostModel(shared_access_cycles=2.0),
    CostModel(shared_atomic_base=4.0),
    CostModel(global_load_latency=13.7),
    CostModel(global_atomic_base=5.9),
)


def _strip_engine(result):
    """A result's comparable payload, minus the engine attribution."""
    counters = {
        k: v for k, v in result.counters.items()
        if not k.startswith("engine.")
    }
    stats = {k: v for k, v in result.stats.items() if k != "engine"}
    return counters, stats


def assert_byte_identical(ref, other):
    assert np.array_equal(ref.core, other.core)
    assert ref.simulated_ms == other.simulated_ms  # bit-exact, no tolerance
    assert ref.rounds == other.rounds
    assert ref.peak_memory_bytes == other.peak_memory_bytes
    assert _strip_engine(ref) == _strip_engine(other)


def peel_on_devices(graph, variant, cost=None, **instruments):
    """``gpu_peel`` under each engine on a device of its own: the two
    results and the two devices, reference first."""
    devices = [
        Device(cost_model=cost, engine=engine)
        for engine in ("reference", "vectorized")
    ]
    results = [
        gpu_peel(graph, variant=variant, device=device, **instruments)
        for device in devices
    ]
    return results, devices


def assert_launches_identical(ref_device, other_device):
    """Every launch's :class:`KernelStats`, field for field, except the
    tier that served it: a charge that moves no run total (an
    ``issued`` sum while no block is issue-bound, say) still shows."""
    assert_stats_identical(ref_device.launch_log, other_device.launch_log)


def assert_stats_identical(ref_log, other_log):
    """Two launch logs' :class:`KernelStats`, launch by launch, as
    :func:`assert_launches_identical` compares them."""
    assert len(ref_log) == len(other_log)
    for i, (ref, other) in enumerate(zip(ref_log, other_log)):
        assert dataclasses.replace(other, served_by=ref.served_by) == ref, (
            f"launch {i}: {other} != {ref}"
        )


@st.composite
def graphs(draw):
    kind = draw(st.sampled_from(("planted", "er", "ba")))
    seed = draw(st.integers(min_value=0, max_value=200))
    if kind == "planted":
        return gen.planted_core(
            draw(st.integers(min_value=40, max_value=160)),
            core_size=draw(st.integers(min_value=8, max_value=24)),
            core_degree=6,
            background_degree=2.5,
            seed=seed,
        )
    if kind == "er":
        return gen.erdos_renyi(
            draw(st.integers(min_value=30, max_value=200)),
            draw(st.floats(min_value=1.0, max_value=10.0)),
            seed=seed,
        )
    return gen.barabasi_albert(
        draw(st.integers(min_value=30, max_value=250)),
        draw(st.integers(min_value=2, max_value=6)),
        seed=seed,
    )


@given(graphs(), st.sampled_from(ALL_VARIANTS), st.sampled_from(COST_MODELS))
@settings(max_examples=25, deadline=None)
def test_vectorized_matches_reference_byte_for_byte(graph, variant, cost):
    (ref, vec), devices = peel_on_devices(graph, variant, cost)
    assert "engine.reference" in ref.counters
    assert_byte_identical(ref, vec)
    assert_launches_identical(*devices)
    assert "engine.vectorized" in vec.counters


@given(graphs(), st.sampled_from(("ours", "vp", "ec+sm")))
@settings(max_examples=8, deadline=None)
def test_engines_agree_under_observability_hooks(graph, variant):
    """Hooks attach identically: profiled+memtraced runs stay equal,
    per-block timings included."""
    (ref, vec), devices = peel_on_devices(
        graph, variant, profile=True, memtrace=True
    )
    assert_byte_identical(ref, vec)
    assert_launches_identical(*devices)
    assert ref.profile is not None and vec.profile is not None
    assert ref.profile.to_json() == vec.profile.to_json()
    assert ref.memtrace.peak_bytes == vec.memtrace.peak_bytes


@given(graphs(), st.integers(min_value=1, max_value=8),
       st.sampled_from(ALL_VARIANTS))
@settings(max_examples=8, deadline=None)
def test_multi_gpu_peel_is_engine_invariant(graph, num_devices, variant):
    """Every worker's scan runs over its window (``vertex_lo > 0`` on
    all but the first) and its loop with an ownership window; each
    launch's stats, per-block timings included, match."""
    ref, ref_log = multi_gpu_launches(graph, num_devices, variant,
                                      "reference")
    vec, vec_log = multi_gpu_launches(graph, num_devices, variant,
                                      "vectorized")
    assert_byte_identical(ref, vec)
    assert_worker_launches_identical(ref_log, vec_log)


def multi_gpu_launches(graph, num_devices, variant, engine):
    """A critpath-profiled ``multi_gpu_peel`` run and every worker
    launch as ``(device name, stats)``, in launch order."""
    log = []
    launch = Device.launch

    def recorded(device, *args, **kwargs):
        stats = launch(device, *args, **kwargs)
        log.append((device.name, stats))
        return stats

    with mock.patch.object(Device, "launch", recorded):
        result = multi_gpu_peel(graph, num_devices=num_devices,
                                variant=variant, engine=engine,
                                critpath=True)
    return result, log


def assert_worker_launches_identical(ref_log, other_log):
    """Two :func:`multi_gpu_launches` logs: the same devices launch in
    the same order, and each launch's stats match."""
    assert [name for name, _ in ref_log] == [name for name, _ in other_log]
    assert_stats_identical(
        [stats for _, stats in ref_log], [stats for _, stats in other_log]
    )


@given(graphs())
@settings(max_examples=6, deadline=None)
def test_options_engine_equals_argument_engine(graph):
    """The engine keyword is the one knob; options alongside it keep it."""
    via_options = gpu_peel(
        graph, options=GpuPeelOptions(), engine="reference"
    )
    via_argument = gpu_peel(graph, engine="reference")
    assert_byte_identical(via_options, via_argument)
    assert via_options.stats["engine"] == "reference"
