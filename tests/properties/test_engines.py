"""Cross-engine byte-identity (hypothesis).

The execution-engine contract (``docs/SIMULATOR.md``): every engine
produces byte-identical simulated results — core numbers, simulated
milliseconds, rounds, memory peaks, counters and stats — and may
differ only in host wall-clock time.  The reference interpreter is
ground truth; these properties pin the vectorized engine against it
on generated graphs across
every kernel variant, including the ones the vectorized engine serves
via structural fallback (``vw2``/``vw4``, ring buffers).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.host import GpuPeelOptions, gpu_peel
from repro.core.multigpu import multi_gpu_peel
from repro.core.variants import EXTENSION_VARIANTS, VARIANTS
from repro.graph import generators as gen

ALL_VARIANTS = tuple(VARIANTS) + tuple(EXTENSION_VARIANTS)


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


@given(graphs(), st.sampled_from(ALL_VARIANTS))
@settings(max_examples=25, deadline=None)
def test_vectorized_matches_reference_byte_for_byte(graph, variant):
    ref = gpu_peel(graph, variant=variant, engine="reference")
    vec = gpu_peel(graph, variant=variant, engine="vectorized")
    assert_byte_identical(ref, vec)
    assert "engine.reference" in ref.counters
    assert "engine.vectorized" in vec.counters


@given(graphs(), st.sampled_from(("ours", "vp", "ec+sm")))
@settings(max_examples=8, deadline=None)
def test_engines_agree_under_observability_hooks(graph, variant):
    """Hooks attach identically: profiled+memtraced runs stay equal."""
    ref = gpu_peel(graph, variant=variant, engine="reference",
                   profile=True, memtrace=True)
    vec = gpu_peel(graph, variant=variant, engine="vectorized",
                   profile=True, memtrace=True)
    assert_byte_identical(ref, vec)
    assert ref.profile is not None and vec.profile is not None
    assert ref.profile.to_json() == vec.profile.to_json()
    assert ref.memtrace.peak_bytes == vec.memtrace.peak_bytes


@given(graphs(), st.integers(min_value=2, max_value=4))
@settings(max_examples=6, deadline=None)
def test_multi_gpu_peel_is_engine_invariant(graph, num_devices):
    ref = multi_gpu_peel(graph, num_devices=num_devices,
                         engine="reference")
    vec = multi_gpu_peel(graph, num_devices=num_devices,
                         engine="vectorized")
    assert_byte_identical(ref, vec)


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
