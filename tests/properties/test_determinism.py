"""Determinism invariants of sanitizer-clean kernels (hypothesis).

The racecheck's value proposition is that a clean kernel is *schedule
independent*: whatever preemption schedule the scheduler draws,

* the core numbers are identical to the BZ reference, and
* a given ``(graph, seed, preempt_prob)`` triple replays to the exact
  same simulated time, bit for bit — including with the sanitizer
  attached, which must never perturb the run it is observing.

``elapsed_ms`` *does* legitimately vary across different schedules
(over-decremented degrees cost extra restore atomics), so the replay
property is per-seed, not across seeds.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.host import GpuPeelOptions, gpu_peel
from repro.cpu.bz import bz_core_numbers
from repro.graph import generators as gen

VARIANT_POOL = ("ours", "sm", "vp", "bc", "ec", "bc+sm", "vw2")


@st.composite
def peel_setups(draw):
    graph = gen.planted_core(
        120,
        core_size=draw(st.integers(min_value=10, max_value=30)),
        core_degree=8,
        background_degree=3.0,
        seed=draw(st.integers(min_value=0, max_value=50)),
    )
    variant = draw(st.sampled_from(VARIANT_POOL))
    options = GpuPeelOptions(
        variant=variant,
        preempt_prob=draw(st.sampled_from([0.0, 0.2, 0.5])),
        seed=draw(st.integers(min_value=0, max_value=1000)),
    )
    return graph, options


@given(peel_setups())
@settings(max_examples=12, deadline=None)
def test_clean_kernels_match_bz_under_any_schedule(setup):
    graph, options = setup
    result = gpu_peel(graph, options=options, sanitize=True)
    assert result.sanitizer.clean, result.sanitizer.summary()
    assert np.array_equal(result.core, bz_core_numbers(graph))


@given(peel_setups())
@settings(max_examples=8, deadline=None)
def test_same_schedule_replays_identically(setup):
    graph, options = setup
    first = gpu_peel(graph, options=options, sanitize=True)
    second = gpu_peel(graph, options=options, sanitize=True)
    assert np.array_equal(first.core, second.core)
    assert first.simulated_ms == second.simulated_ms
    assert first.rounds == second.rounds
    assert first.counters == second.counters


@given(peel_setups())
@settings(max_examples=8, deadline=None)
def test_sanitizer_never_perturbs_simulated_time(setup):
    graph, options = setup
    checked = gpu_peel(graph, options=options, sanitize=True)
    plain = gpu_peel(graph, options=options)
    assert plain.sanitizer is None
    assert checked.simulated_ms == plain.simulated_ms
    # `engine.served.*` legitimately differs: a monitored launch is
    # served by the reference interpreter regardless of the selected
    # engine.  Every simulated observable must still match exactly.
    strip = lambda c: {k: v for k, v in c.items()
                       if not k.startswith("engine.served.")}
    assert strip(checked.counters) == strip(plain.counters)
    assert np.array_equal(checked.core, plain.core)
