"""Static certificates dominate dynamic traces (hypothesis).

Two invariants, for random graphs across all eleven certified
variants:

* every traced launch stays under its static certificate — the
  differential checker (which compares per-launch ``KernelStats``
  against the symbolic ``issued`` / ``mem_transactions`` /
  ``barriers`` bounds) reports clean, having checked every launch;
* attaching the checker never perturbs the run it is observing —
  ``simulated_ms`` and the counters are byte-identical with and
  without ``staticheck``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.host import GpuPeelOptions, gpu_peel
from repro.core.variants import EXTENSION_VARIANTS, VARIANTS
from repro.graph import generators as gen

ALL_VARIANTS = tuple(VARIANTS) + tuple(EXTENSION_VARIANTS)


@st.composite
def peel_setups(draw):
    graph = gen.planted_core(
        110,
        core_size=draw(st.integers(min_value=8, max_value=28)),
        core_degree=7,
        background_degree=3.0,
        seed=draw(st.integers(min_value=0, max_value=50)),
    )
    variant = draw(st.sampled_from(ALL_VARIANTS))
    options = GpuPeelOptions(
        variant=variant,
        preempt_prob=draw(st.sampled_from([0.0, 0.3])),
        seed=draw(st.integers(min_value=0, max_value=1000)),
    )
    return graph, options


@given(peel_setups())
@settings(max_examples=14, deadline=None)
def test_static_bounds_dominate_dynamic_stats(setup):
    graph, options = setup
    result = gpu_peel(graph, options=options, staticheck=True)
    report = result.staticheck
    assert report is not None
    assert report.clean, report.summary(label="staticheck")
    # one scan + one loop launch per round, all of them checked
    assert report.launches_checked == 2 * result.rounds


@given(peel_setups())
@settings(max_examples=10, deadline=None)
def test_staticheck_never_perturbs_simulated_time(setup):
    graph, options = setup
    checked = gpu_peel(graph, options=options, staticheck=True)
    plain = gpu_peel(graph, options=options)
    assert plain.staticheck is None
    assert checked.simulated_ms == plain.simulated_ms
    assert checked.counters == plain.counters
    assert np.array_equal(checked.core, plain.core)
