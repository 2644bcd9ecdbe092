"""Unit tests for the dataflow tier (`repro.staticheck.dataflow`)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.host import GpuPeelOptions, gpu_peel
from repro.core.variants import EXTENSION_VARIANTS, VARIANTS, get_variant
from repro.graph.examples import fig1_graph
from repro.staticheck import (
    DataflowChecker,
    analyze_function,
    analyze_kernel,
    predicted_tier,
    render_dataflow_certificates,
)
from repro.staticheck import fixtures
from repro.staticheck.dataflow import (
    DATAFLOW_KERNELS,
    Epoch,
    LoopShape,
    Uniformity,
    may_same_epoch,
)
from tests.conftest import needs_cc

ALL_VARIANTS = (*VARIANTS, *EXTENSION_VARIANTS)


# -- the lattice ---------------------------------------------------------


def test_uniformity_join_is_the_lattice_max():
    assert Uniformity.UNIFORM.join(Uniformity.AFFINE) is Uniformity.AFFINE
    assert Uniformity.AFFINE.join(Uniformity.DIVERGENT) is Uniformity.DIVERGENT
    assert Uniformity.UNIFORM < Uniformity.AFFINE < Uniformity.DIVERGENT


# -- the epoch algebra ---------------------------------------------------


def test_pre_epochs_coincide_only_at_equal_index():
    shape = LoopShape(pre=2, body=3, exit_r=0)
    assert may_same_epoch(Epoch("pre", 0), Epoch("pre", 0), shape)
    assert not may_same_epoch(Epoch("pre", 0), Epoch("pre", 1), shape)


def test_loop_epochs_coincide_modulo_the_body_length():
    shape = LoopShape(pre=0, body=2, exit_r=1)
    assert may_same_epoch(Epoch("loop", 0), Epoch("loop", 2), shape)
    assert not may_same_epoch(Epoch("loop", 0), Epoch("loop", 1), shape)


def test_pre_meets_loop_only_at_the_seam():
    shape = LoopShape(pre=1, body=2, exit_r=0)
    # the last pre epoch is the same barrier generation as loop offset 0
    assert may_same_epoch(Epoch("pre", 1), Epoch("loop", 0), shape)
    assert not may_same_epoch(Epoch("pre", 0), Epoch("loop", 0), shape)
    assert not may_same_epoch(Epoch("pre", 1), Epoch("loop", 1), shape)


def test_loop_meets_post_through_the_exit_offset():
    shape = LoopShape(pre=0, body=2, exit_r=1)
    # post@0 sits at loop offset exit_r = 1 (mod 2)
    assert may_same_epoch(Epoch("loop", 1), Epoch("post", 0), shape)
    assert not may_same_epoch(Epoch("loop", 0), Epoch("post", 0), shape)


def test_straight_line_kernels_use_index_equality():
    assert may_same_epoch(Epoch("pre", 1), Epoch("pre", 1), None)
    assert not may_same_epoch(Epoch("pre", 1), Epoch("pre", 2), None)


# -- the certificates ----------------------------------------------------


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("kernel", DATAFLOW_KERNELS)
def test_every_shipped_combo_is_proven_race_free(kernel, variant):
    cert = analyze_kernel(kernel, variant)
    assert cert.race_free, [ob.reason for ob in cert.unproven]
    assert cert.proofs, "a kernel with shared memory must have proofs"
    b = cert.bracket
    assert 0.0 <= b.divergence_lo <= b.divergence_hi <= 1.0
    assert 0.0 <= b.coalescing_lo <= b.coalescing_hi <= 1.0


def test_proofs_carry_file_line_provenance():
    cert = analyze_kernel("loop_kernel", "ours")
    for proof in cert.proofs:
        for site in (proof.a_site, proof.b_site):
            path, _, line = site.rpartition(":")
            assert path.endswith(".py")
            assert int(line) > 0


def test_ring_buffer_configs_stay_honestly_unproven():
    ring = dataclasses.replace(
        get_variant("ours"), name="ours+ring", ring_buffer=True
    )
    for kernel in DATAFLOW_KERNELS:
        cert = analyze_kernel(kernel, ring)
        assert not cert.race_free
        assert any("ring" in ob.reason or "wrap" in ob.reason
                   for ob in cert.unproven)


def test_predicted_tier_matrix():
    for name in ALL_VARIANTS:
        cfg = get_variant(name)
        assert predicted_tier("scan_kernel", cfg) == "vectorized"
        expected = "reference" if cfg.virtual_warps > 1 else "vectorized"
        assert predicted_tier("loop_kernel", cfg) == expected
        # monitored / preempting / reference-selected launches always
        # route to the interpreter
        assert predicted_tier("scan_kernel", cfg, engine="reference") \
            == "reference"
        assert predicted_tier("scan_kernel", cfg, monitored=True) \
            == "reference"
        assert predicted_tier("scan_kernel", cfg, preempt_prob=0.5) \
            == "reference"


def test_render_covers_all_combos():
    out = render_dataflow_certificates()
    for name in ALL_VARIANTS:
        for kernel in DATAFLOW_KERNELS:
            assert f"== {kernel} [{name}] ==" in out
    assert "UNPROVEN" not in out


# -- the detector fixtures -----------------------------------------------


def test_racy_fixture_yields_unproven_obligations():
    cert = analyze_function(fixtures, "racy_fixture_kernel",
                            get_variant("ours"))
    assert not cert.race_free
    assert len(cert.unproven) == 2  # shared smem race + global cross-block


def test_bracket_violation_stats_fire_divergence_bound():
    checker = DataflowChecker(get_variant("ours"))
    checker.observe("scan_kernel", fixtures.bracket_violation_stats())
    assert any(f.detector == "divergence-bound" and f.severity == "error"
               for f in checker.report.findings)


def test_precondition_violation_stats_fire_engine_precondition():
    checker = DataflowChecker(get_variant("vw2"))
    checker.observe("loop_kernel", fixtures.precondition_violation_stats())
    assert any(f.detector == "engine-precondition" and f.severity == "error"
               for f in checker.report.findings)


# -- the live checker ----------------------------------------------------


# a launch the analysis predicts vectorized but the interpreter serves
# is a finding, and without a compiler the interpreter serves them all
# (the scans of every variant among them)
@needs_cc
@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_fig1_launches_agree_with_the_certificates(variant):
    graph, expected = fig1_graph()
    result = gpu_peel(graph, variant=get_variant(variant), dataflow=True)
    assert [int(c) for c in result.core] == [
        expected[v] for v in range(graph.num_vertices)
    ]
    report = result.staticheck
    assert report is not None
    assert report.clean, report.summary()
    assert report.launches_checked > 0


@needs_cc
def test_dataflow_merges_with_the_resource_tier():
    graph, _ = fig1_graph()
    both = gpu_peel(graph, staticheck=True, dataflow=True)
    only = gpu_peel(graph, dataflow=True)
    assert both.staticheck.clean
    # both tiers observe every launch, so the merged count doubles
    assert both.staticheck.launches_checked \
        == 2 * only.staticheck.launches_checked


def test_dataflow_never_perturbs_the_run():
    graph, _ = fig1_graph()
    plain = gpu_peel(graph)
    checked = gpu_peel(graph, dataflow=True)
    assert plain.staticheck is None
    assert checked.simulated_ms == plain.simulated_ms
    assert checked.counters == plain.counters
