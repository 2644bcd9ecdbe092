"""Certificate assembly, coverage, and differential-checker tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.host import GpuPeelOptions, gpu_peel
from repro.core.variants import EXTENSION_VARIANTS, VARIANTS, get_variant
from repro.errors import ReproError
from repro.gpusim.device import Device
from repro.gpusim.scheduler import KernelStats
from repro.gpusim.spec import DeviceSpec
from repro.graph import generators as gen
from repro.staticheck import (
    DifferentialChecker,
    certify_all,
    certify_variant,
    launch_env,
    reachable_functions,
    render_certificates,
    verify_inventories,
)


def test_repo_kernels_are_fully_certified():
    assert verify_inventories() == []


def test_certify_all_covers_the_eleven_variants():
    certs = certify_all()
    assert len(certs) == 11
    assert set(certs) == set(VARIANTS) | set(EXTENSION_VARIANTS)
    for cert in certs.values():
        assert cert.certificate_for("scan_kernel").kernel == "scan_kernel"
        assert cert.certificate_for("loop_kernel").kernel == "loop_kernel"


def test_ring_variants_are_not_certifiable():
    ring = VARIANTS["ours"].with_ring_buffer()
    with pytest.raises(ValueError, match="ring"):
        certify_variant(ring)


def test_reachability_prunes_by_variant():
    ours = reachable_functions("loop_kernel", VARIANTS["ours"])
    assert "_drain" in ours
    assert "_drain_prefetched" not in ours
    assert "warp_compact_ballot" not in ours
    vp = reachable_functions("loop_kernel", VARIANTS["bc+vp"])
    assert "_drain_prefetched" in vp
    assert "_drain" not in vp
    assert "warp_compact_ballot" in vp
    ec = reachable_functions("scan_kernel", VARIANTS["ec"])
    assert "_scan_block_compaction" in ec
    assert "_scan_strided" not in ec
    assert "block_scan_offsets" in ec


def test_atomic_inventory_tells_the_bc_story():
    """BC trades shared-atomic pressure for ballot instructions: its
    reachable compaction path exists, but the per-lane append site of
    Ours is shared between them (the dispatch is data-driven), so the
    discriminating signal is the compaction helper's reachability."""
    certs = certify_all()
    ours_loop = certs["ours"].certificate_for("loop_kernel")
    ours_sites = {s.function for s in ours_loop.shared_atomic_sites}
    bc_loop = certs["bc"].certificate_for("loop_kernel")
    assert "compaction:warp_compact_ballot" not in {
        s.function
        for s in ours_loop.coalesced_sites
    }
    assert "warp_compact_ballot" in bc_loop.reachable
    assert "warp_compact_ballot" not in ours_loop.reachable
    assert ours_sites  # the per-lane atomicAdd append exists


def test_scan_issued_bound_orders_ours_bc_ec():
    certs = certify_all()
    spec = DeviceSpec()
    env = launch_env(5000, 40000, 60, spec, VARIANTS["ours"])
    issued = {
        name: certs[name].certificate_for("scan_kernel").bounds.issued
        for name in ("ours", "bc", "ec")
    }
    issued = {name: expr.evaluate(env) for name, expr in issued.items()}
    assert issued["ours"] < issued["bc"] < issued["ec"]


def test_device_memory_certificate_matches_simulator_exactly():
    graph = gen.erdos_renyi(400, 6.0, seed=3)
    for name in ("ours", "sm", "vp", "bc", "ec"):
        cfg = VARIANTS[name]
        device = Device()
        result = gpu_peel(graph, variant=cfg, device=device)
        cert = certify_variant(cfg)
        env = launch_env(
            graph.num_vertices, len(graph.neighbors), graph.max_degree,
            device.spec, cfg,
        )
        assert cert.device_memory_bytes(env, device.spec) == \
            result.peak_memory_bytes, name


def test_shared_fit_finding_fires_when_footprint_cannot_fit():
    cert = certify_variant(VARIANTS["sm"])
    spec = DeviceSpec()
    env = launch_env(100, 400, 5, spec, VARIANTS["sm"])
    # force an impossible footprint: a shared buffer larger than the
    # whole per-block shared memory
    env = dict(env, scap=float(spec.shared_memory_per_block_bytes))
    scan = cert.certificate_for("scan_kernel")
    loop = cert.certificate_for("loop_kernel")
    findings = loop.check_shared_fit(spec, env)
    assert len(findings) == 1
    assert findings[0].detector == "static-resource"
    assert scan.check_shared_fit(spec, env) == []  # scan has no B


def test_render_certificates_lists_every_variant():
    text = render_certificates(certify_all())
    for name in list(VARIANTS) + list(EXTENSION_VARIANTS):
        assert f"variant {name}:" in text
    assert "issued" in text and "barriers" in text


class TestDifferentialChecker:
    def _checker(self, name="ours"):
        cfg = VARIANTS[name]
        return DifferentialChecker(cfg, DeviceSpec(), 500, 3000, 40)

    def test_clean_run_produces_clean_report(self):
        graph = gen.planted_core(150, core_size=20, core_degree=8,
                                 background_degree=3.0, seed=7)
        result = gpu_peel(graph, variant="bc+sm", staticheck=True)
        assert result.staticheck is not None
        assert result.staticheck.clean, result.staticheck.summary()
        assert result.staticheck.launches_checked == 2 * result.rounds

    def test_violation_yields_static_bound_finding(self):
        checker = self._checker()
        huge = KernelStats(
            cycles=1.0, issued=1e12, mem_transactions=1e12,
            barriers=10**9, max_warp_path=1.0,
        )
        checker.observe("scan_kernel", huge)
        findings = checker.report.findings
        assert len(findings) == 3  # issued, mem_transactions, barriers
        assert {f.detector for f in findings} == {"static-bound"}
        assert all("scan_kernel[ours]" == f.kernel for f in findings)

    def test_within_bound_stats_are_clean(self):
        checker = self._checker()
        tiny = KernelStats(
            cycles=1.0, issued=10.0, mem_transactions=1.0,
            barriers=2, max_warp_path=1.0,
        )
        checker.observe("loop_kernel", tiny)
        assert checker.report.clean
        assert checker.report.launches_checked == 1

    def test_staticheck_rejects_ring_variants(self):
        graph = gen.erdos_renyi(50, 3.0, seed=0)
        ring = get_variant("ours").with_ring_buffer()
        with pytest.raises(ReproError, match="ring"):
            gpu_peel(graph, variant=ring, staticheck=True)

    def test_staticheck_report_rides_empty_graph_result(self):
        from repro.graph.csr import CSRGraph

        graph = CSRGraph.from_edges([], num_vertices=0)
        result = gpu_peel(graph, variant="ours", staticheck=True)
        assert result.staticheck is not None
        assert result.staticheck.clean


def test_options_staticheck_flag_is_honoured():
    graph = gen.erdos_renyi(60, 4.0, seed=1)
    result = gpu_peel(graph, options=GpuPeelOptions(), staticheck=True)
    assert result.staticheck is not None
    assert result.staticheck.clean
    plain = gpu_peel(graph)
    assert plain.staticheck is None
    assert np.array_equal(result.core, plain.core)
