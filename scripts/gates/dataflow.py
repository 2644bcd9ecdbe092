"""The static dataflow certificates and their dynamic agreement.

Four families of checks:

1. **certificates** — every kernel x variant combination (the eleven
   Table II + virtual-warp configs, both kernels) analyzes without
   bailing and discharges *every* race obligation; the
   divergence/coalescing brackets are well-formed; the structural
   engine-precondition matrix predicts reference execution exactly for
   ``loop_kernel`` under the virtual-warp variants.  Ring-buffer
   configs are the documented exception: their wraparound aliasing is
   *expected* to leave unproven obligations, and the gate fails if the
   analyzer ever claims to prove them (that would be unsoundness, not
   progress);
2. **detectors** — each of the three dataflow detectors fires on its
   known-bad fixture in :mod:`repro.staticheck.fixtures`
   (``unproven-race-freedom`` on the racy kernel, ``divergence-bound``
   on the impossible-efficiency stats, ``engine-precondition`` on the
   mis-attributed stats).  A detector that cannot fire is dead code
   and the certificates it guards are vacuous;
3. **agreement** — live runs over a small graph matrix with
   ``dataflow=True`` keep every launch inside its bracket and every
   ``engine.served.*`` attribution equal to the static prediction,
   under the vectorized engine, the reference engine, and a monitored
   (sanitized) run;
4. **soundness vs racecheck** — for every variant, a run with both the
   dynamic sanitizer and the dataflow tier enabled: a statically
   proven race-free kernel must come back dynamically clean too.

The ``dataflow_findings.json`` artifact holds the merged reports as a
``repro.findings/v1`` record.  ``quick`` restricts family 3/4 to the
``ours`` variant for fast local iteration.  See
``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import dataclasses

from _bench_common import Outcome

from repro.core.host import gpu_peel
from repro.core.variants import (
    EXTENSION_VARIANTS,
    VARIANTS,
    get_variant,
)
from repro.graph.examples import fig1_graph
from repro.graph.generators import ring_of_cliques, rmat
from repro.sanitize.findings import write_findings
from repro.sanitize.report import SanitizerReport
from repro.staticheck import (
    DataflowChecker,
    analyze_function,
    analyze_kernel,
    predicted_tier,
)
from repro.staticheck.dataflow import DATAFLOW_KERNELS
from repro.staticheck import fixtures

#: every analyzable variant name, Table II order then the extensions
ALL_VARIANTS = (*VARIANTS, *EXTENSION_VARIANTS)

#: the combos whose structural preconditions must route to reference
_EXPECTED_STRUCTURAL_FALLBACK = {
    ("loop_kernel", "vw2"), ("loop_kernel", "vw4"),
}


def check_certificates() -> list[str]:
    """Family 1: every combo race-free, brackets sane, matrix exact."""
    problems: list[str] = []
    fallbacks: set[tuple[str, str]] = set()
    for name in ALL_VARIANTS:
        for kernel in DATAFLOW_KERNELS:
            cert = analyze_kernel(kernel, name)
            if not cert.race_free:
                for ob in cert.unproven:
                    problems.append(
                        f"certificates: {kernel}[{name}]: unproven "
                        f"{ob.kinds} on {ob.space} '{ob.array}' "
                        f"({ob.a_site} <-> {ob.b_site}): {ob.reason}"
                    )
            if not cert.proofs:
                problems.append(
                    f"certificates: {kernel}[{name}]: no race-freedom "
                    "proofs at all — the analyzer saw no conflicting pairs, "
                    "which contradicts the kernels' shared-memory use"
                )
            b = cert.bracket
            if not (0.0 <= b.divergence_lo <= b.divergence_hi <= 1.0
                    and 0.0 <= b.coalescing_lo <= b.coalescing_hi <= 1.0):
                problems.append(
                    f"certificates: {kernel}[{name}]: malformed bracket "
                    f"[{b.divergence_lo}, {b.divergence_hi}] x "
                    f"[{b.coalescing_lo}, {b.coalescing_hi}]"
                )
            if predicted_tier(kernel, get_variant(name)) == "reference":
                fallbacks.add((kernel, name))
    if fallbacks != _EXPECTED_STRUCTURAL_FALLBACK:
        problems.append(
            "certificates: structural-fallback matrix is "
            f"{sorted(fallbacks)}, expected "
            f"{sorted(_EXPECTED_STRUCTURAL_FALLBACK)}"
        )
    # the documented exception: ring addressing must stay *unproven*
    for base in ("ours", "bc"):
        ring = dataclasses.replace(
            get_variant(base), name=f"{base}+ring", ring_buffer=True
        )
        for kernel in DATAFLOW_KERNELS:
            cert = analyze_kernel(kernel, ring)
            if cert.race_free:
                problems.append(
                    f"certificates: {kernel}[{ring.name}]: the analyzer "
                    "claims ring-buffer wraparound is race-free — it has "
                    "no axiom for modular aliasing, so this is unsound"
                )
    return problems


def check_detectors() -> tuple[list[str], SanitizerReport]:
    """Family 2: each detector fires on its known-bad fixture."""
    problems: list[str] = []
    fired = SanitizerReport()
    cfg = get_variant("ours")

    cert = analyze_function(fixtures, "racy_fixture_kernel", cfg)
    if cert.race_free or not cert.unproven:
        problems.append(
            "detectors: unproven-race-freedom did not fire on "
            "fixtures.racy_fixture_kernel"
        )

    checker = DataflowChecker(cfg)
    checker.observe("scan_kernel", fixtures.bracket_violation_stats())
    if not any(f.detector == "divergence-bound" and f.severity == "error"
               for f in checker.report.findings):
        problems.append(
            "detectors: divergence-bound did not fire on "
            "fixtures.bracket_violation_stats()"
        )
    fired.merge(checker.report)

    checker = DataflowChecker(get_variant("vw2"))
    checker.observe("loop_kernel", fixtures.precondition_violation_stats())
    if not any(f.detector == "engine-precondition" and f.severity == "error"
               for f in checker.report.findings):
        problems.append(
            "detectors: engine-precondition did not fire on "
            "fixtures.precondition_violation_stats()"
        )
    fired.merge(checker.report)
    return problems, fired


def check_agreement(quick: bool) -> tuple[list[str], SanitizerReport]:
    """Family 3: live launches agree with the static certificates."""
    problems: list[str] = []
    merged = SanitizerReport()
    fig1, _ = fig1_graph()
    graphs = [
        ("fig1", fig1),
        ("rmat8", rmat(8, edge_factor=8, seed=3)),
        ("cliques", ring_of_cliques(num_cliques=6, clique_size=6)),
    ]
    names = ("ours",) if quick else ALL_VARIANTS
    for label, graph in graphs:
        for name in names:
            result = gpu_peel(graph, variant=get_variant(name),
                              dataflow=True)
            report = result.staticheck
            merged.merge(report)
            if report.errors:
                for f in report.errors:
                    problems.append(
                        f"agreement: {label} x {name} (vectorized): "
                        f"{f.detector}: {f.message}"
                    )
    # the prediction must also adapt to reference and monitored runs
    for kwargs, tag in (
        ({"engine": "reference"}, "reference"),
        ({"sanitize": True}, "monitored"),
    ):
        result = gpu_peel(fig1, variant=get_variant("ours"),
                          dataflow=True, **kwargs)
        report = result.staticheck
        merged.merge(report)
        if report.errors:
            for f in report.errors:
                problems.append(
                    f"agreement: fig1 x ours ({tag}): "
                    f"{f.detector}: {f.message}"
                )
    return problems, merged


def check_soundness(quick: bool) -> list[str]:
    """Family 4: statically proven race-free => dynamically clean."""
    problems: list[str] = []
    graph, _ = fig1_graph()
    names = ("ours",) if quick else ALL_VARIANTS
    for name in names:
        result = gpu_peel(graph, variant=get_variant(name),
                          sanitize=True, dataflow=True)
        if result.sanitizer is not None and not result.sanitizer.clean:
            for f in result.sanitizer.findings:
                problems.append(
                    f"soundness: {name}: statically proven race-free but "
                    f"the dynamic sanitizer found {f.detector}: {f.message}"
                )
        if result.staticheck is not None and result.staticheck.errors:
            for f in result.staticheck.errors:
                problems.append(
                    f"soundness: {name}: {f.detector}: {f.message}"
                )
    return problems


def check(quick: bool = False) -> Outcome:
    problems = check_certificates()
    detector_problems, fixture_report = check_detectors()
    problems.extend(detector_problems)
    agreement_problems, live_report = check_agreement(quick)
    problems.extend(agreement_problems)
    problems.extend(check_soundness(quick))

    combos = len(ALL_VARIANTS) * len(DATAFLOW_KERNELS)
    summary = (
        f"dataflow certificates ({combos} combos) + detector self-test + "
        f"launch agreement over {live_report.launches_checked} launch(es): "
        f"{'FAIL (%d problem(s))' % len(problems) if problems else 'OK'}"
    )
    live_report.merge(fixture_report)
    return Outcome(problems, summary, artifacts={
        "dataflow_findings.json":
            lambda path: write_findings(path, "check_dataflow", live_report),
    })
