"""Every registered kernel contract actually certifies.

The registry (:mod:`repro.staticheck.contracts`) is the
admission list of the static-verification pipeline; this gate re-derives
every admitted kernel's certificates from scratch and fails when a
contract's description and its code have drifted.  Four families:

1. **re-derivation** — for every registered :class:`KernelContract`,
   over its full declared variant space: the closed-form bounds and the
   shared-memory layout evaluate (a missing bound is only legal for
   configs the contract declares ``honest_unproven``); the dataflow
   certificate derives without bailing; every undischarged
   :class:`RaceObligation` *outside* the declared-honest set (the
   ring-buffer configs for k-core) fails the gate; and every
   :class:`RaceProof` uses only discharge arguments the contract
   declared in ``race_arguments`` — a proof leaning on an undeclared
   axiom is a contract lie;
2. **programs** — every :class:`ProgramContract` assembles its variant
   certificates (``certify_program``) and the module-coverage gate
   (``verify_inventories``) over the union of all contracts is clean;
3. **bfs domination** — live :func:`~repro.core.bfs_kernel.gpu_bfs`
   runs over a graph matrix with the differential checker, the
   dataflow checker, and the dynamic race sanitizer armed: the BFS
   contract's static bounds must dominate every measured launch, the
   engine-precondition prediction (reference-only — the kernel has no
   vectorized executor) must match ``served_by``, and the levels must
   agree with a host-side reference BFS;
4. **rejection self-test** — the same checking core is run against a
   deliberately *unsound* contract for the racy fixture kernel
   (:mod:`repro.staticheck.fixtures`) claiming full discharge with an
   empty argument set; the gate must reject it.  A gate that cannot
   fail is not a gate.

The ``admission_findings.json`` artifact holds the merged findings as a
``repro.findings/v1`` record.  ``quick`` shrinks the family-3 graph
matrix for fast local iteration.  See
``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import importlib
from collections import deque
from typing import List

import numpy as np

from _bench_common import Outcome

from repro.core.bfs_kernel import gpu_bfs
from repro.core.variants import VariantConfig, get_variant
from repro.graph.csr import CSRGraph
from repro.graph.examples import path_graph
from repro.graph.generators import (
    erdos_renyi,
    hub_and_spokes,
    random_tree,
)
from repro.sanitize.findings import write_findings
from repro.sanitize.report import SanitizerFinding, SanitizerReport
from repro.staticheck import contracts
from repro.staticheck.bounds import KernelBounds
from repro.staticheck.certificate import (
    certify_program,
    verify_inventories,
)
from repro.staticheck.dataflow import analyze_function
from repro.staticheck.symbolic import Const


# ---------------------------------------------------------------------------
# the checking core (registry-independent, so the self-test can feed it
# an unregistered contract)
# ---------------------------------------------------------------------------


def admission_findings(
    contract: "contracts.KernelContract", cfg: VariantConfig
) -> List[SanitizerFinding]:
    """Re-derive one kernel x config and return its admission findings."""
    findings: List[SanitizerFinding] = []
    where = f"{contract.name}[{cfg.name}]"
    honest = contract.honest_unproven(cfg)

    try:
        contract.bounds(cfg)
    except ValueError as exc:
        if not honest:
            findings.append(SanitizerFinding(
                "admission-bounds", "error", where,
                f"contract bounds raised for a config not declared "
                f"honest-unproven: {exc}",
            ))
    try:
        layout = contract.shared_layout(cfg)
        if not isinstance(layout, dict) and not hasattr(layout, "items"):
            raise TypeError(f"shared_layout returned {type(layout)!r}")
    except Exception as exc:  # noqa: BLE001 - a gate reports, not raises
        findings.append(SanitizerFinding(
            "admission-bounds", "error", where,
            f"contract shared_layout failed: {exc}",
        ))

    module = importlib.import_module(contract.module)
    cert = analyze_function(
        module, contract.entry, cfg, engine_module=contract.engine_module
    )
    declared = set(contract.race_arguments)
    for proof in cert.proofs:
        if proof.argument not in declared:
            findings.append(SanitizerFinding(
                "admission-undeclared-argument", "error", where,
                f"proof on {proof.space} '{proof.array}' uses discharge "
                f"argument '{proof.argument}' the contract never "
                f"declared (declared: {sorted(declared)})",
            ))
    if cert.unproven and not honest:
        for ob in cert.unproven:
            findings.append(SanitizerFinding(
                "admission-unproven-race", "error", where,
                f"undischarged {ob.kinds} obligation on {ob.space} "
                f"'{ob.array}' outside the declared-honest set: "
                f"{ob.reason}",
            ))
    if honest and not cert.unproven:
        # the analyzer claims to prove what the contract declares
        # unprovable — that is unsoundness, not progress (the same pin
        # scripts/check_dataflow.py keeps on the ring configs)
        findings.append(SanitizerFinding(
            "admission-unproven-race", "error", where,
            "config is declared honest-unproven but the analyzer "
            "discharged every obligation — drop the declaration or "
            "distrust the proof",
        ))
    return findings


# ---------------------------------------------------------------------------
# family 1+2: re-derive every registered contract
# ---------------------------------------------------------------------------


def check_registry(report: SanitizerReport) -> List[str]:
    problems: List[str] = []
    combos = 0
    for name, contract in contracts.all_kernel_contracts().items():
        for cfg in contract.variants().values():
            combos += 1
            found = admission_findings(contract, cfg)
            report.extend(found)
            for f in found:
                problems.append(f"{f.where}: {f.message}")
    print(f"re-derived {combos} kernel x config combinations over "
          f"{len(contracts.all_kernel_contracts())} contracts")

    coverage = verify_inventories()
    report.extend(coverage)
    for f in coverage:
        problems.append(f"coverage: {f.where}: {f.message}")

    for prog_name, prog in contracts.all_program_contracts().items():
        certs = certify_program(prog_name)
        if not certs:
            problems.append(
                f"program {prog_name!r} certified zero variants")
        for vname, vcert in certs.items():
            if not vcert.kernels:
                problems.append(f"program {prog_name!r} variant {vname!r} "
                                "has no kernel certificates")
    print(f"assembled certificates for "
          f"{len(contracts.all_program_contracts())} programs")
    return problems


# ---------------------------------------------------------------------------
# family 3: BFS bound domination over a graph matrix
# ---------------------------------------------------------------------------


def _reference_bfs(graph: CSRGraph, source: int) -> np.ndarray:
    dist = np.full(graph.num_vertices, -1, dtype=np.int64)
    if graph.num_vertices == 0:
        return dist
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in graph.neighbors_of(v):
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(int(u))
    return dist


def check_bfs_domination(report: SanitizerReport, quick: bool) -> List[str]:
    problems: List[str] = []
    matrix = [
        ("path", path_graph(64), 0),
        ("tree", random_tree(200, seed=3), 0),
    ]
    if not quick:
        matrix += [
            ("er", erdos_renyi(400, 6.0, seed=11), 0),
            ("hub", hub_and_spokes(300, num_hubs=3, seed=5), 1),
            ("empty", CSRGraph.empty(0), 0),
            ("singleton", CSRGraph.empty(1), 0),
        ]
    launches = 0
    for label, graph, source in matrix:
        result = gpu_bfs(
            graph, source,
            sanitize=True, staticheck=True, dataflow=True,
        )
        expected = _reference_bfs(graph, source)
        if not np.array_equal(result.core, expected):
            problems.append(f"bfs[{label}]: device levels disagree with "
                            "the host reference BFS")
        static = result.staticheck
        if static is None:
            problems.append(
                f"bfs[{label}]: no staticheck report came back")
            continue
        launches += static.launches_checked
        report.merge(static)
        for f in static.findings:
            problems.append(
                f"bfs[{label}]: {f.detector}: {f.where}: {f.message}")
        san = result.sanitizer
        if san is not None:
            for f in san.findings:
                problems.append(
                    f"bfs[{label}]: sanitizer {f.detector}: {f.message}")
    if launches == 0:
        problems.append(
            "bfs matrix checked zero launches — the matrix is vacuous")
    print(f"bfs static bounds dominated {launches} checked launch(es) "
          f"over {len(matrix)} graph(s)")
    return problems


# ---------------------------------------------------------------------------
# family 4: the gate must reject an unsound contract
# ---------------------------------------------------------------------------


def check_rejects_unsound_contract() -> List[str]:
    """Feed the checking core a contract that lies about the racy
    fixture kernel; admission findings MUST come back."""
    unsound = contracts.KernelContract(
        name="racy_fixture_kernel",
        program="fixture-selftest",  # never registered: core is fed directly
        module="repro.staticheck.fixtures",
        entry="racy_fixture_kernel",
        bounds=lambda cfg: KernelBounds(Const(1), Const(1), Const(1)),
        shared_layout=lambda cfg: {},
        reachability={"racy_fixture_kernel": ()},
        variants=lambda: {"ours": get_variant("ours")},
        params=(),
        engine_module=None,
        race_arguments=(),  # claims no proof needs any argument
    )
    found = admission_findings(unsound, get_variant("ours"))
    detectors = {f.detector for f in found}
    if "admission-unproven-race" not in detectors:
        return ["self-test: the unsound fixture contract was NOT rejected "
                "for its undischarged obligations — the gate cannot fail"]
    print(f"self-test: unsound fixture contract rejected with "
          f"{len(found)} finding(s) ({sorted(detectors)})")
    return []


# ---------------------------------------------------------------------------


def check(quick: bool = False) -> Outcome:
    report = SanitizerReport()
    problems = check_registry(report)
    problems.extend(check_bfs_domination(report, quick))
    problems.extend(check_rejects_unsound_contract())
    summary = (
        f"check_admission: {len(problems)} failure(s)" if problems else
        "kernel admission: every registered contract certifies: OK"
    )
    return Outcome(problems, summary, artifacts={
        "admission_findings.json":
            lambda path: write_findings(path, "check_admission", report),
    })
