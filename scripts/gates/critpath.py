"""Critical-path analyses over every critpath-able program.

For each dataset the gate runs every program in
``repro.api.CAPABILITIES["critpath"]`` — the nine single-GPU kernel x variant
programs plus the 2- and 4-worker multi-GPU runners — with
``critpath=True`` and fails the build when:

1. **accounting** — the ``repro.critpath/v1`` record must validate:
   the validator re-runs the builder's derivation over the stored raw
   terms (block terms, launch cycles and names, node rounds, track
   names, per-round coordinator components, floors, ``elapsed_ms``,
   ``kernel_launches``, ``base`` and ``clock``), so the causal DAG,
   per-span slack, per-track cycle accounting and the ranked what-if
   table must equal the re-derived ones **exactly** (no tolerance).
   Checked explicitly besides: each launch's cycles against its busiest
   SM lane, the launch count, ``elapsed_ms`` against the accounting,
   non-negative floors, and every projection between the measured time
   and the static floor (:mod:`repro.obs.critpath`);
2. **floors** — the per-kernel static floors must independently
   re-derive from the contract registry's ``floors`` callables
   (:func:`repro.obs.critpath.kernel_floor_cycles`), so a stale stored
   certificate cannot pass;
3. **attribution** — every multi-GPU sub-round must carry a bound
   class (``compute`` / ``straggler`` / ``exchange``) and the
   ``round_bounds`` histogram must tile the round list;
4. **byte-identity** — a plain rerun of each program must produce
   byte-identical cores, simulated milliseconds and counters (the
   analyzer is observability-only by contract).

The trajectory payload is ``critpath``; the ``critpath.json``
artifact is the last multi-GPU record.  See the "Critical path &
what-if" section of ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from _bench_common import ConfigError, Outcome, check_byte_identity

from repro.api import CAPABILITIES, decompose
from repro.core.variants import get_variant
from repro.graph.datasets import load as load_dataset
from repro.gpusim.costmodel import CostModel
from repro.gpusim.spec import DeviceSpec
from repro.obs.critpath import (
    ROUND_BOUND_CLASSES,
    kernel_floor_cycles,
)
from repro.staticheck.bounds import launch_env

DEFAULT_DATASETS = ("web-Google",)


def _refloor(
    graph: Any, record: Dict[str, Any], where: str
) -> List[str]:
    """Independently re-derive every stored per-kernel static floor.

    The builder computed the floors through the contract registry; the
    gate repeats that computation from nothing but the record's variant
    name and the graph, so a floor that drifted from its contract (or
    a contract whose ``floors`` stopped registering) fails loudly.
    """
    problems: List[str] = []
    cfg = get_variant(record["variant"])
    spec = DeviceSpec()
    cost = CostModel()
    env = launch_env(
        graph.num_vertices, len(graph.neighbors), graph.max_degree,
        spec, cfg, None,
    )
    scale = (
        float(record["num_devices"]) if record["kind"] == "multi" else 1.0
    )
    for name, agg in record["kernels"].items():
        expected = kernel_floor_cycles(
            name, cfg, env, cost, spec.num_sms, agg["launches"]
        ) / scale
        if agg["floor_cycles"] != expected:
            problems.append(
                f"{where}: stored floor for {name!r} "
                f"({agg['floor_cycles']!r}) != re-derived "
                f"({expected!r})"
            )
    return problems


def _check_rounds(record: Dict[str, Any], where: str) -> List[str]:
    """Every multi-GPU sub-round must be classified, and the
    histogram must tile the round list."""
    problems: List[str] = []
    rounds = record.get("rounds", [])
    histogram = {name: 0 for name in ROUND_BOUND_CLASSES}
    for i, rnd in enumerate(rounds):
        bound = rnd.get("bound")
        if bound not in ROUND_BOUND_CLASSES:
            problems.append(
                f"{where}: rounds[{i}] carries no bound class "
                f"({bound!r})"
            )
        else:
            histogram[bound] += 1
    if record.get("round_bounds") != histogram:
        problems.append(
            f"{where}: round_bounds {record.get('round_bounds')!r} "
            f"does not tile the {len(rounds)} round(s) ({histogram!r})"
        )
    return problems


def check(
    datasets: Sequence[str] = DEFAULT_DATASETS,
    programs: Sequence[str] = tuple(sorted(CAPABILITIES["critpath"])),
) -> Outcome:
    names, programs = list(datasets), list(programs)
    unknown = [p for p in programs if p not in CAPABILITIES["critpath"]]
    if not names or not programs:
        raise ConfigError("need at least one dataset and one program")
    if unknown:
        raise ConfigError(f"not critpath-able: {', '.join(unknown)}")

    problems: List[str] = []
    trajectory: Dict[str, Dict[str, Any]] = {}
    artifacts: Dict[str, Any] = {}
    checked = 0
    for dataset in names:
        try:
            graph = load_dataset(dataset)
        except Exception:
            raise ConfigError(f"unknown dataset {dataset!r}") from None
        summary: Dict[str, Any] = {
            "programs": {}, "round_bounds": {}, "invariants_checked": 0,
        }
        for name in programs:
            where = f"{dataset}: {name}"
            result = decompose(graph, name, critpath=True)
            report = result.critpath
            if report is None:
                problems.append(f"{where}: no critpath report produced")
                continue
            record = report.record
            problems.extend(
                f"{where}: {err}" for err in report.validate()
            )
            problems.extend(_refloor(graph, record, where))
            if record["kind"] == "multi":
                problems.extend(_check_rounds(record, where))
                summary["round_bounds"][name] = record["round_bounds"]
                artifacts["critpath.json"] = report.write
            problems.extend(
                check_byte_identity(graph, name, result, where, "critpath")
            )
            top = record["whatif"][0]
            summary["programs"][name] = {
                "best_scenario": top["scenario"],
                "best_ceiling": round(top["speedup_ceiling"], 4),
            }
            # validator suite + per-kernel floors + 4 identity checks
            checks = 1 + len(record["kernels"]) + 4
            if record["kind"] == "multi":
                checks += 1 + len(record["rounds"])
            summary["invariants_checked"] += checks
            checked += checks
        trajectory[dataset] = {"critpath": summary}

    return Outcome(
        problems,
        f"critical paths ({len(names)} dataset(s) x {len(programs)} "
        f"program(s), {checked} invariant(s) checked): "
        f"{'FAIL (%d problem(s))' % len(problems) if problems else 'OK'}",
        trajectory=trajectory,
        artifacts=artifacts,
    )
