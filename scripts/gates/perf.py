"""Profile the kernel variants and diff against the baseline.

Re-runs every kernel variant pinned in the committed baseline
(``benchmarks/results/profile_baseline.json``) under the kernel
profiler (:mod:`repro.profile`) and fails the build when the fresh
measurements drift from the committed ones:

1. **schema** — every fresh profile must be a valid
   ``repro.profile/v1`` record (the validator also re-checks the
   arithmetic invariants against ``CostModel.block_cycles``);
2. **cycle budgets** — each variant's total simulated cycles must stay
   within the baseline tolerance of its committed budget, in *both*
   directions: slower is a regression, faster means the baseline is
   stale (re-baseline with ``--update``);
3. **bound classes** — each kernel's speed-of-light bound class
   (compute / memory / latency) must match the pinned one; a flipped
   class means the roofline balance moved even if totals did not
   (e.g. the loop kernel is latency-bound on ``web-Google`` but
   memory-bound on ``trackers``);
4. **bench-JSON diff** — the fresh simulated times must agree with the
   committed Table II row for the baseline dataset
   (``table2_ablation.json``), tying the profile gate to the published
   artefacts;
5. **Table II winner** — on the ``vp_check`` dataset (``trackers``)
   the VP variant must still beat Ours, the paper's latency-boundness
   claim (skipped by ``quick``, which exists for fast local runs and
   for the doctored-baseline tests).

The trajectory payload is ``cycles``.  The ``sol_report.txt`` artifact
holds the speed-of-light tables and ``profile.folded`` the Ours folded
stacks.  ``update`` re-measures every variant, ``vp_check`` included,
and re-pins them instead of checking.  See the "Profiling" section of
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

from _bench_common import (
    RESULTS_DIR,
    Baseline,
    Outcome,
    cells_by_dataset,
    load_record,
)

from repro.core.host import gpu_peel
from repro.graph import datasets
from repro.profile import ProfileReport, validate_profile

BASELINE_SCHEMA = "repro.profile-baseline/v1"
#: absolute slack for Table II cells, which are rounded to 3 decimals
_TABLE_MS_SLACK = 0.0005


def _measure(dataset: str, variants: List[str]) -> Dict[str, Dict[str, Any]]:
    """Run each variant profiled; return its fresh figures + report."""
    graph = datasets.load(dataset)
    fresh: Dict[str, Dict[str, Any]] = {}
    for name in variants:
        result = gpu_peel(graph, variant=name, profile=True)
        report: ProfileReport = result.profile
        fresh[name] = {
            "cycles": report.summary().cycles,
            "ms": result.simulated_ms,
            "bounds": {
                kernel: agg.bound
                for kernel, agg in report.kernels().items()
            },
            "report": report,
        }
    return fresh


def _check_variant(
    name: str,
    fresh: Dict[str, Any],
    pinned: Dict[str, Any],
    tolerance: float,
    where: str,
) -> List[str]:
    problems: List[str] = []
    schema_errors = validate_profile(fresh["report"].to_json())
    problems.extend(
        f"{where}: {name}: invalid fresh profile: {err}"
        for err in schema_errors
    )
    budget = float(pinned["cycles"])
    cycles = float(fresh["cycles"])
    if cycles > budget * (1.0 + tolerance):
        problems.append(
            f"{where}: {name}: {cycles:.0f} cycles exceeds the committed "
            f"budget {budget:.0f} by more than {tolerance:.0%} — "
            "performance regression"
        )
    elif cycles < budget * (1.0 - tolerance):
        problems.append(
            f"{where}: {name}: {cycles:.0f} cycles undershoots the "
            f"committed budget {budget:.0f} by more than {tolerance:.0%} "
            "— stale baseline, re-run with --update"
        )
    for kernel, pinned_bound in dict(pinned.get("bounds", {})).items():
        got = fresh["bounds"].get(kernel)
        if got != pinned_bound:
            problems.append(
                f"{where}: {name}: {kernel} is {got}-bound, baseline "
                f"pins {pinned_bound}-bound — the roofline balance moved"
            )
    return problems


def _check_table2(
    dataset: str,
    fresh: Dict[str, Dict[str, Any]],
    tolerance: float,
) -> List[str]:
    """Fresh simulated times must agree with the committed Table II."""
    table_path = RESULTS_DIR / "table2_ablation.json"
    if not table_path.exists():
        return [f"table2: {table_path} missing"]
    cells = cells_by_dataset(load_record(table_path))
    row = cells.get(dataset)
    if row is None:
        return [f"table2: no committed row for dataset {dataset!r}"]
    problems: List[str] = []
    for name, committed_text in row.items():
        if name not in fresh:
            continue
        committed = float(committed_text)
        measured = float(fresh[name]["ms"])
        slack = _TABLE_MS_SLACK + tolerance * committed
        if abs(measured - committed) > slack:
            problems.append(
                f"table2: {dataset}: {name} measured {measured:.4f} ms, "
                f"committed {committed:.4f} ms (slack {slack:.4f}) — "
                "bench JSON out of date"
            )
    return problems


def _check_vp(vp_check: Dict[str, Any], tolerance: float) -> List[str]:
    """The Table II winner claim: VP beats Ours on its dataset."""
    dataset = vp_check["dataset"]
    faster = vp_check.get("faster", "vp")
    slower = vp_check.get("slower", "ours")
    fresh = _measure(dataset, [slower, faster])
    problems: List[str] = []
    for name, pinned in dict(vp_check.get("variants", {})).items():
        if name in fresh:
            problems.extend(
                _check_variant(name, fresh[name], pinned, tolerance, dataset)
            )
    if fresh[faster]["cycles"] >= fresh[slower]["cycles"]:
        problems.append(
            f"{dataset}: {faster} ({fresh[faster]['cycles']:.0f} cycles) "
            f"no longer beats {slower} "
            f"({fresh[slower]['cycles']:.0f}) — the paper's "
            "latency-boundness claim shifted"
        )
    return problems


def _pins(fresh: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Fresh measurements in the baseline's pinned form."""
    return {
        name: {
            "cycles": round(figures["cycles"], 1),
            "bounds": figures["bounds"],
        }
        for name, figures in fresh.items()
    }


def _artifacts(fresh: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    tables = "\n\n".join(
        figures["report"].render() for figures in fresh.values()
    )
    name = "ours" if "ours" in fresh else next(iter(fresh))
    return {
        "sol_report.txt":
            lambda path: Path(path).write_text(tables + "\n",
                                               encoding="utf-8"),
        "profile.folded": fresh[name]["report"].write_folded,
    }


def check(
    baseline: Baseline, quick: bool = False, update: bool = False
) -> Outcome:
    record = baseline.record
    dataset = record["dataset"]
    tolerance = float(record.get("tolerance", 0.05))
    pinned_variants: Dict[str, Any] = dict(record["variants"])
    fresh = _measure(dataset, list(pinned_variants))
    vp_check = record.get("vp_check")

    if update:
        repinned = {**record, "variants": _pins(fresh)}
        if vp_check is not None:
            repinned["vp_check"] = {**vp_check, "variants": _pins(_measure(
                vp_check["dataset"],
                [vp_check.get("slower", "ours"), vp_check.get("faster", "vp")],
            ))}
        return Outcome(
            [], f"wrote baseline for {len(fresh)} variant(s) to "
            f"{baseline.path}",
            artifacts=_artifacts(fresh), baseline=repinned,
        )

    problems: List[str] = []
    for name, pinned in pinned_variants.items():
        problems.extend(
            _check_variant(name, fresh[name], pinned, tolerance, dataset)
        )
    problems.extend(_check_table2(dataset, fresh, tolerance))
    if vp_check is not None and not quick:
        problems.extend(_check_vp(dict(vp_check), tolerance))

    return Outcome(
        problems,
        f"perf regression vs {baseline.path.name} "
        f"({len(pinned_variants)} variant(s) on {dataset}): "
        f"{'FAIL (%d problem(s))' % len(problems) if problems else 'OK'}",
        trajectory={dataset: {"cycles": {
            name: round(figures["cycles"], 1)
            for name, figures in fresh.items()
        }}},
        artifacts=_artifacts(fresh),
    )
