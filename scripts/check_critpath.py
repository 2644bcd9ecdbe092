#!/usr/bin/env python
"""CI gate: critical-path analyses over every critpath-able program.

Usage::

    python scripts/check_critpath.py [--datasets NAMES]
        [--programs NAMES] [--report FILE]
        [--trajectory FILE | --no-trajectory]

For each dataset the gate runs every program in
``repro.api.CAPABILITIES["critpath"]`` — the nine single-GPU kernel x variant
programs plus the 2- and 4-worker multi-GPU runners — with
``critpath=True`` and fails the build when:

1. **accounting** — the ``repro.critpath/v1`` record must validate:
   the causal DAG, per-span slack, per-track cycle accounting, and the
   ranked what-if table all re-derive **exactly** (no tolerance), and
   every projection sits between the measured time and the static
   floor (:mod:`repro.obs.critpath`);
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

Every run appends a dated ``critpath`` record to
``benchmarks/results/BENCH_trajectory.json`` (``--trajectory`` moves
it, ``--no-trajectory`` skips it); ``--report`` writes the last
multi-GPU record as a CI artifact.  Exit status: 0 OK, 1 failed check,
2 configuration error.  See the "Critical path & what-if" section of
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import date
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _bench_common import (  # noqa: E402
    RESULTS_DIR,
    bootstrap,
    load_record,
    write_artifact,
)

bootstrap()

import numpy as np  # noqa: E402

from repro.api import CAPABILITIES, decompose  # noqa: E402
from repro.core.variants import get_variant  # noqa: E402
from repro.graph import datasets  # noqa: E402
from repro.gpusim.costmodel import CostModel  # noqa: E402
from repro.gpusim.spec import DeviceSpec  # noqa: E402
from repro.obs.critpath import (  # noqa: E402
    ROUND_BOUND_CLASSES,
    kernel_floor_cycles,
)
from repro.staticheck.bounds import launch_env  # noqa: E402

TRAJECTORY_SCHEMA = "repro.bench-trajectory/v1"
DEFAULT_TRAJECTORY = RESULTS_DIR / "BENCH_trajectory.json"
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


def _check_byte_identity(
    graph: Any, name: str, analyzed: Any, where: str
) -> List[str]:
    """A plain rerun must be byte-identical to the analyzed run."""
    problems: List[str] = []
    plain = decompose(graph, name)
    if not np.array_equal(plain.core, analyzed.core):
        problems.append(f"{where}: cores differ with critpath on")
    if plain.simulated_ms != analyzed.simulated_ms:
        problems.append(
            f"{where}: simulated_ms drifted with critpath on "
            f"({plain.simulated_ms!r} != {analyzed.simulated_ms!r})"
        )
    if dict(plain.counters) != dict(analyzed.counters):
        problems.append(f"{where}: counters drifted with critpath on")
    if plain.peak_memory_bytes != analyzed.peak_memory_bytes:
        problems.append(
            f"{where}: peak_memory_bytes drifted with critpath on"
        )
    return problems


def _append_trajectory(
    path: Path,
    dataset: str,
    summary: Dict[str, Any],
    problems: List[str],
) -> None:
    trajectory: Dict[str, Any] = {
        "schema": TRAJECTORY_SCHEMA, "records": [],
    }
    if path.exists():
        loaded = load_record(path)
        if loaded.get("schema") == TRAJECTORY_SCHEMA and isinstance(
            loaded.get("records"), list
        ):
            trajectory = loaded
    trajectory["records"].append({
        "date": date.today().isoformat(),
        "dataset": dataset,
        "critpath": summary,
        "ok": not problems,
        "problems": len(problems),
    })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(trajectory, indent=1) + "\n", encoding="utf-8"
    )


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--datasets", default=",".join(DEFAULT_DATASETS),
        help="comma-separated dataset names "
             f"(default: {','.join(DEFAULT_DATASETS)})",
    )
    parser.add_argument(
        "--programs", default=",".join(sorted(CAPABILITIES["critpath"])),
        help="comma-separated programs to analyze "
             "(default: every program that accepts critpath)",
    )
    parser.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the last multi-GPU repro.critpath/v1 record here",
    )
    parser.add_argument(
        "--trajectory", metavar="FILE", default=str(DEFAULT_TRAJECTORY),
    )
    parser.add_argument("--no-trajectory", action="store_true")
    args = parser.parse_args(argv)

    names = [d for d in args.datasets.split(",") if d]
    programs = [p for p in args.programs.split(",") if p]
    unknown = [p for p in programs if p not in CAPABILITIES["critpath"]]
    if not names or not programs:
        print("error: need at least one dataset and one program",
              file=sys.stderr)
        return 2
    if unknown:
        print(f"error: not critpath-able: {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    problems: List[str] = []
    last_multi = None
    checked = 0
    for dataset in names:
        try:
            graph = datasets.load(dataset)
        except Exception:
            print(f"error: unknown dataset {dataset!r}", file=sys.stderr)
            return 2
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
                last_multi = report
            problems.extend(
                _check_byte_identity(graph, name, result, where)
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
        if not args.no_trajectory:
            _append_trajectory(
                Path(args.trajectory), dataset, summary, problems
            )

    if args.report and last_multi is not None:
        if not write_artifact(
            args.report, last_multi.write, "critpath record"
        ):
            return 1
        print(f"wrote critical-path record to {args.report}")

    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    print(
        f"critical paths ({len(names)} dataset(s) x {len(programs)} "
        f"program(s), {checked} invariant(s) checked): "
        f"{'FAIL (%d problem(s))' % len(problems) if problems else 'OK'}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
