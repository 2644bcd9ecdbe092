#!/usr/bin/env python
"""Run the CI gates: one process, one output convention, one exit code.

Usage::

    python scripts/gate.py [NAME ...] [--quick] [--update]
        [--artifacts DIR] [--trajectory FILE | --no-trajectory]

With no NAME, runs every registered gate in the order of :data:`GATES`.
Each gate's check logic lives in ``scripts/gates/<name>.py`` and
returns an :class:`~_bench_common.Outcome`; this runner prints each
problem as ``error: ...`` on stderr and the gate's summary on stdout,
and owns what the gates share:

* **baselines** — the ``perf`` and ``memory`` gates diff against a
  committed baseline, loaded here; a missing, unreadable or
  wrong-schema baseline is a configuration error.  ``--update``
  re-measures and re-pins it instead of checking, keeping every pinned
  block; the other gates run as usual;
* **trajectory** — gates with a payload append one dated record per
  dataset to ``benchmarks/results/BENCH_trajectory.json``
  (``--trajectory`` moves it, ``--no-trajectory`` skips it).  A file
  with another schema or a non-list ``records`` is a configuration
  error and is left untouched;
* **artifacts** — ``--artifacts DIR`` writes each gate's CI artifacts
  (``dataflow_findings.json``, ``admission_findings.json``,
  ``sol_report.txt``, ``profile.folded``, ``memory_timelines.txt``,
  ``memtrace.json``, ``runreport.json``, ``critpath.json``) under DIR.

``--quick`` shrinks the slow families of the ``dataflow``,
``admission``, ``perf`` and ``memory`` gates for fast local runs.
Exit status is the worst over the gates run: 0 OK, 1 a failed check,
2 a configuration error.  Tests call :func:`run_gate` with the
gates' keyword parameters (doctored baselines and tables, other lint
or bench-JSON targets, other dataset or program matrices).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _bench_common import (  # noqa: E402
    RESULTS_DIR,
    Baseline,
    ConfigError,
    Outcome,
    load_record,
)
from gates import (  # noqa: E402
    admission,
    bench_json,
    critpath,
    dataflow,
    docs,
    lint,
    memory,
    perf,
    runreport,
    static_bounds,
)

from repro.obs.export import write_artifact  # noqa: E402

TRAJECTORY_SCHEMA = "repro.bench-trajectory/v1"
DEFAULT_TRAJECTORY = RESULTS_DIR / "BENCH_trajectory.json"


@dataclass(frozen=True)
class Gate:
    check: Callable[..., Outcome]
    #: the check takes ``quick``
    quick: bool = False
    #: ``(schema, committed file)``: the check takes ``baseline`` and
    #: ``update``
    baseline: Optional[Tuple[str, Path]] = None


GATES: Dict[str, Gate] = {
    "lint": Gate(lint.check),
    "bench_json": Gate(bench_json.check),
    "docs": Gate(docs.check),
    "static_bounds": Gate(static_bounds.check),
    "dataflow": Gate(dataflow.check, quick=True),
    "admission": Gate(admission.check, quick=True),
    "perf": Gate(perf.check, quick=True, baseline=(
        perf.BASELINE_SCHEMA, RESULTS_DIR / "profile_baseline.json")),
    "memory": Gate(memory.check, quick=True, baseline=(
        memory.BASELINE_SCHEMA, RESULTS_DIR / "memory_baseline.json")),
    "runreport": Gate(runreport.check),
    "critpath": Gate(critpath.check),
}


def _write_json(path: Path, record: Dict[str, Any]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def load_baseline(path: "str | Path", schema: str) -> Baseline:
    path = Path(path)
    record = load_record(path)
    if record.get("schema") != schema:
        raise ConfigError(
            f"{path}: schema must be {schema!r}, "
            f"got {record.get('schema')!r}"
        )
    return Baseline(path, record)


def append_trajectory(path: Path, outcome: Outcome) -> None:
    """Append one dated record per dataset of ``outcome.trajectory``."""
    trajectory: Dict[str, Any] = {"schema": TRAJECTORY_SCHEMA, "records": []}
    if path.exists():
        trajectory = load_record(path)
        if trajectory.get("schema") != TRAJECTORY_SCHEMA or not isinstance(
            trajectory.get("records"), list
        ):
            raise ConfigError(
                f"{path}: not a {TRAJECTORY_SCHEMA} record with a "
                "records list; refusing to overwrite its history"
            )
    for dataset, payload in outcome.trajectory.items():
        trajectory["records"].append({
            "date": date.today().isoformat(),
            "dataset": dataset,
            **payload,
            "ok": not outcome.problems,
            "problems": len(outcome.problems),
        })
    _write_json(path, trajectory)


def run_gate(
    name: str,
    *,
    quick: bool = False,
    update: bool = False,
    artifacts: "str | Path | None" = None,
    trajectory: "str | Path | None" = DEFAULT_TRAJECTORY,
    **params: Any,
) -> int:
    """Run one gate; returns its exit status (0 OK, 1 failed, 2 config).

    ``params`` are the gate's own keyword parameters; ``baseline`` is
    a path here and reaches the check as a loaded :class:`Baseline`.
    """
    gate = GATES[name]
    try:
        if gate.quick:
            params["quick"] = quick
        if gate.baseline is not None:
            schema, committed = gate.baseline
            params["baseline"] = load_baseline(
                params.get("baseline", committed), schema
            )
            params["update"] = update
        outcome = gate.check(**params)
        if outcome.baseline is not None:
            _write_json(params["baseline"].path, outcome.baseline)
        for problem in outcome.problems:
            print(f"error: {problem}", file=sys.stderr)
        print(outcome.summary)
        written = artifacts is None or all([
            write_artifact(str(Path(artifacts) / file), write, file)
            for file, write in outcome.artifacts.items()
        ])
        if trajectory is not None and outcome.trajectory:
            append_trajectory(Path(trajectory), outcome)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if outcome.problems or not written else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help=f"gates to run (default: all of {', '.join(GATES)})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink the slow families for fast local runs",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="re-measure and re-pin the baselines instead of checking them",
    )
    parser.add_argument(
        "--artifacts", metavar="DIR", default=None,
        help="write the gates' CI artifacts under DIR",
    )
    where = parser.add_mutually_exclusive_group()
    where.add_argument(
        "--trajectory", metavar="FILE", default=str(DEFAULT_TRAJECTORY),
        help="append trajectory records here",
    )
    where.add_argument(
        "--no-trajectory", dest="trajectory", action="store_const",
        const=None, help="append no trajectory records",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in GATES]
    if unknown:
        parser.error(f"unknown gate(s): {', '.join(unknown)}")
    return max(
        run_gate(
            name, quick=args.quick, update=args.update,
            artifacts=args.artifacts, trajectory=args.trajectory,
        )
        for name in args.names or GATES
    )


if __name__ == "__main__":
    sys.exit(main())
