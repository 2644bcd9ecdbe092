"""The repository benchmark: one workload per invocation.

    python3 benchmarks/perf/run.py --workload ablation [--seed 0] \\
        [--seconds 15] [--trace 0|1]

Closed loop, one client, one call in flight.  The workload runs in a
fresh subprocess (``workloads.py``) with ``PYTHONHASHSEED=0`` and one
numeric thread.  The command prints every metric as ``workload metric
value unit``, then a detail JSON line (calls, passes, failures, machine
fingerprint), then the result JSON as the last line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced subprocess, each a warm-up pass and three
measured passes, reports the per-layer metrics of the traced passes
and writes their Chrome trace under ``.bench_build/perf/``.  Every
call's core numbers are checked against BZ; the traced passes must
also equal the untraced ones in core numbers, simulated time, peak
memory and counters.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = ROOT / ".bench_build" / "perf"

WORKLOADS = (
    "ablation", "instrumented", "interpreter", "multi-gpu", "cpu-tables"
)
DEFAULT_SECONDS = 15
#: set-ups per untraced run (fresh processes); ``setup_s`` is their median
SETUP_RUNS = 3
#: passes of each ``--trace 1`` subprocess: one warm-up, the rest measured
TRACE_PASSES = 4
#: seconds ``workloads.reference_task`` takes (median) on the host the
#: benchmark was defined on, a 2-vCPU Intel Xeon VM; host times are
#: reported at that speed
REFERENCE_S = 0.00175
#: workers still running this long after the start are killed and the
#: run fails
RUN_TIMEOUT_S = 170

#: end-to-end metric -> unit, in the order BENCHMARK.json lists them
END_TO_END_UNITS = {
    "setup_s": "s",
    "edges_per_s": "edges/s",
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "sim_ms": "ms",
    "sim_peak_mb": "MiB",
    "host_rss_mb": "MiB",
}


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile by nearest rank: always one of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def calibrated(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while the reference task took
    ``reference_s``, scaled to the speed where it takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / reference_s


def end_to_end(
    summary: Dict[str, Any], setups: Sequence[Dict[str, Any]]
) -> Dict[str, float]:
    """End-to-end metrics of one untraced run's summary; ``setup_s`` is
    the median over ``setups`` (set-up summaries, this run's included).

    On a shared host other tenants slow a process by up to half, for
    seconds to minutes at a time.  Host times therefore use each call's
    fastest pass, which filters out short slowdowns, and are calibrated
    by the reference task timed before every call, which takes out
    slowdowns that outlast the run.
    """
    speed = REFERENCE_S / summary["reference_s"]
    fastest = [min(per_call) * speed for per_call in summary["samples"]]
    return {
        "setup_s": statistics.median(
            calibrated(s["setup_s"], s["setup_reference_s"]) for s in setups
        ),
        "edges_per_s": summary["edges_per_pass"] / sum(fastest),
        "call_ms_p50": 1e3 * nearest_rank(fastest, 0.5),
        "call_ms_p90": 1e3 * nearest_rank(fastest, 0.9),
        "sim_ms": summary["sim_ms"],
        "sim_peak_mb": summary["sim_peak_bytes"] / 2**20,
        "host_rss_mb": summary["rss_kb"] / 1024,
    }


def overhead(untraced: Dict[str, Any], traced: Dict[str, Any]) -> float:
    """Traced / untraced time - 1, each the calibrated sum over calls of
    the fastest measured pass (the warm-up pass excluded)."""
    def fastest(summary: Dict[str, Any]) -> float:
        return calibrated(
            sum(min(per_call[1:]) for per_call in summary["samples"]),
            summary["reference_s"],
        )

    return fastest(traced) / fastest(untraced) - 1.0


def fingerprint() -> Dict[str, Any]:
    """Informational machine description; never compared.  The run adds
    the median milliseconds of the reference task."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info
                 if line.startswith("model name")), cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_1m": os.getloadavg()[0],
    }


def spawn(
    deadline: float, workload: str, seed: int, *extra: str
) -> Dict[str, Any]:
    """Run ``workloads.py`` in a fresh subprocess, killed at ``deadline``
    (``time.monotonic()``); its summary JSON."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        ),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(tmp),  # the semi-external spill stays in the checkout
    )
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), *extra, "--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(0.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} worker exited with {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    machine = fingerprint()
    detail: Dict[str, Any] = {"workload": args.workload, "seed": args.seed,
                              "trace": args.trace}
    try:
        if args.trace:
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            passes = ("--passes", str(TRACE_PASSES))
            runs = [spawn(deadline, args.workload, args.seed, *passes),
                    spawn(deadline, args.workload, args.seed, *passes,
                          "--trace", str(trace_file))]
            metrics = dict(runs[1]["per_layer"])
            metrics["trace.overhead_frac"] = overhead(*runs)
            units = runs[1]["per_layer_units"]
            identical = runs[0]["digests"] == runs[1]["digests"]
            detail["trace_file"] = str(trace_file.relative_to(ROOT))
        else:
            setups = [
                spawn(deadline, args.workload, args.seed, "--passes", "0")
                for _ in range(SETUP_RUNS - 1)
            ]
            runs = [spawn(deadline, args.workload, args.seed,
                          "--seconds", str(args.seconds))]
            metrics = end_to_end(runs[0], setups + runs)
            units = END_TO_END_UNITS
            identical = True
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1

    failures = [f for run in runs for f in run["failures"]]
    attempted = sum(run["attempted"] for run in runs)
    detail.update(
        calls=len(runs[-1]["calls"]),
        passes=len(runs[-1]["samples"][0]),
        failures=failures,
        traced_equals_untraced=identical,
        fingerprint=dict(machine, numpy=runs[0]["numpy"],
                         reference_ms=1e3 * runs[-1]["reference_s"]),
    )
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value!r} {units[name]}")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not failures and identical,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
