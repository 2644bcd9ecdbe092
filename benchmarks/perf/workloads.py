"""The benchmark's workloads, their inputs, and the subprocess that runs one.

Each workload is a fixed list of calls ``repro.api.decompose(graph,
algorithm, **kwargs)`` over Table I analogues.  ``run.py`` starts this
file as a fresh subprocess per workload::

    python benchmarks/perf/workloads.py --workload ablation --seed 0 \\
        --spawned <time.monotonic() at spawn> [--seconds 15 | --passes N] \\
        [--trace FILE]

and reads one JSON summary from the last line of its standard output.
Without ``--trace`` the tracing module (``layers.py``) is never
imported, so the untraced run measures the program alone.

The seed chooses two things: a vertex relabelling of every input (seed
0 is the identity, so seed-0 simulated numbers equal the committed
Table II cells) and the call order inside each pass.  The program only
ever receives the generated ``CSRGraph``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import api
from repro.core.host import GpuPeelOptions
from repro.core.variants import get_variant, variant_names
from repro.cpu.bz import bz_core_numbers
from repro.graph import datasets
from repro.graph.csr import CSRGraph
from repro.graph.examples import fig1_graph
from repro.result import DecompositionResult


@dataclass(frozen=True)
class Call:
    """One timed call:
    ``api.decompose(inputs[dataset], algorithm, **kwargs)``."""

    dataset: str
    algorithm: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()
    #: short program name for reports; defaults to ``algorithm``
    name: str = ""

    @property
    def label(self) -> str:
        return f"{self.name or self.algorithm}@{self.dataset}"

    @property
    def shape(self) -> Tuple[str, Tuple[Tuple[str, Any], ...]]:
        """Calls of one shape run the same code on different graphs."""
        return self.algorithm, self.kwargs


#: web skew, hub contention, and a dense core peeled over 126 rounds:
#: the graph properties peeling cost depends on
_TABLE2_GRAPHS = ("web-Google", "wiki-Talk", "hollywood-2009")


def _ablation() -> List[Call]:
    # Table II: nine variants, default (vectorized) engine
    return [
        Call(d, f"gpu-{v}") for d in _TABLE2_GRAPHS for v in variant_names()
    ]


def _instrumented() -> List[Call]:
    # report implies profile + memtrace; critpath rides on the profile
    instruments = (("critpath", True), ("report", True))
    return [
        Call(d, f"gpu-{v}", instruments, f"gpu-{v}/report+critpath")
        for d in _TABLE2_GRAPHS for v in ("ours", "vp", "ec")
    ]


def _interpreter() -> List[Call]:
    # every loop launch here runs on the reference interpreter: the
    # vectorized loop executor declines virtual warps and ring buffers,
    # and the sanitizer needs the per-access shadow log
    ring = get_variant("ours").with_ring_buffer()
    calls = []
    for d in ("amazon0601", "web-Google"):
        calls += [
            Call(d, "gpu-ours", (("options", GpuPeelOptions(variant="vw2")),),
                 "gpu-vw2"),
            Call(d, "gpu-ours", (("options", GpuPeelOptions(variant="vw4")),),
                 "gpu-vw4"),
            Call(d, "gpu-ours", (("options", GpuPeelOptions(variant=ring)),),
                 "gpu-ours+ring"),
            Call(d, "gpu-ours", (("engine", "reference"),),
                 "gpu-ours/reference"),
        ]
    calls.append(Call("amazon0601", "gpu-ours", (("sanitize", True),),
                      "gpu-ours/sanitize"))
    return calls


def _multi_gpu() -> List[Call]:
    graphs = ("web-Google", "in-2004", "soc-LiveJournal1", "uk-2002")
    return [
        Call(d, a) for d in graphs
        for a in ("gpu-ours", "gpu-multi2", "gpu-multi4")
    ]


def _cpu_tables() -> List[Call]:
    graphs = ("amazon0601", "web-Google", "wiki-Talk", "soc-LiveJournal1")
    calls = [Call(d, a) for d in graphs for a in ("bz", "pkc", "park", "mpm")]
    # spills to $TMPDIR, which run.py points inside the checkout
    return calls + [
        Call(d, "semi-external") for d in ("amazon0601", "wiki-Talk")
    ]


#: workload name -> its calls, in the order BENCHMARK.json lists them
WORKLOADS: Dict[str, Callable[[], List[Call]]] = {
    "ablation": _ablation,
    "instrumented": _instrumented,
    "interpreter": _interpreter,
    "multi-gpu": _multi_gpu,
    "cpu-tables": _cpu_tables,
}


def workload_calls(workload: str, smallest_only: bool = False) -> List[Call]:
    """The calls of ``workload``; ``smallest_only`` keeps those on its
    smallest input (by edge count), for a quick self-test."""
    calls = WORKLOADS[workload]()
    if smallest_only:
        sizes = {c.dataset: datasets.load(c.dataset).num_edges for c in calls}
        smallest = min(sizes, key=lambda d: (sizes[d], d))
        calls = [c for c in calls if c.dataset == smallest]
    return calls


# -- inputs ---------------------------------------------------------------


def relabel(graph: CSRGraph, seed: int, dataset: str) -> CSRGraph:
    """``graph`` with its vertices permuted by ``seed`` (0 = identity)."""
    if seed == 0:
        return graph
    index = datasets.dataset_names().index(dataset)
    perm = np.random.default_rng([seed, index]).permutation(graph.num_vertices)
    return CSRGraph.from_edges(
        perm[graph.edge_array()], num_vertices=graph.num_vertices
    )


def build_inputs(calls: Sequence[Call], seed: int) -> Dict[str, CSRGraph]:
    """Generate every input afresh (bypassing ``datasets.load``'s cache)."""
    names = sorted({c.dataset for c in calls})
    return {
        d: relabel(datasets.get_spec(d).build(), seed, d) for d in names
    }


def run_call(call: Call, graph: CSRGraph) -> DecompositionResult:
    return api.decompose(graph, call.algorithm, **dict(call.kwargs))


def warm_up(calls: Sequence[Call]) -> float:
    """One untimed call per call shape on the Fig. 1 graph, which pays
    lazy imports and first-use costs; returns the seconds it took."""
    start = time.perf_counter()
    graph, _ = fig1_graph()
    for algorithm, kwargs in dict.fromkeys(c.shape for c in calls):
        try:
            api.decompose(graph, algorithm, **dict(kwargs))
        except Exception:  # noqa: BLE001 - the timed calls report failures
            pass
    return time.perf_counter() - start


# -- measurement ------------------------------------------------------------

#: reference-task runs right after set-up, which calibrate ``setup_s``
CALIBRATION_RUNS = 15


def reference_task() -> float:
    """Seconds one run of a fixed task takes: interpreted Python plus
    small numpy operations, the program's own mix.  Timed next to the
    calls, it measures how fast the host runs at that moment."""
    start = time.perf_counter()
    total = 0
    for i in range(15_000):
        total += i * i
    values = np.arange(10_000)
    for _ in range(20):
        values = (values * 3 + 1) % 1_000_003
    return time.perf_counter() - start


def digest(result: DecompositionResult) -> str:
    """Fingerprint of everything that must not depend on host timing:
    core numbers, simulated time, peak memory and counters."""
    h = hashlib.sha256(result.core.tobytes())
    h.update(repr((result.simulated_ms, result.peak_memory_bytes,
                   sorted(result.counters.items()))).encode())
    return h.hexdigest()


def pass_order(seed: int, index: int, size: int) -> List[int]:
    rng = np.random.default_rng([seed, index])
    return [int(i) for i in rng.permutation(size)]


@dataclass
class Outcome:
    """Per-call host seconds for every pass, the reference task's
    seconds before every call, checks, and the last pass's results."""

    samples: List[List[float]]
    digests: List[Optional[str]]
    results: List[Optional[DecompositionResult]]
    reference: List[float] = field(default_factory=list)
    failures: List[Dict[str, str]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.samples)


def measure(
    calls: Sequence[Call],
    inputs: Dict[str, CSRGraph],
    oracle: Dict[str, np.ndarray],
    seed: int,
    seconds: float = 0.0,
    passes: Optional[int] = None,
    before_pass: Optional[Callable[[int], None]] = None,
) -> Outcome:
    """Closed loop, one call in flight: run whole passes over ``calls``
    until ``seconds`` have elapsed (at least two passes), or exactly
    ``passes`` passes.  A call fails when it raises or when its core
    numbers differ from BZ or from its own earlier passes."""
    out = Outcome(
        samples=[[] for _ in calls],
        digests=[None] * len(calls),
        results=[None] * len(calls),
    )
    start = time.perf_counter()
    index = 0
    while (
        index < passes if passes is not None
        else index < 2 or time.perf_counter() - start < seconds
    ):
        gc.collect()  # garbage of earlier passes is not this pass's cost
        if before_pass is not None:
            before_pass(index)
        for i in pass_order(seed, index, len(calls)):
            call = calls[i]
            out.reference.append(reference_task())
            began = time.perf_counter()
            try:
                result: Optional[DecompositionResult] = run_call(
                    call, inputs[call.dataset]
                )
                error = None
            except Exception as exc:  # noqa: BLE001 - counted, not fatal
                result, error = None, type(exc).__name__
            out.samples[i].append(time.perf_counter() - began)
            if result is not None:
                key = digest(result)
                if not np.array_equal(result.core, oracle[call.dataset]):
                    error = "CoresDifferFromBZ"
                elif out.digests[i] not in (None, key):
                    error = "NotDeterministic"
                else:
                    out.digests[i] = key
            if error is not None:
                out.failures.append({"call": call.label, "error": error})
            out.results[i] = result
        index += 1
    return out


def summarize(
    calls: Sequence[Call], inputs: Dict[str, CSRGraph], out: Outcome
) -> Dict[str, Any]:
    """What ``run.py`` needs from a run, as plain JSON."""
    results = [r for r in out.results if r is not None]
    return {
        "calls": [c.label for c in calls],
        "samples": out.samples,
        "reference_s": statistics.median(out.reference),
        "digests": out.digests,
        "failures": out.failures,
        "attempted": out.attempted,
        "edges_per_pass": sum(inputs[c.dataset].num_edges for c in calls),
        "sim_ms": sum(r.simulated_ms for r in results),
        "sim_peak_bytes": sum(r.peak_memory_bytes for r in results),
        # ru_maxrss is KiB on Linux
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": np.__version__,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when run.py started it")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int,
                        help="run exactly this many passes; 0 = set-up only")
    parser.add_argument("--trace",
                        help="traced run: write the Chrome trace here")
    args = parser.parse_args(argv)
    started = time.monotonic() - args.spawned  # process start + imports
    if args.trace and not args.passes:
        parser.error("--trace needs --passes")

    calls = workload_calls(args.workload)
    recorder = None
    if args.trace:
        import layers

        recorder = layers.Recorder()
        recorder.install()
        recorder.enabled = True
    start = time.perf_counter()
    inputs = build_inputs(calls, args.seed)
    built = time.perf_counter() - start
    if recorder is not None:
        recorder.end_setup()
    setup = {
        "setup_s": started + built + warm_up(calls),
        "setup_reference_s": statistics.median(
            reference_task() for _ in range(CALIBRATION_RUNS)
        ),
    }
    if args.passes == 0:
        print(json.dumps(setup))
        return 0
    oracle = {d: bz_core_numbers(g) for d, g in inputs.items()}
    before_pass = None
    if recorder is not None:
        # the first pass warms caches untraced; the others are traced
        def before_pass(index: int) -> None:
            recorder.enabled = index > 0

    out = measure(calls, inputs, oracle, args.seed, seconds=args.seconds,
                  passes=args.passes, before_pass=before_pass)
    per_layer = None
    if recorder is not None:
        recorder.enabled = False
        per_layer = recorder.metrics(calls, inputs, out, args.passes - 1)
        recorder.write_chrome_trace(args.trace)
        recorder.uninstall()
    summary = dict(summarize(calls, inputs, out), **setup)
    if per_layer is not None:
        summary["per_layer"] = per_layer
        summary["per_layer_units"] = layers.PER_LAYER_UNITS
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
