"""Host-time attribution by layer, for the traced benchmark run.

:class:`Recorder` wraps the public entry points of each layer of the
program, from outside the program, and keeps one span per call in
memory: ``[id, parent, call_id, name, start, end]``.  A span's name is
the layer it times (``core.fastsim.loop``, ``gpusim.device.launch``,
...); its self time is its duration minus the time its child spans
cover.  Every timed call of the pass is the root of one tree (the
``api`` span around ``repro.api.decompose``), whose id is the tree's
``call_id``, so the self times of a tree sum to its root's duration.

Only the traced subprocess imports this module.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Union

import numpy as np

from repro import api
from repro.core import host, multigpu
from repro.cpu import external
from repro.gpusim.device import Device
from repro.gpusim.engine import ReferenceEngine, VectorizedEngine
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DatasetSpec
from repro.memtrace.tracker import MemoryTracker
from repro.obs import validate_chrome_trace
from repro.obs.critpath import CritPathCollector
from repro.obs.runreport import RunReport
from repro.profile.profiler import KernelProfiler
from repro.sanitize.racecheck import KernelSanitizer

#: layers whose self time is reported as a share of the traced passes,
#: each with a ``.calls`` count; ``api`` is what no deeper layer covers
SELF_TIME_LAYERS = (
    "api",
    "core.host",
    "gpusim.device.setup",
    "gpusim.device.launch",
    "gpusim.device.readback",
    "core.fastsim.scan",
    "core.fastsim.loop",
    "gpusim.engine.declined",
    "gpusim.scheduler.scan",
    "gpusim.scheduler.loop",
    "profile.record",
    "memtrace.hooks",
    "obs.critpath",
    "obs.runreport.assemble",
    "sanitize.hooks",
    "core.multigpu",
    "cpu.multicore",
    "cpu.external.write",
    "cpu.external.stream",
)

#: per-layer metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS: Dict[str, str] = {
    "trace.pass_s": "s",
    "trace.overhead_frac": "ratio",
    "graph.build_s": "s",
    "graph.build.calls": "count",
    "graph.edges": "count",
    **{
        metric: unit
        for layer in SELF_TIME_LAYERS
        for metric, unit in ((f"{layer}.self_share", "ratio"),
                             (f"{layer}.calls", "count"))
    },
    "core.host.rounds": "count",
    "gpusim.engine.vectorized_frac": "ratio",
    "kernel.scan.cycles": "cycles",
    "kernel.loop.cycles": "cycles",
    "device.mem_transactions": "count",
    "device.atomic_conflicts": "count",
    "core.multigpu.sub_rounds": "count",
    "core.multigpu.exchange_share": "ratio",
    "core.multigpu.exchange_bound_rounds": "count",
    "cpu.ops": "count",
    "disk.passes": "count",
    "disk.page_in_bytes": "bytes",
}

#: the result counters, summed over the calls of the last traced pass
_COUNTERS = ("kernel.scan.cycles", "kernel.loop.cycles",
             "device.mem_transactions", "device.atomic_conflicts",
             "cpu.ops", "disk.passes", "disk.page_in_bytes")

SpanName = Union[str, Callable[[tuple, Any], str]]


def _kernel_span(layer: str) -> Callable[[tuple, Any], str]:
    """Engine spans are split by kernel: ``<layer>.scan`` / ``.loop``."""
    def name(args: tuple, stats: Any) -> str:
        return f"{layer}.{args[1].__name__.removesuffix('_kernel')}"
    return name


def _vectorized_span(args: tuple, stats: Any) -> str:
    # a launch the vectorized executors declined ran on the interpreter
    if stats is not None and stats.served_by != "vectorized":
        return "gpusim.engine.declined"
    return _kernel_span("core.fastsim")(args, stats)


class Recorder:
    """In-memory span recorder over wrapped layer entry points."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.setup_spans: List[list] = []
        #: spans are recorded only while this is set
        self.enabled = False
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn: Callable, name: SpanName) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            if self._stack:
                parent, call_id = self._stack[-1][0], self._stack[-1][2]
            else:
                parent, call_id = None, sid
            span = [sid, parent, call_id, name, time.perf_counter(), 0.0]
            self.spans.append(span)
            self._stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
                if callable(name):
                    span[3] = name(args, result)
        return traced

    def _patch(self, owner: Any, attr: str, name: SpanName) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(self._wrap(original.__func__, name))
        else:
            wrapped = self._wrap(original, name)
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, original))

    def _patch_function(self, fn: Callable, name: str) -> None:
        """Replace ``fn`` in every ``repro`` module that imported it."""
        wrapped = self._wrap(fn, name)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._undo.append(
                        lambda m=module, a=attr: setattr(m, a, fn)
                    )

    def install(self) -> None:
        """Wrap each layer's public entry points (see README.md)."""
        self._patch_function(api.decompose, "api")
        self._patch(DatasetSpec, "build", "graph.build")
        self._patch(CSRGraph, "from_edges", "graph.build")
        self._patch_function(host.gpu_peel, "core.host")
        self._patch(Device, "__init__", "gpusim.device.setup")
        self._patch(Device, "malloc", "gpusim.device.setup")
        self._patch(Device, "read_back", "gpusim.device.readback")
        self._patch(Device, "launch", "gpusim.device.launch")
        self._patch(VectorizedEngine, "run", _vectorized_span)
        self._patch(ReferenceEngine, "run", _kernel_span("gpusim.scheduler"))
        for attr in ("record_launch", "record_charge", "report"):
            self._patch(KernelProfiler, attr, "profile.record")
        for attr in ("attach", "set_round", "set_scope", "on_malloc",
                     "on_free", "on_shared_alloc", "finish", "report"):
            self._patch(MemoryTracker, attr, "memtrace.hooks")
        for attr in ("observe_launch", "build"):
            self._patch(CritPathCollector, attr, "obs.critpath")
        self._patch(RunReport, "from_result", "obs.runreport.assemble")
        for attr in ("begin_launch", "end_launch"):
            self._patch(KernelSanitizer, attr, "sanitize.hooks")
        self._patch_function(multigpu.multi_gpu_peel, "core.multigpu")
        for key in ("bz", "pkc", "park", "mpm"):
            runner = api.ALGORITHMS[key]
            api.ALGORITHMS[key] = self._wrap(runner, "cpu.multicore")
            self._undo.append(
                lambda k=key, f=runner: api.ALGORITHMS.__setitem__(k, f)
            )
        self._patch_function(external.write_edgelist, "cpu.external.write")
        self._patch_function(
            external.semi_external_decompose, "cpu.external.stream"
        )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- metrics -------------------------------------------------------------

    def end_setup(self) -> None:
        """Set the spans of the input build aside."""
        self.setup_spans, self.spans = self.spans, []
        self.enabled = False

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its children cover."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[1] is not None:
                covered[span[1]] += span[5] - span[4]
        return {s[0]: s[5] - s[4] - covered[s[0]] for s in self.spans}

    def metrics(
        self, calls: Sequence[Any], inputs: Dict[str, CSRGraph], out: Any,
        passes: int,
    ) -> Dict[str, float]:
        """Per-layer metrics of the ``passes`` traced passes of ``out``,
        times and counts per pass.

        ``trace.overhead_frac`` needs the untraced run and is filled in
        by ``run.py``.
        """
        self_time = self.self_times()
        total = sum(s[5] - s[4] for s in self.spans if s[1] is None)
        by_layer: Dict[str, float] = defaultdict(float)
        count: Counter = Counter()
        for span in self.spans:
            by_layer[span[3]] += self_time[span[0]]
            count[span[3]] += 1
        unknown = set(count) - set(SELF_TIME_LAYERS)
        if unknown:
            raise ValueError(f"spans outside the layer map: {sorted(unknown)}")
        build_roots = [s for s in self.setup_spans if s[1] is None]
        results = [r for r in out.results if r is not None]
        launches = count["gpusim.device.launch"]
        served = count["core.fastsim.scan"] + count["core.fastsim.loop"]
        m: Dict[str, float] = {
            "trace.pass_s": total / passes,
            "trace.overhead_frac": 0.0,
            "graph.build_s": sum(s[5] - s[4] for s in build_roots),
            "graph.build.calls": len(build_roots),
            "graph.edges": sum(g.num_edges for g in inputs.values()),
        }
        for layer in SELF_TIME_LAYERS:
            m[f"{layer}.self_share"] = by_layer[layer] / total
            m[f"{layer}.calls"] = count[layer] / passes
        m["core.host.rounds"] = sum(
            r.rounds for r in results
            if r.algorithm.startswith("gpu-") and "multi" not in r.algorithm
        )
        m["gpusim.engine.vectorized_frac"] = (
            served / launches if launches else 0.0
        )
        for name in _COUNTERS:
            m[name] = sum(r.counters.get(name, 0.0) for r in results)
        m.update(_exchange(calls, inputs, out))
        return {name: float(m[name]) for name in PER_LAYER_UNITS}

    def write_chrome_trace(self, path: str | Path) -> None:
        """Write the traced passes as Chrome-trace JSON, validated first."""
        t0 = self.spans[0][4] if self.spans else 0.0
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": "benchmark traced passes"}}]
        events += [
            {"name": s[3], "ph": "X", "pid": 1, "tid": 1,
             "ts": (s[4] - t0) * 1e6, "dur": (s[5] - s[4]) * 1e6,
             "args": {"id": s[0], "parent": s[1], "call_id": s[2]}}
            for s in self.spans
        ]
        trace = {"traceEvents": events, "displayTimeUnit": "ms"}
        problems = validate_chrome_trace(trace)
        if problems:
            raise ValueError(f"invalid Chrome trace: {problems[:3]}")
        Path(path).write_text(json.dumps(trace), encoding="utf-8")


def _exchange(
    calls: Sequence[Any], inputs: Dict[str, CSRGraph], out: Any
) -> Dict[str, float]:
    """Sub-round attribution of the multi-GPU calls.

    One extra untimed ``critpath=True`` call per multi-GPU call
    classifies its sub-rounds; the analyzer is observability-only, so
    its result must equal the pass's byte for byte (a mismatch is
    recorded as a failure of that call).
    """
    sub_rounds = bound = 0
    exchange = total = 0.0
    for call, result in zip(calls, out.results):
        if result is None or not call.algorithm.startswith("gpu-multi"):
            continue
        again = api.decompose(
            inputs[call.dataset], call.algorithm, critpath=True,
            **dict(call.kwargs),
        )
        if not (np.array_equal(again.core, result.core)
                and again.simulated_ms == result.simulated_ms
                and again.peak_memory_bytes == result.peak_memory_bytes):
            out.failures.append(
                {"call": call.label, "error": "CritpathChangedResult"}
            )
        sub_rounds += result.stats["sub_rounds"]
        record = again.critpath.to_json()
        bound += record["round_bounds"]["exchange"]
        exchange += sum(r["exchange_total_cycles"] for r in record["rounds"])
        total += record["accounting"]["total_cycles"]
    return {
        "core.multigpu.sub_rounds": sub_rounds,
        "core.multigpu.exchange_share": exchange / total if total else 0.0,
        "core.multigpu.exchange_bound_rounds": bound,
    }
