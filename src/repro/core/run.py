"""One single-device run: the wiring every single-GPU host program shares.

The paper's host program (Algorithm 1) is a short loop of kernel
launches and read-backs.  What surrounds that loop is the same for every
single-device driver (:func:`~repro.core.host.gpu_peel`,
:func:`~repro.core.bfs_kernel.gpu_bfs`), and lives here:

* building the :class:`~repro.gpusim.device.Device`, or attaching the
  requested instruments late to a pre-built one;
* labelling the profiler and memory tracker with the run's variant;
* the static checkers — the differential checker against the program's
  resource certificate and the dataflow checker against its dataflow
  certificates, both keyed by the program contract's name — and the
  critical-path collector;
* :meth:`DeviceRun.launch`, which launches a kernel and feeds its stats
  to every attached checker;
* the per-round scope (:meth:`DeviceRun.begin_round` /
  :meth:`DeviceRun.end_round`): round stamps on the profiler and memory
  tracker, and, with a tracer attached, a ``"round"`` span plus a
  ``frontier`` counter-track sample;
* the final :class:`~repro.result.DecompositionResult`, including the
  run report when requested, and the result of an empty graph.

A driver keeps its own mallocs, its round loop, and its own counters
and stats.  Every instrument is observability-only: simulated time,
counters and core numbers are byte-identical with any of them on or off.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Sequence, Union

import numpy as np

from repro.core.variants import VariantConfig
from repro.errors import ReproError
from repro.gpusim.device import Device
from repro.gpusim.scheduler import KernelFn, KernelStats
from repro.graph.csr import CSRGraph
from repro.result import DecompositionResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.costmodel import CostModel
    from repro.gpusim.engine import ExecutionEngine
    from repro.gpusim.spec import DeviceSpec
    from repro.obs.critpath import CritPathCollector
    from repro.obs.tracer import SpanHandle, Tracer
    from repro.sanitize.report import SanitizerReport
    from repro.staticheck.dataflow import DataflowChecker
    from repro.staticheck.differential import DifferentialChecker

    Checker = Union[DifferentialChecker, DataflowChecker]

__all__ = ["DeviceRun"]


class DeviceRun:
    """The device, instruments and checkers of one single-device run.

    Args:
        graph: the input graph (sizes the checkers' launch environment).
        cfg: the kernel variant the run launches.
        program: the program contract's name (``"kcore"``, ``"bfs"``),
            which selects the static certificates the checkers use.
        algorithm: the result's algorithm name, e.g. ``"gpu-ours"``.
        device: a pre-built device; the requested instruments it lacks
            are attached to it.  Otherwise one is built from ``spec``,
            ``cost_model``, ``time_budget_ms``, ``preempt_prob``,
            ``seed`` and ``engine``.
        tracer: an explicit tracer; replaces a pre-built device's own.
        buffer_capacity: per-block buffer capacity, ``None`` for the
            device spec's default.
        sanitize, staticheck, dataflow, profile, memtrace, report,
        critpath: the instruments; ``report`` implies ``profile`` and
            ``memtrace``, ``critpath`` implies ``profile``.
    """

    def __init__(
        self,
        graph: CSRGraph,
        cfg: VariantConfig,
        program: str,
        algorithm: str,
        device: Device | None = None,
        spec: "DeviceSpec | None" = None,
        cost_model: "CostModel | None" = None,
        tracer: "Tracer | None" = None,
        time_budget_ms: float | None = None,
        preempt_prob: float = 0.0,
        seed: int = 0,
        engine: "str | ExecutionEngine | None" = None,
        buffer_capacity: int | None = None,
        sanitize: bool = False,
        staticheck: bool = False,
        dataflow: bool = False,
        profile: bool = False,
        memtrace: bool = False,
        report: bool = False,
        critpath: bool = False,
    ) -> None:
        # a run report always covers the kernel profile and the memory
        # peak attribution; the critical-path analyzer consumes the
        # per-block timings that only ride along with a profiler
        profile = profile or report or critpath
        memtrace = memtrace or report
        if staticheck and cfg.ring_buffer:
            raise ReproError(
                "staticheck is not available for ring-buffer variants: a "
                "wrapping buffer has no static slot bound (see "
                "docs/STATIC_ANALYSIS.md)"
            )
        if device is None:
            device = Device(
                spec=spec,
                cost_model=cost_model,
                time_budget_ms=time_budget_ms,
                preempt_prob=preempt_prob,
                seed=seed,
                tracer=tracer,
                sanitize=sanitize,
                profile=profile,
                memtrace=memtrace,
                engine=engine,
            )
        else:
            _attach(device, tracer, sanitize, profile, memtrace)
        for instrument in (device.profiler, device.memtracer):
            if instrument is not None:
                instrument.annotate(variant=cfg.name, algorithm=algorithm)
        if cfg.prefetch and device.spec.warps_per_block < 2:
            raise ReproError(
                "the VP variant needs at least 2 warps per block "
                f"(block_dim >= {2 * device.spec.warp_size})"
            )
        self.device = device
        self.cfg = cfg
        self.algorithm = algorithm
        self._want_report = report
        self._span: "SpanHandle | None" = None
        #: the per-round frontier sizes, one entry per :meth:`end_round`
        self.frontier_per_round: list[int] = []

        n = graph.num_vertices
        shape = (n, len(graph.neighbors), graph.max_degree)
        self._checkers: list["Checker"] = []
        if staticheck:
            from repro.staticheck.certificate import certify_variant
            from repro.staticheck.differential import DifferentialChecker

            self._checkers.append(DifferentialChecker(
                cfg, device.spec, *shape, buffer_capacity=buffer_capacity,
                certificate=certify_variant(cfg, program=program),
            ))
        if dataflow:
            from repro.staticheck.dataflow import DataflowChecker

            self._checkers.append(DataflowChecker(
                cfg,
                engine=device.engine.name,
                monitored=device.sanitizer is not None,
                preempt_prob=device.preempt_prob,
                program=program,
            ))
        self.critpath: "CritPathCollector | None" = None
        if critpath and n:  # an empty graph launches nothing to analyze
            from repro.obs.critpath import CritPathCollector
            from repro.staticheck.bounds import launch_env

            self.critpath = CritPathCollector(
                spec=device.spec,
                cost=device.cost_model,
                algorithm=algorithm,
                variant=cfg.name,
                track=device.name,
                cfg=cfg,
                env=launch_env(*shape, device.spec, cfg,
                               buffer_capacity=buffer_capacity),
                # a shared device may carry prior work; the analyzer
                # folds its cycles from the same starting point
                base_cycles=device.total_cycles,
                base_launches=device.kernel_launches,
            )

    # -- the round loop ------------------------------------------------------

    def launch(
        self, kernel: KernelFn, args: Sequence[Any], round_index: int
    ) -> KernelStats:
        """Launch ``kernel`` and feed its stats to every checker."""
        stats = self.device.launch(kernel, args=args)
        name = kernel.__name__
        for checker in self._checkers:
            checker.observe(name, stats)
        if self.critpath is not None:
            self.critpath.observe_launch(name, stats, round_index=round_index)
        return stats

    def begin_round(self, index: int, label: str) -> None:
        """Stamp the instruments with round ``index``; open its span."""
        device = self.device
        tr = device.tracer
        self._span = (
            tr.begin(label, device.elapsed_ms, cat="round")
            if tr is not None else None
        )
        for instrument in (device.profiler, device.memtracer):
            if instrument is not None:
                instrument.set_round(index)

    def end_round(self, args: dict[str, Any]) -> None:
        """Record ``args["frontier"]``; close the round's span with
        ``args`` and sample the ``frontier`` counter track."""
        frontier = args["frontier"]
        self.frontier_per_round.append(frontier)
        device = self.device
        tr = device.tracer
        if tr is not None and self._span is not None:
            tr.end(self._span, device.elapsed_ms, args=args)
            tr.sample("frontier", device.elapsed_ms, frontier)

    # -- results -------------------------------------------------------------

    def empty_result(self, core: np.ndarray) -> DecompositionResult:
        """The result of a graph with no vertices: nothing launched."""
        device = self.device
        if device.memtracer is not None:
            device.memtracer.finish(device.elapsed_ms)
        return self._with_report(DecompositionResult(
            core=core,
            algorithm=self.algorithm,
            **self._reports(),
        ))

    def result(
        self,
        core: np.ndarray,
        stats: dict[str, Any],
        counters: dict[str, float],
    ) -> DecompositionResult:
        """Close the run and assemble its result.

        ``stats`` and ``counters`` are the driver's own; the run adds
        the launch count, variant, engine and per-round frontiers to
        the stats, and the engine tag and device counters to the
        counters, which it also publishes to an attached tracer.
        """
        device = self.device
        for instrument in (device.profiler, device.memtracer):
            if instrument is not None:
                instrument.set_round(None)
        if device.memtracer is not None:
            # release the run's arrays so every lifetime closes (the
            # peak is already booked); untraced devices keep their
            # contents for post-run inspection
            device.free_all()
            device.memtracer.finish(device.elapsed_ms)
        engine = device.engine.name
        counters = {
            **counters,
            # engine attribution: which execution engine produced this
            # run (a tag, not a measurement — values are engine-invariant)
            f"engine.{engine}": 1.0,
            **device.counters(),
        }
        tr = device.tracer
        if tr is not None:
            for name, value in counters.items():
                if not name.startswith("device."):  # device.* already live
                    tr.put(name, value)
        reports = self._reports()
        return self._with_report(DecompositionResult(
            core=core,
            algorithm=self.algorithm,
            simulated_ms=device.elapsed_ms,
            peak_memory_bytes=device.peak_memory_bytes,
            rounds=len(self.frontier_per_round),
            stats={
                "kernel_launches": device.kernel_launches,
                **stats,
                "variant": self.cfg.name,
                "engine": engine,
                "frontier_per_round": self.frontier_per_round,
            },
            counters=counters,
            trace=tr,
            critpath=(
                self.critpath.build(
                    elapsed_ms=device.elapsed_ms,
                    kernel_launches=device.kernel_launches,
                )
                if self.critpath is not None else None
            ),
            **reports,
        ))

    def _reports(self) -> dict[str, Any]:
        device = self.device
        return {
            "sanitizer": (device.sanitizer.report
                          if device.sanitizer is not None else None),
            "staticheck": self._static_report(),
            "profile": (device.profiler.report()
                        if device.profiler is not None else None),
            "memtrace": (device.memtracer.report()
                         if device.memtracer is not None else None),
        }

    def _static_report(self) -> "SanitizerReport | None":
        """Both checkers' findings, merged into the first one's report."""
        if not self._checkers:
            return None
        merged = self._checkers[0].report
        for checker in self._checkers[1:]:
            merged.merge(checker.report)
        return merged

    def _with_report(self, result: DecompositionResult) -> DecompositionResult:
        if not self._want_report:
            return result
        from repro.obs.runreport import RunReport

        return replace(result, report=RunReport.from_result(result))


def _attach(
    device: Device,
    tracer: "Tracer | None",
    sanitize: bool,
    profile: bool,
    memtrace: bool,
) -> None:
    """Attach the requested instruments a pre-built device lacks."""
    if tracer is not None:
        device.tracer = tracer
    if sanitize and device.sanitizer is None:
        from repro.sanitize.racecheck import KernelSanitizer

        device.sanitizer = KernelSanitizer()
    if profile and device.profiler is None:
        from repro.profile.profiler import KernelProfiler

        device.profiler = KernelProfiler()
    if memtrace and device.memtracer is None:
        from repro.memtrace.tracker import MemoryTracker

        # late attach: anything already resident on the shared device
        # is opaque history, folded into the base
        tracker = MemoryTracker()
        tracker.attach(device.memory.in_use, ts_ms=device.elapsed_ms)
        device.memtracer = tracker
