"""High-level public API for k-core decomposition.

:class:`KCoreDecomposer` is the front door most users want: pick an
execution mode once, then decompose graphs.

* ``mode="fast"`` (default) — the vectorised native path; answers in
  real milliseconds, no cost model.
* ``mode="simulate"`` — runs the paper's CUDA kernels on the SIMT
  simulator, producing simulated time/memory metrics and honouring the
  chosen ablation variant.  ``options`` (a
  :class:`~repro.core.host.GpuPeelOptions`) carries that mode's
  tunables — variant, buffer capacity, time budget, race fuzzing; the
  instruments below are keyword arguments only.

Pass ``trace=True`` to record each ``decompose`` call with a fresh
:class:`~repro.obs.tracer.Tracer` (see ``docs/OBSERVABILITY.md``): the
returned result carries the tracer as ``result.trace`` — export a
Perfetto timeline with ``result.trace.write("trace.json")`` — and its
flat metrics in ``result.counters``.  In ``simulate`` mode the trace
has one span per kernel launch and per host round on the simulated
timeline; in ``fast`` mode it degrades to a single wall-clock span
(there is no simulated clock to trace against).

Pass ``sanitize=True`` to check the run with the kernel sanitizer (see
``docs/SANITIZER.md``): in ``simulate`` mode every kernel launch runs
under the dynamic race detector; in ``fast`` mode (no kernels execute)
it degrades to the static lint pass over the shipped kernel sources.
Either way ``result.sanitizer`` carries the
:class:`~repro.sanitize.report.SanitizerReport`.

Pass ``staticheck=True`` to check the run against the static resource
certifier (see ``docs/STATIC_ANALYSIS.md``): in ``simulate`` mode every
launch's measured stats are asserted against the variant's closed-form
certificate and ``result.staticheck`` carries the differential
checker's report; in ``fast`` mode (no kernels execute) it degrades to
the purely static checks — certificate coverage and shared-memory fit.

Pass ``profile=True`` to profile the run (see the "Profiling" section
of ``docs/OBSERVABILITY.md``): in ``simulate`` mode every kernel launch
gets a speed-of-light bound attribution and ``result.profile`` carries
the :class:`~repro.profile.report.ProfileReport`; in ``fast`` mode
there are no kernel launches to profile, so ``result.profile`` stays
``None``.

Pass ``memtrace=True`` to record memory telemetry (see the "Memory
telemetry" section of ``docs/OBSERVABILITY.md``): in ``simulate`` mode
every device allocation's lifetime is recorded and the memory peak gets
an exact attribution breakdown on ``result.memtrace``; in ``fast`` mode
there is no simulated device memory to trace, so ``result.memtrace``
stays ``None``.

Pass ``report=True`` to merge every enabled telemetry vertical into a
unified, validated ``repro.runreport/v1`` record on ``result.report``
(see the "Run reports" section of ``docs/OBSERVABILITY.md``): in
``simulate`` mode this implies ``profile`` and ``memtrace``, so the
report covers kernels, cycles, and the exact memory-peak attribution;
in ``fast`` mode it degrades to a minimal section (timings and stats —
there is no device telemetry to merge).

Pass ``critpath=True`` to run the causal critical-path analyzer (see
the "Critical path & what-if" section of ``docs/OBSERVABILITY.md``):
in ``simulate`` mode ``result.critpath`` carries the
:class:`~repro.obs.critpath.CritPathReport` — the causal DAG, exact
slack accounting, and the ranked what-if speedup-ceiling table; in
``fast`` mode there is no simulated timeline to analyze, so
``result.critpath`` stays ``None``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.fastpath import fast_decompose
from repro.core.host import GpuPeelOptions, gpu_peel
from repro.core.variants import VariantConfig
from repro.errors import ReproError
from repro.gpusim.costmodel import CostModel
from repro.gpusim.engine import ExecutionEngine
from repro.gpusim.spec import DeviceSpec
from repro.graph.csr import CSRGraph
from repro.obs.tracer import Tracer
from repro.result import DecompositionResult

__all__ = ["KCoreDecomposer"]

_MODES = ("fast", "simulate")


class KCoreDecomposer:
    """Reusable decomposition front end; see the module docstring.

    Example:
        >>> from repro.graph.examples import fig1_graph
        >>> graph, expected = fig1_graph()
        >>> result = KCoreDecomposer().decompose(graph)
        >>> int(result.core[0])
        3
    """

    def __init__(
        self,
        mode: str = "fast",
        variant: str | VariantConfig = "ours",
        spec: DeviceSpec | None = None,
        cost_model: CostModel | None = None,
        options: GpuPeelOptions | None = None,
        trace: bool = False,
        sanitize: bool = False,
        staticheck: bool = False,
        profile: bool = False,
        memtrace: bool = False,
        engine: "str | ExecutionEngine | None" = None,
        report: bool = False,
        critpath: bool = False,
    ) -> None:
        if mode not in _MODES:
            raise ReproError(f"mode must be one of {_MODES}, got {mode!r}")
        self.mode = mode
        self.variant = variant
        self.spec = spec
        self.cost_model = cost_model
        self.options = options
        self.trace = trace
        self.sanitize = sanitize
        self.staticheck = staticheck
        self.profile = profile
        self.memtrace = memtrace
        #: execution engine for ``simulate`` mode — ``"reference"``,
        #: ``"vectorized"`` (default), or a prebuilt
        #: :class:`~repro.gpusim.engine.ExecutionEngine`.  ``fast``
        #: mode runs no simulator kernels, so the engine is unused.
        self.engine = engine
        self.report = report
        #: run the causal critical-path analyzer in ``simulate`` mode
        #: (:mod:`repro.obs.critpath`); ``fast`` mode has no simulated
        #: timeline, so ``result.critpath`` stays ``None`` there
        self.critpath = critpath

    def decompose(self, graph: CSRGraph) -> DecompositionResult:
        """Compute the core number of every vertex of ``graph``."""
        tracer = Tracer() if self.trace else None
        if self.mode == "fast":
            # no kernels execute on this path, so "sanitize" degrades to
            # the static lint pass over the shipped kernel sources
            lint_report = None
            if self.sanitize:
                from repro.sanitize.lint import lint_repo

                lint_report = lint_repo()
            static_report = None
            if self.staticheck:
                # no launches to check dynamically: run the purely
                # static half (coverage + shared-memory fit)
                from repro.core.variants import get_variant
                from repro.staticheck.differential import DifferentialChecker

                cfg = (
                    self.variant
                    if isinstance(self.variant, VariantConfig)
                    else get_variant(self.variant)
                )
                static_report = DifferentialChecker(
                    cfg, self.spec or DeviceSpec(), graph.num_vertices,
                    len(graph.neighbors), graph.max_degree,
                ).report
            if (
                tracer is None
                and lint_report is None
                and static_report is None
                and not self.report
            ):
                return fast_decompose(graph)
            wall_start = time.perf_counter()
            result = fast_decompose(graph)
            wall_ms = (time.perf_counter() - wall_start) * 1000.0
            if tracer is not None:
                tracer.span("fast_decompose", 0.0, wall_ms, cat="host",
                            track="wall", args={"clock": "wall"})
                tracer.put("host.wall_ms", wall_ms)
            wrapped = DecompositionResult(
                core=result.core,
                algorithm=result.algorithm,
                simulated_ms=result.simulated_ms,
                peak_memory_bytes=result.peak_memory_bytes,
                rounds=result.rounds,
                stats=result.stats,
                counters=dict(tracer.counters) if tracer is not None else {},
                trace=tracer,
                sanitizer=lint_report,
                staticheck=static_report,
            )
            if self.report:
                from dataclasses import replace

                from repro.obs.runreport import RunReport

                wrapped = replace(
                    wrapped, report=RunReport.from_result(wrapped)
                )
            return wrapped
        return gpu_peel(
            graph,
            variant=self.variant,
            spec=self.spec,
            cost_model=self.cost_model,
            options=self.options,
            tracer=tracer,
            sanitize=self.sanitize,
            staticheck=self.staticheck,
            profile=self.profile,
            memtrace=self.memtrace,
            engine=self.engine,
            report=self.report,
            critpath=self.critpath,
        )

    def core_numbers(self, graph: CSRGraph) -> np.ndarray:
        """Convenience: just the core-number array."""
        return self.decompose(graph).core
