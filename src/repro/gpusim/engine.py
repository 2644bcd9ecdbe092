"""Execution engines: pluggable strategies for running a kernel launch.

The simulator has exactly one *semantic* definition of a launch — the
reference interpreter of :mod:`repro.gpusim.scheduler`, which drives
every warp generator through one shared FIFO queue.  An
:class:`ExecutionEngine` is a strategy for producing that launch's
outcome (the :class:`~repro.gpusim.scheduler.KernelStats`, plus every
device-memory side effect) — and every engine is required to produce
**byte-identical** results: the same simulated cycles, the same
counters, the same array contents, the same Table V peaks.  Engines
may only differ in host wall-clock time.  See ``docs/SIMULATOR.md``
for the architecture and the equivalence argument.

Two engines ship:

* ``reference`` — the warp-generator interpreter
  (:func:`~repro.gpusim.scheduler.run_kernel`).  Always available,
  always authoritative; the cross-engine property tests treat its
  output as ground truth.
* ``vectorized`` — batched launch-level executors that replay the
  reference FIFO at *block* granularity and execute whole warp batches
  as numpy array operations (:mod:`repro.gpusim.vectorized` holds the
  accounting toolkit; the kernel-specific executors register
  themselves via :func:`register_vectorized_kernel`).  Falls back to
  the reference interpreter — per launch, before touching any device
  state — whenever exactness cannot be guaranteed structurally; see
  :meth:`VectorizedEngine.run` for the trigger list.

Hook contract
-------------

Observability and verification hooks attach *identically* under every
engine, because they attach at the launch boundary, not inside an
engine:

* the **sanitizer**'s :class:`~repro.sanitize.racecheck.LaunchMonitor`
  needs the per-access shadow log only the reference interpreter
  produces, so a monitored launch is routed to the reference engine —
  results are byte-identical by the engine contract, so the sanitizer
  observes exactly the run it would have observed anyway;
* the **profiler** consumes per-block
  :class:`~repro.gpusim.costmodel.BlockTiming` records
  (``collect_timings=True``), which every engine emits;
* the **memtracker** receives shared-memory allocation callbacks from
  :meth:`~repro.gpusim.context.BlockState.alloc_shared`, which every
  engine routes through the same ``BlockState`` objects.

With all hooks absent, the cold path stays a single ``is not None``
test per hook — the same discipline as the tracer.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Mapping, Sequence, Tuple

from repro.gpusim.costmodel import CostModel
from repro.gpusim.scheduler import KernelFn, KernelStats, run_kernel
from repro.gpusim.spec import DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.memtrace.tracker import MemoryTracker
    from repro.sanitize.racecheck import LaunchMonitor

__all__ = [
    "DEFAULT_ENGINE",
    "ExecutionEngine",
    "FallbackToReference",
    "ReferenceEngine",
    "VectorLaunch",
    "VectorizedEngine",
    "available_engines",
    "get_engine",
    "has_vectorized_impl",
    "register_vectorized_kernel",
    "vectorized_kernel_names",
]

#: the engine a :class:`~repro.gpusim.device.Device` uses when none is
#: chosen explicitly.  Vectorized is the default because its results
#: are byte-identical to the reference interpreter by contract (and
#: pinned by the perf/memory regression gates), while being an order
#: of magnitude faster on the Table II bench.
DEFAULT_ENGINE = "vectorized"


class FallbackToReference(Exception):
    """Raised by a vectorized executor to decline a launch.

    Must be raised **before any device state is mutated** — the engine
    responds by re-running the whole launch on the reference
    interpreter, which assumes a pristine starting state.
    """


@dataclass(frozen=True)
class VectorLaunch:
    """Everything a launch-level vectorized executor needs.

    ``args``/``kwargs`` are the kernel arguments exactly as the caller
    passed them to :meth:`~repro.gpusim.device.Device.launch`; the
    executor binds them against the kernel signature itself.
    """

    spec: DeviceSpec
    cost: CostModel
    grid_dim: int
    block_dim: int
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    collect_timings: bool = False
    memtracker: "MemoryTracker | None" = None


#: a launch-level executor: consumes a :class:`VectorLaunch`, performs
#: the launch's device-memory side effects, and returns its stats —
#: or raises :class:`FallbackToReference` before touching anything
VectorizedImpl = Callable[[VectorLaunch], KernelStats]

_VECTORIZED_KERNELS: Dict[KernelFn, VectorizedImpl] = {}


def register_vectorized_kernel(
    kernel_fn: KernelFn, impl: VectorizedImpl
) -> None:
    """Register ``impl`` as the vectorized executor for ``kernel_fn``.

    Kernel modules call this at import time (see
    ``repro.core.fastsim``), so any process that can *launch* a kernel
    has already registered its fast path.  Unregistered kernels simply
    run on the reference interpreter.
    """
    _VECTORIZED_KERNELS[kernel_fn] = impl


def has_vectorized_impl(kernel_fn: KernelFn) -> bool:
    """True when a vectorized executor is registered for ``kernel_fn``.

    The static engine-precondition analysis mirrors this table through
    each kernel's contract (``engine_module=None`` declares "no fast
    path, always reference") — this is the dynamic side of that
    prediction, used by tests and the admission gate to check the two
    agree.
    """
    return kernel_fn in _VECTORIZED_KERNELS


def vectorized_kernel_names() -> Tuple[str, ...]:
    """Sorted names of the kernels with a registered fast path."""
    return tuple(sorted(fn.__name__ for fn in _VECTORIZED_KERNELS))


class ExecutionEngine:
    """Strategy interface for executing one kernel launch.

    Subclasses implement :meth:`run` with the exact signature of
    :func:`~repro.gpusim.scheduler.run_kernel` and must honour the
    byte-identity contract of the module docstring.  ``name`` is the
    stable identifier recorded in ``DecompositionResult.counters``
    (``engine.<name>``), ``result.stats["engine"]`` and the kernel
    span arguments.
    """

    name = "abstract"

    def run(
        self,
        kernel_fn: KernelFn,
        spec: DeviceSpec,
        cost: CostModel,
        grid_dim: int,
        block_dim: int,
        args: Sequence[Any] = (),
        kwargs: "dict[str, Any] | None" = None,
        preempt_prob: float = 0.0,
        seed: int = 0,
        monitor: "LaunchMonitor | None" = None,
        collect_timings: bool = False,
        memtracker: "MemoryTracker | None" = None,
    ) -> KernelStats:
        """Execute one launch; see :func:`~repro.gpusim.scheduler.run_kernel`."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class ReferenceEngine(ExecutionEngine):
    """The warp-generator interpreter — always available, authoritative."""

    name = "reference"

    def run(
        self,
        kernel_fn: KernelFn,
        spec: DeviceSpec,
        cost: CostModel,
        grid_dim: int,
        block_dim: int,
        args: Sequence[Any] = (),
        kwargs: "dict[str, Any] | None" = None,
        preempt_prob: float = 0.0,
        seed: int = 0,
        monitor: "LaunchMonitor | None" = None,
        collect_timings: bool = False,
        memtracker: "MemoryTracker | None" = None,
    ) -> KernelStats:
        return run_kernel(
            kernel_fn, spec, cost, grid_dim, block_dim,
            args=args, kwargs=kwargs, preempt_prob=preempt_prob, seed=seed,
            monitor=monitor, collect_timings=collect_timings,
            memtracker=memtracker,
        )


class VectorizedEngine(ReferenceEngine):
    """Launch-level numpy executors with reference fallback.

    A launch is routed to the reference interpreter (inherited
    :meth:`ReferenceEngine.run`) whenever any of the following holds,
    so that exactness is structural rather than hopeful:

    * a sanitizer :class:`~repro.sanitize.racecheck.LaunchMonitor` is
      attached (it needs the per-access shadow log);
    * ``preempt_prob > 0`` (the race-fuzzing schedule must interleave
      at the reference interpreter's yield points);
    * the kernel has no registered vectorized executor;
    * the registered executor declines the launch by raising
      :class:`FallbackToReference` before mutating device state
      (ring-buffer and virtual-warp variants, predicted buffer
      overflow, unexpected launch geometry).

    Every other launch is executed by the registered batched executor,
    whose output the cross-engine property suite and the perf/memory
    regression gates pin against the reference interpreter.
    """

    name = "vectorized"

    def run(
        self,
        kernel_fn: KernelFn,
        spec: DeviceSpec,
        cost: CostModel,
        grid_dim: int,
        block_dim: int,
        args: Sequence[Any] = (),
        kwargs: "dict[str, Any] | None" = None,
        preempt_prob: float = 0.0,
        seed: int = 0,
        monitor: "LaunchMonitor | None" = None,
        collect_timings: bool = False,
        memtracker: "MemoryTracker | None" = None,
    ) -> KernelStats:
        impl = _VECTORIZED_KERNELS.get(kernel_fn)
        if impl is None or monitor is not None or preempt_prob > 0.0:
            return super().run(
                kernel_fn, spec, cost, grid_dim, block_dim,
                args=args, kwargs=kwargs, preempt_prob=preempt_prob,
                seed=seed, monitor=monitor,
                collect_timings=collect_timings, memtracker=memtracker,
            )
        if block_dim % spec.warp_size:
            raise ValueError("block_dim must be a multiple of the warp size")
        launch = VectorLaunch(
            spec=spec, cost=cost, grid_dim=grid_dim, block_dim=block_dim,
            args=tuple(args), kwargs=dict(kwargs or {}),
            collect_timings=collect_timings, memtracker=memtracker,
        )
        try:
            stats = impl(launch)
            # per-launch serving attribution (metric-only): fallback
            # paths inherit the interpreter's "reference" stamp
            return dataclasses.replace(stats, served_by=self.name)
        except FallbackToReference:
            return super().run(
                kernel_fn, spec, cost, grid_dim, block_dim,
                args=args, kwargs=kwargs, preempt_prob=preempt_prob,
                seed=seed, monitor=monitor,
                collect_timings=collect_timings, memtracker=memtracker,
            )


_ENGINES: Dict[str, Callable[[], ExecutionEngine]] = {
    "reference": ReferenceEngine,
    "vectorized": VectorizedEngine,
}

_CACHE: Dict[str, ExecutionEngine] = {}


def available_engines() -> Tuple[str, ...]:
    """The selectable engine names, reference first."""
    return tuple(_ENGINES)


def get_engine(engine: "str | ExecutionEngine | None" = None) -> ExecutionEngine:
    """Resolve an engine selection to an :class:`ExecutionEngine`.

    Accepts a name from :func:`available_engines`, an already-built
    engine (returned as-is, so callers can share or subclass one), or
    ``None`` for :data:`DEFAULT_ENGINE`.  Named engines are cached —
    they are stateless strategies, so one instance serves every device.

    Raises:
        ValueError: for an unknown engine name.
    """
    if engine is None:
        engine = DEFAULT_ENGINE
    if isinstance(engine, ExecutionEngine):
        return engine
    factory = _ENGINES.get(engine)
    if factory is None:
        raise ValueError(
            f"unknown execution engine {engine!r}; "
            f"available: {', '.join(_ENGINES)}"
        )
    if engine not in _CACHE:
        _CACHE[engine] = factory()
    return _CACHE[engine]
